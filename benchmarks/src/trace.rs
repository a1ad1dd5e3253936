//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from benchmark code around calls into each layer's
//! public functions, kept in memory and written out once at exit. A span's
//! *self time* is its duration minus the part of that interval its child
//! spans cover; children running on parallel worker threads may overlap, so
//! the covered part is the measure of the *union* of their intervals.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers a span name may be filed under: its prefix before the first
/// `.`. Anything else is benchmark glue and counts as residual.
pub const LAYERS: [&str; 7] = ["sass", "kernels", "gpusim", "nn", "rl", "core", "serve"];

/// Span id meaning "no parent".
pub const ROOT: u64 = 0;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never [`ROOT`]).
    pub id: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: u64,
    /// `<layer>.<what>` for layer work, anything else for benchmark glue.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The pass or request this span belongs to.
    pub unit: u64,
}

impl Span {
    /// The layer this span is filed under, if its name carries one.
    pub fn layer(&self) -> Option<&'static str> {
        let prefix = self.name.split('.').next()?;
        LAYERS.iter().copied().find(|layer| *layer == prefix)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Disabled (the end-to-end run) it costs one branch per
/// call and never reads the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `work` inside a span; `work` receives the span's id to parent
    /// its own children under (it receives `parent` unchanged when tracing
    /// is off).
    pub fn span<T>(&self, name: &str, parent: u64, unit: u64, work: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return work(parent);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = work(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            unit,
        });
        result
    }

    /// Records a span of known length starting now: time that was measured
    /// elsewhere (the direct run of a search the daemon repeats out of
    /// sight) and stands in, as an estimate, for a child that cannot be
    /// observed.
    pub fn record(&self, name: &str, parent: u64, unit: u64, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + duration_ns,
            unit,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span is pushed in one statement; the lock cannot be poisoned mid-update")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a span is pushed in one statement; the lock cannot be poisoned mid-update")
            .clone()
    }

    /// Writes the spans as JSON lines (`name, start_ns, end_ns, parent,
    /// workload, unit`).
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\",\"unit\":{}}}",
                span.id, span.parent, span.name, span.start_ns, span.end_ns, workload, span.unit
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, by id: duration minus the measure of the union
/// of its children's intervals (each clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let mut intervals: Vec<(u64, u64)> = children
                .get(&span.id)
                .map(|list| {
                    list.iter()
                        .map(|&(s, e)| (s.max(span.start_ns), e.min(span.end_ns)))
                        .filter(|(s, e)| e > s)
                        .collect()
                })
                .unwrap_or_default();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (s, e) in intervals {
                let s = s.max(cursor);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            (span.id, span.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer, plus `"residual"` for spans that carry no
/// layer (benchmark glue, idle worker tails), all in nanoseconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans {
        *by_layer
            .entry(span.layer().unwrap_or("residual"))
            .or_default() += own[&span.id];
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, ROOT, "pass", 0, 100),
            // Two workers overlap on [30, 50): the union covers [10, 70).
            span(2, 1, "core.search", 10, 50),
            span(3, 1, "kernels.autotune", 30, 70),
            // A grandchild only reduces its own parent.
            span(4, 2, "gpusim.delta", 20, 40),
            // A child sticking out of its parent is clipped to it.
            span(5, 3, "sass.parse", 60, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 60);
        assert_eq!(own[&2], 40 - 20);
        assert_eq!(own[&3], 40 - 10);
        assert_eq!(own[&4], 20);
        assert_eq!(own[&5], 30);
    }

    #[test]
    fn layer_totals_file_unnamed_spans_under_residual() {
        let spans = vec![
            span(1, ROOT, "pass", 0, 100),
            span(2, 1, "core.search", 0, 60),
            span(3, 2, "gpusim.delta", 10, 30),
            span(4, 1, "kernels.autotune", 60, 90),
        ];
        let layers = layer_self_times(&spans);
        assert_eq!(layers["core"], 40);
        assert_eq!(layers["gpusim"], 20);
        assert_eq!(layers["kernels"], 30);
        assert_eq!(layers["residual"], 10);
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_still_runs_the_work() {
        let tracer = Tracer::new(false);
        let value = tracer.span("core.search", ROOT, 0, |id| id + 41);
        assert_eq!(value, 41);
        tracer.record("core.env", ROOT, 0, 5);
        assert!(tracer.spans().is_empty());

        let tracer = Tracer::new(true);
        let inner = tracer.span("pass", ROOT, 7, |pass| {
            tracer.span("core.search", pass, 7, |id| id)
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, inner);
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[0].layer(), Some("core"));
        assert_eq!(spans[1].layer(), None);
        assert!(spans[1].end_ns >= spans[0].end_ns);
    }
}
