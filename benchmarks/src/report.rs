//! What a run produces: named metric values with their sample counts and
//! the tally of attempted and failed operations.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::catalog::{metric, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{percentile, quartiles, supports_percentile};

/// One reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricValue {
    /// The value, as measured.
    pub value: f64,
    /// How many in-run samples it summarises (1 for a single reading).
    pub n: usize,
    /// First quartile of the in-run samples.
    pub q1: f64,
    /// Third quartile of the in-run samples.
    pub q3: f64,
}

impl MetricValue {
    /// A single reading.
    pub fn single(value: f64) -> MetricValue {
        MetricValue {
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// The `p`-th percentile of `samples`.
    pub fn percentile_of(samples: &[f64], p: f64) -> MetricValue {
        let (q1, _, q3) = quartiles(samples);
        MetricValue {
            value: percentile(samples, p),
            n: samples.len(),
            q1,
            q3,
        }
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// The first failures, for the log.
    pub messages: Vec<String>,
}

impl Tally {
    const KEPT_MESSAGES: usize = 8;

    /// Counts one operation and its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = verdict {
            self.failed += 1;
            if self.messages.len() < Self::KEPT_MESSAGES {
                self.messages.push(message);
            }
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.messages {
            if self.messages.len() < Self::KEPT_MESSAGES {
                self.messages.push(message);
            }
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: BTreeMap<String, MetricValue>,
    /// Lines printed under the table and nowhere else: the whole
    /// distribution of each timing, tail included.
    pub notes: Vec<String>,
}

/// `label: n=.. min .. p25 .. p50 .. p75 .. p90 .. max ..` of `samples`.
pub fn distribution_note(label: &str, samples: &[f64]) -> String {
    let at = |p| percentile(samples, p);
    format!(
        "{label}: n={} min {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3}",
        samples.len(),
        at(0.0),
        at(25.0),
        at(50.0),
        at(75.0),
        at(90.0),
        at(100.0)
    )
}

impl Outcome {
    /// The metrics this run must report.
    pub fn expected(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Everything wrong with the run as a result: failed operations,
    /// missing or non-finite metrics, an end-to-end metric reading zero.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.tally.attempted == 0 {
            problems.push("no operation was attempted".to_string());
        }
        if self.tally.failed > 0 {
            problems.push(format!(
                "{} of {} operations failed",
                self.tally.failed, self.tally.attempted
            ));
            problems.extend(self.tally.messages.iter().map(|m| format!("  {m}")));
        }
        for def in self.expected() {
            match self.metrics.get(def.name) {
                None => problems.push(format!("metric {} was not produced", def.name)),
                Some(v) if !v.value.is_finite() => {
                    problems.push(format!("metric {} is not finite", def.name));
                }
                Some(v) if def.bound.is_some() && v.value == 0.0 => {
                    problems.push(format!("end-to-end metric {} reads zero", def.name));
                }
                Some(_) => {}
            }
        }
        for name in self.metrics.keys() {
            if !self.expected().iter().any(|def| def.name == name) {
                problems.push(format!("metric {name} is not in the catalog"));
            }
        }
        problems
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, every value with all its digits.
    pub fn contract_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems().is_empty(),
            self.tally.attempted,
            self.tally.failed
        );
        let mut first = true;
        for def in self.expected() {
            let Some(v) = self.metrics.get(def.name) else {
                continue;
            };
            if !v.value.is_finite() {
                continue;
            }
            if !first {
                line.push_str(", ");
            }
            first = false;
            let _ = write!(
                line,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                def.name, v.value, def.unit
            );
        }
        line.push_str("}}");
        line
    }

    /// A table of every metric by name with unit, direction, bound and
    /// sample count. A percentile its sample cannot support is marked.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  {}  attempted {}  failed {}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "end-to-end" },
            self.tally.attempted,
            self.tally.failed
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>16} {:<6} {:<6} {:>5} {:>6}",
            "metric", "value", "unit", "better", "bound", "n"
        );
        for def in self.expected() {
            let Some(v) = self.metrics.get(def.name) else {
                continue;
            };
            let bound = def
                .bound
                .map_or_else(|| "-".to_string(), |b| format!("{b:.2}"));
            // A percentile without ten samples beyond it is marked.
            let note = def
                .name
                .rsplit_once("_p")
                .and_then(|(_, p)| p.parse::<f64>().ok())
                .filter(|&p| v.n > 1 && !supports_percentile(v.n, p))
                .map_or_else(String::new, |p| {
                    format!("  (n={} leaves fewer than ten samples beyond p{p})", v.n)
                });
            let _ = writeln!(
                out,
                "  {:<34} {:>16.6} {:<6} {:<6} {:>5} {:>6}{note}",
                def.name,
                v.value,
                def.unit,
                def.better.as_str(),
                bound,
                v.n
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        out
    }
}

/// Unit of a catalogued metric (`""` for an unknown name).
pub fn unit_of(name: &str) -> &'static str {
    metric(name).map_or("", |def| def.unit)
}
