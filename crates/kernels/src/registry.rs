//! The workload registry: a declarative catalog of named kernel suites.
//!
//! The paper evaluates one fixed suite (Table 2). The registry generalizes
//! that into named workload families so the suite driver, the harness
//! binaries (`--suite`) and the examples can select what to optimize:
//!
//! * **`table2`** — the six paper kernels at their Table-2 shapes (the
//!   default; selecting it reproduces the historical behaviour exactly),
//! * **`attention`** — a flash-attention-style family sweeping sequence
//!   length, head count and head dimension,
//! * **`reduction`** — a reduction/scan-style family of row-wise
//!   softmax/rmsnorm kernels sweeping row count and row width.
//!
//! Each suite is pure data: a list of [`SuiteEntry`]s (label, kernel kind,
//! full-scale problem shape). [`WorkloadSuite::specs`] applies the same
//! shape-shrinking rule as [`KernelSpec::scaled`], so every suite supports
//! the harness `--scale` machinery unchanged.

use crate::suite::{KernelKind, KernelSpec, ProblemShape};

/// One kernel of a workload suite: a display label plus the fully-specified
/// kernel at its full-scale shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteEntry {
    /// Row label used by the harness tables (for `table2` these are the
    /// historical kernel names).
    pub label: &'static str,
    /// Which kernel.
    pub kind: KernelKind,
    /// The full-scale problem shape (`--scale` divides it down).
    pub shape: ProblemShape,
}

impl SuiteEntry {
    /// The kernel spec of this entry at problem scale `1/scale`.
    #[must_use]
    pub fn spec(&self, scale: usize) -> KernelSpec {
        KernelSpec {
            kind: self.kind,
            shape: self.shape,
        }
        .scaled_by(scale)
    }
}

/// A named, declaratively-defined kernel suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSuite {
    /// Registry name (`--suite` value).
    pub name: &'static str,
    /// One-line description shown by `--suite help` style listings.
    pub description: &'static str,
    /// The kernels of the suite, in report order.
    pub entries: Vec<SuiteEntry>,
}

impl WorkloadSuite {
    /// The kernel specs of the suite at problem scale `1/scale`, in suite
    /// order.
    #[must_use]
    pub fn specs(&self, scale: usize) -> Vec<KernelSpec> {
        self.entries.iter().map(|e| e.spec(scale)).collect()
    }
}

fn paper_entry(kind: KernelKind) -> SuiteEntry {
    SuiteEntry {
        label: kind.name(),
        kind,
        shape: KernelSpec::paper(kind).shape,
    }
}

fn table2() -> WorkloadSuite {
    WorkloadSuite {
        name: "table2",
        description: "the six LLM kernels of the paper's Table 2 (default)",
        entries: KernelKind::all().into_iter().map(paper_entry).collect(),
    }
}

fn attention() -> WorkloadSuite {
    let entry = |label, heads, seq, head_dim, batch| SuiteEntry {
        label,
        kind: KernelKind::FlashAttention,
        shape: ProblemShape {
            batch,
            m: heads,
            n: seq,
            k: head_dim,
        },
    };
    WorkloadSuite {
        name: "attention",
        description: "flash-attention-style kernels across sequence/head shapes",
        entries: vec![
            entry("attn-s4096-h4", 4, 4096, 32, 1),
            entry("attn-s2048-h8", 8, 2048, 64, 1),
            entry("attn-s8192-h4", 4, 8192, 32, 1),
            entry("attn-b4-s1024-h8", 8, 1024, 64, 4),
        ],
    }
}

fn reduction() -> WorkloadSuite {
    let entry = |label, kind, rows, cols| SuiteEntry {
        label,
        kind,
        shape: ProblemShape {
            batch: 1,
            m: rows,
            n: cols,
            k: 1,
        },
    };
    WorkloadSuite {
        name: "reduction",
        description: "reduction/scan-style row-wise kernels across row shapes",
        entries: vec![
            entry("sm-r512-c4096", KernelKind::Softmax, 512, 4096),
            entry("sm-r128-c16384", KernelKind::Softmax, 128, 16384),
            entry("rms-r131072-c64", KernelKind::Rmsnorm, 32 * 4096, 64),
            entry("rms-r16384-c128", KernelKind::Rmsnorm, 16384, 128),
        ],
    }
}

/// All registered workload suites, the default (`table2`) first.
#[must_use]
pub fn workload_suites() -> Vec<WorkloadSuite> {
    vec![table2(), attention(), reduction()]
}

/// Looks a suite up by name (case-insensitive).
#[must_use]
pub fn find_suite(name: &str) -> Option<WorkloadSuite> {
    let wanted = name.to_ascii_lowercase();
    workload_suites().into_iter().find(|s| s.name == wanted)
}

/// Names of the registered suites, in registry order.
#[must_use]
pub fn suite_names() -> Vec<&'static str> {
    workload_suites().iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_at_least_three_suites_with_table2_first() {
        let names = suite_names();
        assert!(names.len() >= 3);
        assert_eq!(names[0], "table2");
        assert!(names.contains(&"attention"));
        assert!(names.contains(&"reduction"));
    }

    #[test]
    fn table2_matches_the_historical_default_suite() {
        // The default suite must reproduce KernelKind::all() at the paper
        // shapes exactly: same kinds, same labels, same scaled specs.
        let suite = find_suite("table2").unwrap();
        for scale in [1, 8, 64] {
            let specs = suite.specs(scale);
            let legacy: Vec<KernelSpec> = KernelKind::all()
                .into_iter()
                .map(|kind| KernelSpec::scaled(kind, scale))
                .collect();
            assert_eq!(specs, legacy);
        }
        let labels: Vec<&str> = suite.entries.iter().map(|e| e.label).collect();
        let legacy_labels: Vec<&str> = KernelKind::all().iter().map(KernelKind::name).collect();
        assert_eq!(labels, legacy_labels);
    }

    #[test]
    fn every_suite_entry_generates_a_valid_schedule() {
        use crate::config::KernelConfig;
        use crate::generator::{generate, ScheduleStyle};
        for suite in workload_suites() {
            for spec in suite.specs(64) {
                let config = if spec.kind.is_compute_bound() {
                    KernelConfig {
                        block_m: 32,
                        block_n: 32,
                        block_k: 32,
                        num_warps: 4,
                        num_stages: 2,
                    }
                } else {
                    KernelConfig {
                        block_m: 1,
                        block_n: 512,
                        block_k: 1,
                        num_warps: 4,
                        num_stages: 1,
                    }
                };
                let kernel = generate(&spec, &config, ScheduleStyle::Baseline);
                assert!(
                    kernel.program.instruction_count() > 20,
                    "{}/{} generated a degenerate program",
                    suite.name,
                    spec.kind.name()
                );
            }
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_rejects_unknown_names() {
        assert!(find_suite("TABLE2").is_some());
        assert!(find_suite("Attention").is_some());
        assert!(find_suite("nonexistent").is_none());
    }

    #[test]
    fn new_families_are_non_trivial() {
        let attention = find_suite("attention").unwrap();
        assert!(attention.entries.len() >= 3);
        assert!(attention
            .entries
            .iter()
            .all(|e| e.kind == KernelKind::FlashAttention));
        // The shapes genuinely differ (it is a sweep, not a repeat).
        let shapes: Vec<_> = attention.entries.iter().map(|e| e.shape).collect();
        for (i, a) in shapes.iter().enumerate() {
            for b in &shapes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let reduction = find_suite("reduction").unwrap();
        assert!(reduction.entries.len() >= 3);
        assert!(reduction.entries.iter().all(|e| !e.kind.is_compute_bound()));
    }
}
