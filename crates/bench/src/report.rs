//! The canonical benchmark-report artifact and its regression comparator.
//!
//! `bench_report run` emits a [`BenchReport`]: one [`BenchCell`] per
//! (architecture × workload suite) combination holding the
//! machine-independent products of one full suite pass (geometric-mean
//! speedup, verified-kernel count, simulator engine steps of the baseline
//! kernels and of autotuning them), plus the
//! deterministic dependency-measured stall table per architecture.
//! `bench_report compare` diffs a candidate report against a committed
//! baseline with [`compare_reports`] and fails (nonzero exit) on any
//! regression — this is what gates CI.
//!
//! Every field is a deterministic product of the simulator and every field
//! is gated: the geometric-mean speedup (equal up to last-ulp `libm`
//! slack), verified-kernel and coverage counts, the engine-step count and
//! the stall tables. The report carries no wall clock: every wall-clock
//! claim belongs to the repo benchmark (`benchmarks/`, see
//! `docs/PERFORMANCE.md`).

use serde::{Deserialize, Serialize};

/// Version of the benchmark-report JSON schema (see `docs/ARTIFACTS.md`).
///
/// v2 dropped the wall-clock samples, the delta-sweep tallies and the
/// `*-edits` companion cells, and re-sourced `sim_steps`; v3 added
/// `autotune_sim_steps`; v4 dropped the reduced-budget flag from `config`:
/// every cell is Figure 6's one search budget.
pub const BENCH_REPORT_SCHEMA_VERSION: u32 = 4;

/// The run configuration a report was produced under.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchRunConfig {
    /// Problem-shape divisor (`1/scale` of the paper shapes).
    pub scale: usize,
    /// Worker threads of the parallel suite driver (never compared:
    /// `jobs=N` reproduces `jobs=1` bit for bit).
    pub jobs: usize,
}

/// One (architecture × suite) cell of the benchmark matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCell {
    /// Architecture profile name.
    pub arch: String,
    /// Workload-registry suite name.
    pub suite: String,
    /// Geometric-mean speedup over the `-O3` baseline (deterministic).
    pub geomean_speedup: f64,
    /// Kernels whose optimized schedule verified (deterministic).
    pub verified: usize,
    /// Total kernels in the suite.
    pub kernels: usize,
    /// `CycleEngine` steps of simulating each of the suite's baseline
    /// kernels once ([`gpusim::SimWork::steps`], summed): the work counter
    /// of the simulation every reward is earned by. Exact on any machine.
    pub sim_steps: u64,
    /// `CycleEngine` steps of autotuning each of the suite's kernels once
    /// (`kernels::TuningResult::sim_steps`, summed, abandoned candidates
    /// included) in the driver's space under its tune options: the work
    /// counter of the bounded autotune grid. Exact on any machine.
    pub autotune_sim_steps: u64,
}

impl BenchCell {
    /// The `arch/suite` key of this cell.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}/{}", self.arch, self.suite)
    }
}

/// One opcode's dependency-measured stall count on one architecture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStall {
    /// Opcode name (e.g. `IADD3`).
    pub op: String,
    /// Measured stall cycles; `None` when the micro-benchmark cannot
    /// resolve the opcode on this architecture.
    pub stall: Option<u32>,
}

/// The deterministic stall table measured on one architecture (the Table 1
/// reproduction, used as a machine-independent regression signal).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchStalls {
    /// Architecture profile name.
    pub arch: String,
    /// Per-opcode measured stalls, in a fixed opcode order.
    pub stalls: Vec<OpStall>,
}

/// The canonical benchmark-report artifact (`BENCH_*.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report schema version ([`BENCH_REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Producing tool, always `"bench_report"`.
    pub tool: String,
    /// Run configuration.
    pub config: BenchRunConfig,
    /// Matrix cells, sorted by `arch/suite` key.
    pub cells: Vec<BenchCell>,
    /// Deterministic stall tables, sorted by architecture.
    pub stall_counts: Vec<ArchStalls>,
}

impl BenchReport {
    /// Looks up a cell by architecture and suite.
    #[must_use]
    pub fn cell(&self, arch: &str, suite: &str) -> Option<&BenchCell> {
        self.cells
            .iter()
            .find(|c| c.arch == arch && c.suite == suite)
    }
}

/// Relative slack on a cell's `geomean_speedup`, in either direction. The
/// metric is a ratio of deterministic simulated times, so this only absorbs
/// last-ulp `libm` differences between runners.
const GEOMEAN_RELATIVE_SLACK: f64 = 1e-9;

/// Compares a candidate report against a baseline and returns one
/// human-readable line per regression (empty = no regression). Extra cells
/// in the candidate (new coverage) are never regressions; cells or
/// architectures missing from the candidate always are. Reports run at
/// different scales are not comparable cell by cell: that is the one line
/// returned.
#[must_use]
pub fn compare_reports(baseline: &BenchReport, candidate: &BenchReport) -> Vec<String> {
    if candidate.config.scale != baseline.config.scale {
        return vec![format!(
            "config: scale changed 1/{} -> 1/{} (the cells are not comparable; \
             run the candidate at the baseline's --scale)",
            baseline.config.scale, candidate.config.scale
        )];
    }
    let mut regressions = Vec::new();
    for base in &baseline.cells {
        let key = base.key();
        let Some(cand) = candidate.cell(&base.arch, &base.suite) else {
            regressions.push(format!("{key}: cell missing from candidate report"));
            continue;
        };
        let geomean_matches = (cand.geomean_speedup - base.geomean_speedup).abs()
            <= base.geomean_speedup.abs() * GEOMEAN_RELATIVE_SLACK;
        if !geomean_matches {
            regressions.push(format!(
                "{key}: geomean speedup changed {}x -> {}x \
                 (deterministic simulated time; regenerate the baseline if intended)",
                base.geomean_speedup, cand.geomean_speedup
            ));
        }
        // Exact counts of a deterministic run: a rise is as much a change
        // as a drop (regenerate the baseline when one is intended).
        if cand.verified != base.verified {
            regressions.push(format!(
                "{key}: verified kernels changed {} -> {}",
                base.verified, cand.verified
            ));
        }
        if cand.kernels != base.kernels {
            regressions.push(format!(
                "{key}: suite coverage changed {} -> {} kernels",
                base.kernels, cand.kernels
            ));
        }
        if cand.sim_steps != base.sim_steps {
            regressions.push(format!(
                "{key}: simulator steps changed {} -> {} \
                 (deterministic work counter; regenerate the baseline if intended)",
                base.sim_steps, cand.sim_steps
            ));
        }
        if cand.autotune_sim_steps != base.autotune_sim_steps {
            regressions.push(format!(
                "{key}: autotune simulator steps changed {} -> {} \
                 (deterministic work counter; regenerate the baseline if intended)",
                base.autotune_sim_steps, cand.autotune_sim_steps
            ));
        }
    }
    for base_arch in &baseline.stall_counts {
        let Some(cand_arch) = candidate
            .stall_counts
            .iter()
            .find(|a| a.arch == base_arch.arch)
        else {
            regressions.push(format!(
                "{}: stall table missing from candidate report",
                base_arch.arch
            ));
            continue;
        };
        for base_op in &base_arch.stalls {
            let cand_stall = cand_arch
                .stalls
                .iter()
                .find(|o| o.op == base_op.op)
                .map(|o| o.stall);
            if cand_stall != Some(base_op.stall) {
                regressions.push(format!(
                    "{}/{}: stall count changed {:?} -> {:?} \
                     (deterministic metric; regenerate the baseline if intended)",
                    base_arch.arch,
                    base_op.op,
                    base_op.stall,
                    cand_stall.flatten()
                ));
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            schema_version: BENCH_REPORT_SCHEMA_VERSION,
            tool: "bench_report".to_string(),
            config: BenchRunConfig { scale: 8, jobs: 4 },
            cells: vec![BenchCell {
                arch: "ampere".to_string(),
                suite: "table2".to_string(),
                geomean_speedup: 1.009,
                verified: 6,
                kernels: 6,
                sim_steps: 9_000,
                autotune_sim_steps: 40_000,
            }],
            stall_counts: vec![ArchStalls {
                arch: "ampere".to_string(),
                stalls: vec![
                    OpStall {
                        op: "IADD3".to_string(),
                        stall: Some(4),
                    },
                    OpStall {
                        op: "IMAD".to_string(),
                        stall: Some(5),
                    },
                ],
            }],
        }
    }

    #[test]
    fn identical_reports_show_no_regression() {
        let a = report();
        assert!(compare_reports(&a, &a.clone()).is_empty());
    }

    #[test]
    fn a_scale_mismatch_is_one_regression_naming_both_scales() {
        let base = report();
        let mut rescaled = base.clone();
        rescaled.config.scale = 64;
        // Every cell of a run at another scale differs too; the cause is
        // named once instead.
        rescaled.cells[0].sim_steps = 1_500;
        rescaled.cells[0].geomean_speedup = 1.0;
        let regressions = compare_reports(&base, &rescaled);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(
            regressions[0].contains("scale changed 1/8 -> 1/64"),
            "{regressions:?}"
        );
        // The worker count is not part of the result.
        let mut serial = base.clone();
        serial.config.jobs = 1;
        assert!(compare_reports(&base, &serial).is_empty());
    }

    #[test]
    fn sim_step_counter_is_gated_exactly() {
        let base = report();
        let mut more = base.clone();
        more.cells[0].sim_steps += 1;
        let regressions = compare_reports(&base, &more);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("simulator steps changed 9000 -> 9001"));
        // Fewer steps is a change too: the gate is an equality, so a
        // refactor that is meant to move nothing cannot move this quietly.
        let mut fewer = base.clone();
        fewer.cells[0].sim_steps -= 1;
        let regressions = compare_reports(&base, &fewer);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("simulator steps changed 9000 -> 8999"));
    }

    #[test]
    fn autotune_step_counter_is_gated_exactly() {
        let base = report();
        for delta in [1_i64, -1] {
            let mut moved = base.clone();
            moved.cells[0].autotune_sim_steps = (40_000 + delta) as u64;
            let regressions = compare_reports(&base, &moved);
            assert_eq!(regressions.len(), 1, "{regressions:?}");
            assert!(
                regressions[0].contains(&format!(
                    "autotune simulator steps changed 40000 -> {}",
                    40_000 + delta
                )),
                "{regressions:?}"
            );
        }
    }

    #[test]
    fn quality_and_coverage_regressions_are_caught_regardless_of_time() {
        let base = report();
        let mut worse = base.clone();
        worse.cells[0].geomean_speedup = 0.9;
        assert!(compare_reports(&base, &worse)[0].contains("geomean"));
        // The geomean is deterministic: a rise is as much a change as a
        // drop, and only last-ulp slack passes.
        let mut better = base.clone();
        better.cells[0].geomean_speedup = 1.0091;
        assert!(compare_reports(&base, &better)[0].contains("geomean"));
        let mut ulp = base.clone();
        ulp.cells[0].geomean_speedup = f64::from_bits(1.009_f64.to_bits() + 1);
        assert!(compare_reports(&base, &ulp).is_empty());
        let mut nan = base.clone();
        nan.cells[0].geomean_speedup = f64::NAN;
        assert!(compare_reports(&base, &nan)[0].contains("geomean"));
        let mut unverified = base.clone();
        unverified.cells[0].verified = 4;
        assert!(compare_reports(&base, &unverified)[0].contains("verified"));
        let mut shrunk = base.clone();
        shrunk.cells[0].kernels = 5;
        shrunk.cells[0].verified = 6; // verified unchanged, coverage shrank
        assert!(compare_reports(&base, &shrunk)[0].contains("coverage"));
        // Both counts are equalities: a rise fails like a drop.
        let mut grown = base.clone();
        grown.cells[0].kernels = 7;
        let regressions = compare_reports(&base, &grown);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("coverage changed 6 -> 7"));
        let mut more_verified = base.clone();
        more_verified.cells[0].verified = 7;
        let regressions = compare_reports(&base, &more_verified);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("verified kernels changed 6 -> 7"));
        let mut missing = base.clone();
        missing.cells.clear();
        assert!(compare_reports(&base, &missing)[0].contains("missing"));
    }

    #[test]
    fn stall_count_drift_is_a_strict_regression() {
        let base = report();
        let mut drifted = base.clone();
        drifted.stall_counts[0].stalls[1].stall = Some(6);
        let regressions = compare_reports(&base, &drifted);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("IMAD"));
        let mut gone = base.clone();
        gone.stall_counts.clear();
        assert!(!compare_reports(&base, &gone).is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let original = report();
        let json = serde_json::to_string_pretty(&original).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, original);
    }
}
