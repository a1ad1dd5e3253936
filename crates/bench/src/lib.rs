//! Shared helpers for the reproduction harness binaries. Each table/figure
//! of the paper has a dedicated binary under `src/bin/`; `bench_report`
//! records the exact counters `BENCH_fig6.json` gates. Wall-clock numbers
//! belong to the repo benchmark (`benchmarks/`), not to this crate.
//!
//! Every harness accepts the shared [`HarnessArgs`] flags:
//! `--scale`/`--jobs`/`--smoke` control problem size and parallelism, and
//! `--arch`/`--suite` select the GPU architecture backend and the
//! workload-registry suite (defaults reproduce the paper's
//! single-architecture tables byte for byte).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;

pub use report::{
    compare_reports, ArchStalls, BenchCell, BenchReport, BenchRunConfig, OpStall,
    BENCH_REPORT_SCHEMA_VERSION,
};

use cuasmrl::{CuAsmRl, GameConfig, OptimizationReport, Strategy, SuiteOptimizer};
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{
    find_suite, generate, ConfigSpace, KernelConfig, KernelKind, KernelSpec, ScheduleStyle,
    WorkloadSuite,
};

/// Scale factor applied to the paper's problem shapes so that every harness
/// binary finishes in seconds on a laptop. Set to 1 to run the full shapes.
pub const DEFAULT_SCALE: usize = 8;

/// The fixed-latency opcodes of the paper's Table 1, micro-benchmarked by
/// `table1_stall_counts` and recorded (as a deterministic regression signal)
/// in every `bench_report` artifact.
pub const STALL_TABLE_OPS: &[&str] = &[
    "IADD3",
    "IMAD.IADD",
    "IADD3.X",
    "MOV",
    "IABS",
    "IMAD",
    "IMNMX",
    "SEL",
    "LEA",
    "IMAD.WIDE",
    "IMAD.WIDE.U32",
];

/// Scale factor used by `--smoke` runs (CI): the deepest shrink the
/// generators support, so a full parallel suite pass finishes in seconds.
pub const SMOKE_SCALE: usize = 64;

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Problem-shape divisor (`1/scale` of the paper shapes).
    pub scale: usize,
    /// Worker threads for the parallel suite driver.
    pub jobs: usize,
    /// CI smoke mode: smallest shapes, smallest search budget.
    pub smoke: bool,
    /// GPU architecture profile (`--arch`): `ampere` (default), `turing` or
    /// `hopper`, including the aliases `gpusim::ArchSpec::by_name` accepts.
    pub arch: String,
    /// Workload suite (`--suite`): a name from the `kernels` workload
    /// registry (`table2` default, `attention`, `reduction`).
    pub suite: String,
    /// Artifact directory (`--report-dir`): when set, the suite driver
    /// persists its per-kernel reports, the aggregate suite report and the
    /// telemetry run manifest there (what CI uploads as build artifacts).
    pub report_dir: Option<std::path::PathBuf>,
}

impl HarnessArgs {
    /// Parses `[scale] [--scale N] [--jobs N] [--smoke] [--arch NAME]
    /// [--suite NAME]` from the process arguments. A bare integer is
    /// accepted as the first positional argument (the scale) for backwards
    /// compatibility with the original harness binaries. Malformed or
    /// unknown arguments abort with a usage message rather than being
    /// silently reinterpreted.
    #[must_use]
    pub fn parse(default_scale: usize) -> Self {
        let mut args = HarnessArgs {
            scale: default_scale,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            smoke: false,
            arch: "ampere".to_string(),
            suite: "table2".to_string(),
            report_dir: None,
        };
        let usage = |problem: &str| -> ! {
            eprintln!("error: {problem}");
            eprintln!(
                "usage: [scale] [--scale N] [--jobs N] [--smoke] [--arch NAME] [--suite NAME] \
                 [--report-dir DIR]"
            );
            eprintln!(
                "  --arch:  {}",
                gpusim::ArchSpec::builtin_names().join(", ")
            );
            eprintln!("  --suite: {}", kernels::suite_names().join(", "));
            std::process::exit(2);
        };
        let mut positional_taken = false;
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--smoke" => {
                    args.smoke = true;
                    args.scale = SMOKE_SCALE;
                }
                "--jobs" => match iter.next().map(|v| v.parse()) {
                    Some(Ok(n)) => args.jobs = n,
                    _ => usage("--jobs requires an integer value"),
                },
                "--scale" => match iter.next().map(|v| v.parse()) {
                    Some(Ok(n)) => args.scale = n,
                    _ => usage("--scale requires an integer value"),
                },
                // Aliases and case variants are canonicalized through the
                // shared `cuasmrl::cli` resolvers so `--arch a100` and
                // `--suite TABLE2` are the default selection, not a
                // cosmetically different one — and so the harness prints
                // the same diagnostics as the examples and the daemon.
                "--arch" => match iter.next() {
                    // Keep the *generation* name, not the device profile's
                    // (`arch.name` would be e.g. "sim-h100-sxm", which
                    // `GpuConfig::by_name` does not resolve).
                    Some(name) => match cuasmrl::cli::resolve_arch(&name) {
                        Ok(arch) => args.arch = arch.arch.name,
                        Err(err) => usage(&err.to_string()),
                    },
                    None => usage("--arch requires a profile name"),
                },
                "--suite" => match iter.next() {
                    Some(name) => match cuasmrl::cli::resolve_suite(&name) {
                        Ok(suite) => args.suite = suite.name.to_string(),
                        Err(err) => usage(&err.to_string()),
                    },
                    None => usage("--suite requires a registry name"),
                },
                "--report-dir" => match iter.next() {
                    Some(dir) => args.report_dir = Some(std::path::PathBuf::from(dir)),
                    None => usage("--report-dir requires a directory path"),
                },
                other => match other.parse() {
                    Ok(n) if !positional_taken && !other.starts_with('-') => {
                        args.scale = n;
                        positional_taken = true;
                    }
                    _ => usage(&format!("unrecognized argument `{other}`")),
                },
            }
        }
        args.jobs = args.jobs.max(1);
        args
    }

    /// The GPU profile selected by `--arch`.
    ///
    /// # Panics
    ///
    /// Panics if the stored name is not a built-in profile (prevented by
    /// `parse`).
    #[must_use]
    pub fn gpu(&self) -> GpuConfig {
        GpuConfig::by_name(&self.arch).expect("parse validated the arch name")
    }

    /// The workload suite selected by `--suite`.
    ///
    /// # Panics
    ///
    /// Panics if the stored name is not registered (prevented by `parse`).
    #[must_use]
    pub fn workload(&self) -> WorkloadSuite {
        find_suite(&self.suite).expect("parse validated the suite name")
    }

    /// A `", arch=..., suite=..."` suffix for harness headlines, empty for
    /// the default selection (keeping default output byte-identical to the
    /// single-architecture harness).
    #[must_use]
    pub fn selection_suffix(&self) -> String {
        let mut suffix = String::new();
        if self.arch != "ampere" {
            suffix.push_str(&format!(", arch={}", self.arch));
        }
        if self.suite != "table2" {
            suffix.push_str(&format!(", suite={}", self.suite));
        }
        suffix
    }

    /// The per-kernel search budget (moves/generations) for this run.
    #[must_use]
    pub fn budget_moves(&self, full: usize) -> usize {
        if self.smoke {
            4
        } else {
            full
        }
    }
}

/// The tuned configuration used for a kernel kind in the harness (a fixed,
/// reasonable configuration so that harness runs are comparable; the
/// autotuner itself is exercised by `fig6_throughput`).
#[must_use]
pub fn harness_config(kind: KernelKind) -> KernelConfig {
    if kind.is_compute_bound() {
        KernelConfig {
            block_m: 64,
            block_n: 64,
            block_k: 32,
            num_warps: 4,
            num_stages: 2,
        }
    } else {
        KernelConfig {
            block_m: 1,
            block_n: 1024,
            block_k: 1,
            num_warps: 4,
            num_stages: 1,
        }
    }
}

/// Fast measurement protocol used by the harness (the paper uses 100+100
/// iterations; the simulator is deterministic so a handful suffices).
#[must_use]
pub fn harness_measure() -> MeasureOptions {
    MeasureOptions {
        warmup: 0,
        repeats: 3,
        noise_std: 0.0,
        seed: 0,
    }
}

/// Builds the parallel suite driver all multi-kernel harnesses share: the
/// (1+1) evolutionary searcher (see [`optimize_kernel`] for why) over the
/// autotuned Triton pipeline, sharded across `jobs` worker threads. In smoke
/// mode the autotuning space collapses to [`ConfigSpace::small`] so a full
/// suite pass stays within a CI minute.
#[must_use]
pub fn suite_driver(args: &HarnessArgs, budget_moves: usize) -> SuiteOptimizer {
    let driver = SuiteOptimizer::new(
        args.gpu(),
        Strategy::Evolutionary {
            generations: budget_moves.max(4),
            mutation_length: 24,
            seed: 0,
        },
    )
    .with_jobs(args.jobs)
    .with_tune_options(harness_measure())
    .with_game_config(GameConfig {
        episode_length: budget_moves.max(32),
        measure: harness_measure(),
        ..GameConfig::default()
    });
    let driver = match &args.report_dir {
        Some(dir) => driver.with_cache_dir(dir.clone()),
        None => driver,
    };
    if args.smoke {
        driver.with_config_space(ConfigSpace::small())
    } else {
        driver
    }
}

/// Optimizes one kernel of the suite on `gpu`, returning the report (used
/// by several figures).
///
/// The harness defaults to the (1+1) evolutionary searcher over the same
/// masked assembly game: single adjacent swaps often change the runtime of a
/// barrier-bound loop by nothing at all until several copies have been
/// hoisted, so a searcher that evaluates whole move sequences escapes those
/// plateaus far faster than greedy hill climbing, while staying cheap enough
/// for CI. `Strategy::Rl` (the paper's default) is exercised by the
/// `fig8_hyperparams` harness and the `train_rl_agent` example.
#[must_use]
pub fn optimize_kernel(
    gpu: &GpuConfig,
    kind: KernelKind,
    scale: usize,
    budget_moves: usize,
) -> OptimizationReport {
    let spec = KernelSpec::scaled(kind, scale);
    let config = harness_config(kind);
    let kernel = generate(&spec, &config, ScheduleStyle::Baseline);
    let game = GameConfig {
        episode_length: budget_moves.max(32),
        measure: harness_measure(),
        ..GameConfig::default()
    };
    let optimizer = CuAsmRl::new(
        gpu.clone(),
        Strategy::Evolutionary {
            generations: budget_moves.max(8),
            mutation_length: 24,
            seed: 0,
        },
    )
    .with_game_config(game);
    optimizer.optimize_program(&kernel.name, kernel.program, kernel.launch)
}
