//! Parallel suite optimization: the offline-search half of the paper's
//! offline-search / deploy-time-lookup workflow (§4.2), batched across a
//! kernel suite and a thread pool.
//!
//! The paper amortizes CuAsmRL's search cost by optimizing a whole kernel
//! suite offline and looking schedules up at deploy time. [`SuiteOptimizer`]
//! makes that practical at scale: it shards the suite across `jobs` worker
//! threads, runs one full hierarchical [`CuAsmRl`] search per kernel with a
//! per-kernel seed derived from the base seed, aggregates the
//! [`OptimizationReport`]s **in suite order**, and persists both the
//! per-kernel reports and an aggregate [`SuiteReport`] into the schedule
//! cache directory so later runs (and deploy-time lookup) hit the cache.
//!
//! Determinism contract: each kernel's search depends only on its spec, its
//! derived seed and the shared configuration — never on which worker picked
//! it up — so for a fixed seed, `jobs = 4` produces reports bit-identical to
//! `jobs = 1`. The workspace-level `parallel_determinism` test enforces
//! this.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;

use artifact::{seal, unseal, ArtifactError, StoreIo, UnsyncedIo};
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{ConfigSpace, KernelSpec, WorkloadSuite};
use serde::{Deserialize, Serialize};

use crate::game::GameConfig;
use crate::optimizer::{CuAsmRl, OptimizationReport, Strategy};
use crate::telemetry::{
    load_run_manifest_checked, persist_run_manifest, KernelTelemetry, RunManifest,
};

/// The version a suite report is sealed under.
const SUITE_REPORT_VERSION: u32 = 1;

/// Aggregated result of optimizing a kernel suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteReport {
    /// GPU the suite was optimized for.
    pub gpu: String,
    /// Workload-registry suite name (`"custom"` for ad-hoc spec lists);
    /// part of the persisted report's file name, so different suites never
    /// overwrite each other in one cache directory.
    pub suite: String,
    /// Base seed the per-kernel seeds were derived from.
    pub seed: u64,
    /// Per-kernel reports, in suite order.
    pub reports: Vec<OptimizationReport>,
    /// Geometric-mean speedup across the suite (the Figure 6 headline).
    pub geomean_speedup: f64,
    /// Number of kernels whose optimized schedule passed probabilistic
    /// verification.
    pub verified: usize,
}

impl SuiteReport {
    /// Renders a fixed-width per-kernel summary table.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>12} {:>12} {:>9} {:>9}\n",
            "kernel", "baseline_us", "optimized_us", "speedup", "verified"
        ));
        for report in &self.reports {
            out.push_str(&format!(
                "{:<24} {:>12.2} {:>12.2} {:>8.3}x {:>9}\n",
                report.kernel,
                report.baseline_us,
                report.optimized_us,
                report.speedup,
                report.verified
            ));
        }
        out.push_str(&format!(
            "geomean speedup: {:.3}x ({}/{} verified)\n",
            self.geomean_speedup,
            self.verified,
            self.reports.len()
        ));
        out
    }
}

/// Optimizes a suite of kernels across a configurable thread pool.
#[derive(Debug, Clone)]
pub struct SuiteOptimizer {
    gpu: GpuConfig,
    strategy: Strategy,
    game_config: GameConfig,
    tune_options: MeasureOptions,
    space: Option<ConfigSpace>,
    jobs: usize,
    seed: u64,
    cache_dir: Option<PathBuf>,
}

impl SuiteOptimizer {
    /// Creates a single-threaded suite optimizer; scale up with
    /// [`SuiteOptimizer::with_jobs`].
    #[must_use]
    pub fn new(gpu: GpuConfig, strategy: Strategy) -> Self {
        SuiteOptimizer {
            gpu,
            strategy,
            game_config: GameConfig::default(),
            tune_options: MeasureOptions::default(),
            space: None,
            jobs: 1,
            seed: 0,
            cache_dir: None,
        }
    }

    /// The device profile the suite is optimized for.
    #[must_use]
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The configured search strategy.
    #[must_use]
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The base seed (see [`SuiteOptimizer::kernel_seed`]).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The measurement protocol used while autotuning.
    #[must_use]
    pub fn tune_options(&self) -> &MeasureOptions {
        &self.tune_options
    }

    /// The autotuning space used for `spec`: the forced override when one
    /// was set with [`SuiteOptimizer::with_config_space`], otherwise the
    /// kernel kind's own default space — exactly what the worker pool would
    /// search for this spec.
    #[must_use]
    pub fn config_space_for(&self, spec: &KernelSpec) -> ConfigSpace {
        self.space
            .clone()
            .unwrap_or_else(|| spec.kind.config_space())
    }

    /// Sets the number of worker threads (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the base seed from which per-kernel seeds are derived.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the assembly-game configuration.
    #[must_use]
    pub fn with_game_config(mut self, config: GameConfig) -> Self {
        self.game_config = config;
        self
    }

    /// Overrides the measurement protocol used while autotuning.
    #[must_use]
    pub fn with_tune_options(mut self, options: MeasureOptions) -> Self {
        self.tune_options = options;
        self
    }

    /// Forces one autotuning space for every kernel (defaults to each
    /// kernel kind's own space).
    #[must_use]
    pub fn with_config_space(mut self, space: ConfigSpace) -> Self {
        self.space = Some(space);
        self
    }

    /// Enables the deploy-time schedule cache (§4.2): every kernel's answer
    /// is one record under `dir` keyed by every input of the answer
    /// ([`CuAsmRl::deploy_key`] of [`SuiteOptimizer::optimizer_for`]), and
    /// the aggregate suite report and telemetry manifest are persisted
    /// beside them (see [`SuiteOptimizer::optimize_labeled_instrumented`]).
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The per-kernel seed for a spec: a SplitMix64 mix of the base seed,
    /// the kernel name and the problem shape, so every distinct kernel gets
    /// an independent, reproducible stream no matter how the suite is
    /// sharded. Deriving from the *spec* (not the suite position) keeps the
    /// jobs=N ≡ jobs=1 contract even when a suite lists the same spec twice:
    /// duplicates run the identical search and produce identical reports,
    /// with or without a cache hit in between.
    #[must_use]
    pub fn kernel_seed(&self, spec: &KernelSpec) -> u64 {
        let mut state = self.seed;
        for byte in spec.kind.name().bytes() {
            state = state
                .wrapping_add(u64::from(byte))
                .wrapping_mul(0x100_0000_01B3);
        }
        for dim in [spec.shape.batch, spec.shape.m, spec.shape.n, spec.shape.k] {
            state = state.wrapping_add(dim as u64).wrapping_mul(0x100_0000_01B3);
        }
        gpusim::splitmix64(state)
    }

    fn seeded_strategy(&self, seed: u64) -> Strategy {
        match self.strategy.clone() {
            Strategy::Rl(mut config) => {
                config.seed = seed;
                Strategy::Rl(config)
            }
            greedy @ Strategy::Greedy { .. } => greedy,
            Strategy::Random { steps, .. } => Strategy::Random { steps, seed },
            Strategy::Evolutionary {
                generations,
                mutation_length,
                ..
            } => Strategy::Evolutionary {
                generations,
                mutation_length,
                seed,
            },
        }
    }

    /// Builds the per-kernel [`CuAsmRl`] optimizer for one spec: the same
    /// seeded construction the worker pool uses, exported so other callers
    /// — the optimization service's request handlers, tests proving
    /// byte-identity with a direct suite run — execute the identical
    /// search for a given spec regardless of which surface asked for it.
    #[must_use]
    pub fn optimizer_for(&self, spec: &KernelSpec) -> CuAsmRl {
        let strategy = self.seeded_strategy(self.kernel_seed(spec));
        let mut optimizer =
            CuAsmRl::new(self.gpu.clone(), strategy).with_game_config(self.game_config.clone());
        if let Some(dir) = &self.cache_dir {
            optimizer = optimizer.with_cache_dir(dir.clone());
        }
        optimizer
    }

    /// Runs the full hierarchical search for one spec under a cancel token:
    /// [`SuiteOptimizer::optimizer_for`] followed by
    /// [`CuAsmRl::optimize_spec_instrumented_with`] on the suite's
    /// per-kernel space and tune options; the returned flag says whether the
    /// search was preempted (see the optimizer method for the semantics of a
    /// preempted, degraded report).
    #[must_use = "the flag says whether the report is a degraded partial answer"]
    pub fn optimize_spec_preemptible(
        &self,
        spec: &KernelSpec,
        cancel: &rl::CancelToken,
    ) -> (OptimizationReport, KernelTelemetry, bool) {
        let (report, _cubin, telemetry, preempted) = self
            .optimizer_for(spec)
            .optimize_spec_instrumented_with(
                spec,
                &self.config_space_for(spec),
                &self.tune_options,
                cancel,
            )
            .expect("optimizer_for configures no checkpoint, so none can fail to write");
        (report, telemetry, preempted)
    }

    /// Optimizes a registry workload suite (see [`kernels::workload_suites`])
    /// at problem scale `1/scale`.
    #[must_use]
    pub fn optimize_workload(&self, suite: &WorkloadSuite, scale: usize) -> SuiteReport {
        self.optimize_labeled(&suite.specs(scale), suite.name)
    }

    /// Optimizes `specs`, sharding the suite across the configured thread
    /// pool and aggregating the reports in suite order.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the panic is propagated).
    #[must_use]
    pub fn optimize(&self, specs: &[KernelSpec]) -> SuiteReport {
        self.optimize_labeled(specs, "custom")
    }

    /// [`SuiteOptimizer::optimize`] with an explicit suite label for the
    /// persisted report.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the panic is propagated).
    #[must_use]
    pub fn optimize_labeled(&self, specs: &[KernelSpec], label: &str) -> SuiteReport {
        self.optimize_labeled_instrumented(specs, label).0
    }

    /// [`SuiteOptimizer::optimize_labeled`] plus the aggregated
    /// [`RunManifest`] telemetry of the run (per-kernel reward curves and
    /// phase timings, eval-cache hit rates, PPO training series). When a
    /// cache directory is configured, the suite report and the manifest are
    /// published there (see [`crate::telemetry_path`]), unless every kernel
    /// was a deploy-cache hit and both files already read back with this
    /// pass's suite report: then neither is rewritten, and the manifest on
    /// disk stays that of the last pass that searched. The returned
    /// manifest is always this pass's.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (the panic is propagated).
    #[must_use]
    pub fn optimize_labeled_instrumented(
        &self,
        specs: &[KernelSpec],
        label: &str,
    ) -> (SuiteReport, RunManifest) {
        let next = AtomicUsize::new(0);
        let (result_tx, result_rx) = channel::<(usize, OptimizationReport, KernelTelemetry)>();
        let jobs = self.jobs.min(specs.len()).max(1);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    let next = &next;
                    let result_tx = result_tx.clone();
                    scope.spawn(move || loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(index) else {
                            return;
                        };
                        let optimizer = self.optimizer_for(spec);
                        let space = self.config_space_for(spec);
                        let (report, _cubin, telemetry) =
                            optimizer.optimize_spec_instrumented(spec, &space, &self.tune_options);
                        if result_tx.send((index, report, telemetry)).is_err() {
                            return;
                        }
                    })
                })
                .collect();
            // Join each worker rather than let the scope end: the scope
            // returns once the closures finish, before the OS threads exit
            // and release their malloc arenas, so a pass started right after
            // a short one could find every arena still attached and make a
            // new one (~6 MB of peak RSS per extra arena).
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        drop(result_tx);

        let mut slots: Vec<Option<(OptimizationReport, KernelTelemetry)>> = vec![None; specs.len()];
        for (index, report, telemetry) in result_rx {
            slots[index] = Some((report, telemetry));
        }
        let (reports, kernel_telemetry): (Vec<OptimizationReport>, Vec<KernelTelemetry>) = slots
            .into_iter()
            .map(|slot| slot.expect("every kernel must produce a report"))
            .unzip();

        let manifest = RunManifest::new(
            self.gpu.name.clone(),
            label,
            self.strategy.name(),
            self.seed,
            self.jobs,
            kernel_telemetry,
        );
        let suite = SuiteReport {
            gpu: self.gpu.name.clone(),
            suite: label.to_string(),
            seed: self.seed,
            reports,
            geomean_speedup: manifest.geomean_speedup,
            verified: manifest.verified,
        };
        if let Some(dir) = &self.cache_dir {
            if !published_already(dir, &suite, &manifest) {
                if let Err(err) = persist_suite_report(&UnsyncedIo, dir, &suite) {
                    eprintln!("cuasmrl: failed to persist suite report: {err}");
                }
                if let Err(err) = persist_run_manifest(&UnsyncedIo, dir, &manifest) {
                    eprintln!("cuasmrl: failed to persist telemetry manifest: {err}");
                }
            }
        }
        (suite, manifest)
    }
}

/// Whether a pass has nothing to publish: every kernel was a deploy-cache
/// hit, the suite report on disk is this pass's, and the manifest on disk
/// reads back. That manifest stays the last searching pass's, the one whose
/// records carry reward curves and phase timings; a missing, damaged or
/// stale file is published again.
fn published_already(dir: &Path, suite: &SuiteReport, manifest: &RunManifest) -> bool {
    manifest
        .kernels
        .iter()
        .all(|kernel| kernel.from_deploy_cache)
        && matches!(
            load_suite_report(dir, &suite.gpu, &suite.suite),
            Ok(Some(on_disk)) if serde_json::to_string(&on_disk).ok() == serde_json::to_string(suite).ok()
        )
        && matches!(
            load_run_manifest_checked(dir, &manifest.gpu, &manifest.suite),
            Ok(Some(_))
        )
}

/// Path of the aggregate suite report inside a cache directory. Keyed on
/// both the device and the suite name so different `--suite` runs against
/// one cache directory never overwrite each other.
#[must_use]
pub fn suite_report_path(dir: &Path, gpu: &str, suite: &str) -> PathBuf {
    dir.join(format!("{gpu}_{suite}_suite.json"))
}

/// Writes the aggregate suite report into the cache directory through
/// `io`, sealed ([`artifact::seal`]) and published atomically (a reader or
/// a kill sees the previous report or this one).
///
/// # Errors
///
/// Returns an IO error if the directory cannot be created or written.
pub fn persist_suite_report(io: &dyn StoreIo, dir: &Path, suite: &SuiteReport) -> io::Result<()> {
    let path = suite_report_path(dir, &suite.gpu, &suite.suite);
    seal(io, &path, SUITE_REPORT_VERSION, suite)
}

/// Loads a previously persisted aggregate suite report: `Ok(None)` only
/// when no report file exists.
///
/// # Errors
///
/// The [`ArtifactError`] of a damaged report ([`artifact::unseal`]).
pub fn load_suite_report(
    dir: &Path,
    gpu: &str,
    suite: &str,
) -> Result<Option<SuiteReport>, ArtifactError> {
    unseal(&suite_report_path(dir, gpu, suite), SUITE_REPORT_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::KernelKind;

    fn fast_measure() -> MeasureOptions {
        MeasureOptions {
            warmup: 0,
            repeats: 2,
            noise_std: 0.0,
            seed: 0,
        }
    }

    fn small_suite() -> Vec<KernelSpec> {
        vec![
            KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16),
            KernelSpec::scaled(KernelKind::Softmax, 16),
        ]
    }

    fn optimizer(jobs: usize) -> SuiteOptimizer {
        SuiteOptimizer::new(GpuConfig::small(), Strategy::Greedy { max_moves: 4 })
            .with_jobs(jobs)
            .with_seed(7)
            .with_tune_options(fast_measure())
            .with_config_space(ConfigSpace::small())
            .with_game_config(GameConfig {
                episode_length: 8,
                measure: fast_measure(),
                ..GameConfig::default()
            })
    }

    #[test]
    fn suite_reports_arrive_in_suite_order_and_verify() {
        let suite = optimizer(2).optimize(&small_suite());
        assert_eq!(suite.reports.len(), 2);
        assert_eq!(suite.verified, 2);
        assert!(suite.geomean_speedup >= 1.0);
        assert!(suite.reports[0].kernel.contains("mmLeakyReLu"));
        assert!(suite.reports[1].kernel.contains("softmax"));
        assert!(suite.table().contains("geomean"));
    }

    #[test]
    fn per_kernel_seeds_are_independent_of_sharding() {
        let a = optimizer(1);
        let b = optimizer(4);
        for kind in [KernelKind::Softmax, KernelKind::BatchMatmul] {
            let spec = KernelSpec::scaled(kind, 16);
            assert_eq!(a.kernel_seed(&spec), b.kernel_seed(&spec));
        }
        // Distinct kinds and distinct shapes get distinct seeds.
        assert_ne!(
            a.kernel_seed(&KernelSpec::scaled(KernelKind::Softmax, 16)),
            a.kernel_seed(&KernelSpec::scaled(KernelKind::BatchMatmul, 16))
        );
        assert_ne!(
            a.kernel_seed(&KernelSpec::scaled(KernelKind::Softmax, 16)),
            a.kernel_seed(&KernelSpec::scaled(KernelKind::Softmax, 32))
        );
        // Identical specs get identical seeds, so duplicated suite entries
        // run identical searches (the jobs=N determinism contract).
        assert_eq!(
            a.kernel_seed(&KernelSpec::scaled(KernelKind::Rmsnorm, 16)),
            a.kernel_seed(&KernelSpec::scaled(KernelKind::Rmsnorm, 16))
        );
    }

    #[test]
    fn telemetry_manifest_is_aggregated_and_persisted() {
        let dir = std::env::temp_dir().join(format!(
            "cuasmrl-suite-telemetry-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let (suite, manifest) = optimizer(2)
            .with_cache_dir(&dir)
            .optimize_labeled_instrumented(&small_suite(), "custom");
        assert_eq!(manifest.schema_version, crate::TELEMETRY_SCHEMA_VERSION);
        assert_eq!(manifest.kernels.len(), suite.reports.len());
        assert_eq!(manifest.strategy, "greedy");
        assert_eq!(manifest.verified, suite.verified);
        assert_eq!(manifest.geomean_speedup, suite.geomean_speedup);
        for (kernel, report) in manifest.kernels.iter().zip(&suite.reports) {
            assert_eq!(kernel.kernel, report.kernel);
            assert_eq!(kernel.speedup, report.speedup);
            assert_eq!(kernel.reward_curve.len(), report.moves.len());
            assert!(kernel.cache.hits + kernel.cache.misses > 0);
            assert!(kernel.phases.total_ms >= 0.0);
        }
        // The search measures every candidate through the eval cache, so a
        // greedy suite revisits schedules: each move's winner was priced by
        // its peek first (hits > 0 overall).
        assert!(manifest.cache.hits > 0);
        let loaded = crate::load_run_manifest_checked(&dir, &suite.gpu, &suite.suite)
            .unwrap()
            .expect("manifest persisted next to the suite report");
        assert_eq!(loaded, manifest);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn aggregate_report_round_trips_through_the_cache_dir() {
        let dir = std::env::temp_dir().join(format!(
            "cuasmrl-suite-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let driver = optimizer(2).with_cache_dir(&dir);
        let suite = driver.optimize(&small_suite());
        let loaded = load_suite_report(&dir, &suite.gpu, &suite.suite)
            .unwrap()
            .expect("aggregate report persisted");
        assert_eq!(loaded.suite, "custom");
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            serde_json::to_string(&suite).unwrap()
        );
        // One deploy record per kernel sits beside the suite report and the
        // telemetry manifest, and answers that kernel's own optimizer.
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, small_suite().len() + 2);
        for (spec, report) in small_suite().iter().zip(&suite.reports) {
            let (hit, _cubin, telemetry) = driver.optimizer_for(spec).optimize_spec_instrumented(
                spec,
                &driver.config_space_for(spec),
                driver.tune_options(),
            );
            assert!(telemetry.from_deploy_cache);
            assert_eq!(
                serde_json::to_string(&hit).unwrap(),
                serde_json::to_string(report).unwrap()
            );
        }
        // A second run with the same settings answers every kernel from the
        // cache; one that changes a key field searches.
        let (_, manifest) = driver.optimize_labeled_instrumented(&small_suite(), "custom");
        assert!(manifest.kernels.iter().all(|k| k.from_deploy_cache));
        let (_, manifest) = driver
            .clone()
            .with_game_config(GameConfig {
                episode_length: 6,
                measure: fast_measure(),
                ..GameConfig::default()
            })
            .optimize_labeled_instrumented(&small_suite(), "custom");
        assert!(manifest.kernels.iter().all(|k| !k.from_deploy_cache));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A cache directory after one searching pass of the small suite under
    /// `label`: the directory, its driver and what the pass returned.
    fn searched_cache(
        name: &str,
        label: &str,
    ) -> (PathBuf, SuiteOptimizer, SuiteReport, RunManifest) {
        let dir = std::env::temp_dir().join(format!(
            "cuasmrl-suite-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let driver = optimizer(2).with_cache_dir(&dir);
        let (suite, manifest) = driver.optimize_labeled_instrumented(&small_suite(), label);
        assert!(manifest.kernels.iter().all(|k| !k.from_deploy_cache));
        (dir, driver, suite, manifest)
    }

    fn report_json(suite: &SuiteReport) -> String {
        serde_json::to_string(suite).unwrap()
    }

    /// A pass answered entirely from the deploy cache publishes nothing:
    /// both files keep their bytes, so the manifest on disk is still the
    /// searching pass's, while the caller gets the all-hit manifest.
    #[test]
    fn an_all_hit_pass_leaves_the_searching_pass_files_on_disk() {
        let (dir, driver, suite, searched) = searched_cache("all-hit", "custom");
        let report_path = suite_report_path(&dir, &suite.gpu, &suite.suite);
        let manifest_path = crate::telemetry_path(&dir, &suite.gpu, &suite.suite);
        let report_bytes = std::fs::read(&report_path).unwrap();
        let manifest_bytes = std::fs::read(&manifest_path).unwrap();

        let (hit_suite, hit_manifest) =
            driver.optimize_labeled_instrumented(&small_suite(), "custom");
        assert!(hit_manifest.kernels.iter().all(|k| k.from_deploy_cache));
        assert_eq!(report_json(&hit_suite), report_json(&suite));
        assert_eq!(std::fs::read(&report_path).unwrap(), report_bytes);
        assert_eq!(std::fs::read(&manifest_path).unwrap(), manifest_bytes);
        let on_disk = crate::load_run_manifest_checked(&dir, &suite.gpu, &suite.suite)
            .unwrap()
            .expect("the searching pass's manifest");
        assert_eq!(on_disk, searched);
        assert_ne!(on_disk, hit_manifest);
        for (kernel, report) in on_disk.kernels.iter().zip(&suite.reports) {
            assert!(!kernel.from_deploy_cache, "{}", kernel.kernel);
            assert_eq!(kernel.reward_curve.len(), report.moves.len());
            assert!(kernel.cache.hits + kernel.cache.misses > 0);
        }
        assert!(on_disk.kernels.iter().any(|k| !k.reward_curve.is_empty()));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// An all-hit pass under a label with no files yet publishes both.
    #[test]
    fn an_all_hit_pass_under_a_new_label_publishes_both_files() {
        let (dir, driver, suite, _) = searched_cache("new-label", "custom");
        let (hit_suite, hit_manifest) =
            driver.optimize_labeled_instrumented(&small_suite(), "other");
        assert!(hit_manifest.kernels.iter().all(|k| k.from_deploy_cache));
        let loaded = load_suite_report(&dir, &suite.gpu, "other")
            .unwrap()
            .expect("the new label's report");
        assert_eq!(report_json(&loaded), report_json(&hit_suite));
        let on_disk = crate::load_run_manifest_checked(&dir, &suite.gpu, "other")
            .unwrap()
            .expect("the new label's manifest");
        assert_eq!(on_disk, hit_manifest);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// An all-hit pass rebuilds a deleted, rotted or stale suite report
    /// and a rotted manifest.
    #[test]
    fn an_all_hit_pass_rebuilds_a_missing_or_damaged_file() {
        let (dir, driver, suite, _) = searched_cache("rebuild", "custom");
        let report_path = suite_report_path(&dir, &suite.gpu, &suite.suite);
        let manifest_path = crate::telemetry_path(&dir, &suite.gpu, &suite.suite);
        let rot = |path: &Path| {
            let good = std::fs::read_to_string(path).unwrap();
            let rotted = good.replacen("\"seed\":7,", "\"seed\":8,", 1);
            assert_ne!(rotted, good, "the body names its seed");
            std::fs::write(path, rotted).unwrap();
        };
        let pass = || driver.optimize_labeled_instrumented(&small_suite(), "custom");

        std::fs::remove_file(&report_path).unwrap();
        pass();
        let loaded = load_suite_report(&dir, &suite.gpu, &suite.suite).unwrap();
        assert_eq!(report_json(&loaded.expect("rebuilt")), report_json(&suite));

        rot(&report_path);
        assert!(matches!(
            load_suite_report(&dir, &suite.gpu, &suite.suite),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        pass();
        let loaded = load_suite_report(&dir, &suite.gpu, &suite.suite).unwrap();
        assert_eq!(report_json(&loaded.expect("rebuilt")), report_json(&suite));

        let stale = SuiteReport {
            verified: 0,
            ..suite.clone()
        };
        persist_suite_report(&UnsyncedIo, &dir, &stale).unwrap();
        pass();
        let loaded = load_suite_report(&dir, &suite.gpu, &suite.suite).unwrap();
        assert_eq!(report_json(&loaded.expect("rebuilt")), report_json(&suite));

        rot(&manifest_path);
        assert!(matches!(
            crate::load_run_manifest_checked(&dir, &suite.gpu, &suite.suite),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        let (_, hit_manifest) = pass();
        let on_disk = crate::load_run_manifest_checked(&dir, &suite.gpu, &suite.suite).unwrap();
        assert_eq!(on_disk, Some(hit_manifest));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A pass that searched one kernel publishes both files, as every
    /// searching pass does, even when its suite report is unchanged.
    #[test]
    fn a_pass_that_searched_one_kernel_publishes_both_files() {
        let (dir, driver, suite, _) = searched_cache("one-miss", "custom");
        let spec = &small_suite()[0];
        let key = driver
            .optimizer_for(spec)
            .deploy_key(spec, &driver.config_space_for(spec), driver.tune_options())
            .unwrap();
        std::fs::remove_file(&key.path).unwrap();
        let (again, manifest) = driver.optimize_labeled_instrumented(&small_suite(), "custom");
        assert_eq!(report_json(&again), report_json(&suite));
        let hits: Vec<bool> = manifest
            .kernels
            .iter()
            .map(|k| k.from_deploy_cache)
            .collect();
        assert_eq!(hits, [false, true]);
        let on_disk = crate::load_run_manifest_checked(&dir, &suite.gpu, &suite.suite).unwrap();
        assert_eq!(on_disk, Some(manifest));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A suite report edited in place so that it still decodes is a
    /// checksum failure, never the edited report.
    #[test]
    fn a_suite_report_edited_in_place_fails_its_checksum() {
        let dir = std::env::temp_dir().join(format!(
            "cuasmrl-suite-edited-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let suite = SuiteReport {
            gpu: "a100".to_string(),
            suite: "custom".to_string(),
            seed: 7,
            reports: Vec::new(),
            geomean_speedup: 1.25,
            verified: 0,
        };
        persist_suite_report(&UnsyncedIo, &dir, &suite).unwrap();
        let path = suite_report_path(&dir, "a100", "custom");
        let good = std::fs::read_to_string(&path).unwrap();
        let edited = good.replace("\"geomean_speedup\":1.25", "\"geomean_speedup\":9.25");
        assert_ne!(edited, good, "the report has a geomean to edit");
        std::fs::write(&path, edited).unwrap();
        assert!(matches!(
            load_suite_report(&dir, "a100", "custom"),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(dir);
    }
}
