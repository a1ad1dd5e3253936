//! The three offline-search workloads: `search-swap`, `search-rich`,
//! `train-rl`.
//!
//! One unit is a cold suite pass through `SuiteOptimizer` (no deploy cache)
//! followed by a warm round against a populated deploy cache (§4.2): one
//! lookup per kernel for a single caller, then one `jobs = 2` pass. The
//! random strategies do up to a quarter more or less work from one seed to
//! the next, so pass `i` of a run searches under its own seed derived from
//! (`--seed`, `i`): a run's quantiles then estimate the cost over seeds, not
//! the cost of the one seed the run happened to be given.

use std::time::{Duration, Instant};

use cuasmrl::{OptimizationReport, RunManifest, SuiteOptimizer, SuiteReport};

use crate::oracle::Verifier;
use crate::report::Tally;
use crate::scratch::TempDir;
use crate::workloads::{derive_seed, SearchWorkload};

/// Everything set-up prepares for a search workload.
pub struct SearchSetup {
    /// The workload.
    pub workload: SearchWorkload,
    /// `--seed`.
    pub seed: u64,
    /// Oracle references and the listing re-simulator.
    pub verifier: Verifier,
    /// The cold optimizer of pass 0: no deploy cache, so it searches.
    pub cold: SuiteOptimizer,
    /// The warm optimizer: same search, deploy cache populated by set-up.
    pub warm: SuiteOptimizer,
    /// The reports the warm-up pass stored in the deploy cache.
    pub stored: Vec<OptimizationReport>,
    /// Operations of the warm-up pass.
    pub tally: Tally,
    _cache_dir: TempDir,
}

/// Generates the inputs, computes the oracle references, and runs one
/// untimed warm-up pass that also fills the deploy cache.
pub fn setup(workload: &SearchWorkload, seed: u64) -> std::io::Result<SearchSetup> {
    let cache_dir = TempDir::new("deploy-cache")?;
    let cold = workload.optimizer(derive_seed(seed, 0), workload.budget);
    let verifier = Verifier::new(
        &workload.gpu,
        &workload.specs,
        workload.space.as_ref(),
        cold.tune_options(),
    );
    let warm = cold.clone().with_cache_dir(cache_dir.path());
    let suite = warm.optimize_labeled(&workload.specs, workload.label);
    let mut tally = Tally::default();
    check_suite(&verifier, &suite, workload.specs.len(), &mut tally);
    Ok(SearchSetup {
        workload: workload.clone(),
        seed,
        verifier,
        cold,
        warm,
        stored: suite.reports,
        tally,
        _cache_dir: cache_dir,
    })
}

impl SearchSetup {
    /// The cold optimizer of pass `index`: the workload's search under the
    /// seed derived from (`--seed`, `index`).
    pub fn pass_optimizer(&self, index: u64) -> SuiteOptimizer {
        self.workload
            .optimizer(derive_seed(self.seed, index), self.workload.budget)
    }
}

/// Checks every report of a pass against the oracle; a missing report is a
/// failed operation too.
pub fn check_suite(verifier: &Verifier, suite: &SuiteReport, expected: usize, tally: &mut Tally) {
    for report in &suite.reports {
        tally.record(verifier.check(report));
    }
    for _ in suite.reports.len()..expected {
        tally.record(Err("a kernel produced no report".to_string()));
    }
}

/// A warm answer must come from the deploy cache and be the stored report.
fn check_warm(
    verifier: &Verifier,
    stored: &OptimizationReport,
    got: &OptimizationReport,
    from_deploy_cache: bool,
) -> Result<(), String> {
    if !from_deploy_cache {
        return Err(format!(
            "{}: warm answer was searched, not looked up",
            got.kernel
        ));
    }
    if got.kernel != stored.kernel || got.optimized_listing != stored.optimized_listing {
        return Err(format!(
            "{}: deploy-cache answer differs from the stored report",
            got.kernel
        ));
    }
    verifier.check(got)
}

/// The samples one run collects.
#[derive(Debug, Default)]
pub struct SearchSamples {
    /// Host ms per cold pass.
    pub cold_ms: Vec<f64>,
    /// Schedule evaluations per host second, per cold pass.
    pub evals_per_s: Vec<f64>,
    /// Simulated-time geomean speedup, per cold pass.
    pub speedup: Vec<f64>,
    /// Host ms per single-caller deploy-cache lookup (round mean).
    pub warm_ms: Vec<f64>,
    /// Lookups per host second of the `jobs = 2` deploy-cache pass.
    pub warm_per_s: Vec<f64>,
    /// The last cold pass's telemetry.
    pub manifest: Option<RunManifest>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

/// Cold pass number `index` of a run, timed and then checked.
pub fn cold_pass(setup: &SearchSetup, index: u64, samples: &mut SearchSamples) {
    let workload = &setup.workload;
    let optimizer = setup.pass_optimizer(index);
    let start = Instant::now();
    let (suite, manifest) =
        optimizer.optimize_labeled_instrumented(&workload.specs, workload.label);
    let elapsed = start.elapsed().as_secs_f64();
    samples.cold_ms.push(elapsed * 1e3);
    samples
        .evals_per_s
        .push((manifest.cache.hits + manifest.cache.misses) as f64 / elapsed);
    samples.speedup.push(suite.geomean_speedup);
    check_suite(
        &setup.verifier,
        &suite,
        workload.specs.len(),
        &mut samples.tally,
    );
    samples.manifest = Some(manifest);
}

/// One warm round: a lookup per kernel for a single caller, then one
/// concurrent pass, each timed and then checked.
pub fn warm_round(setup: &SearchSetup, samples: &mut SearchSamples) {
    let workload = &setup.workload;
    let kernels = workload.specs.len();

    let start = Instant::now();
    let answers: Vec<_> = workload
        .specs
        .iter()
        .map(|spec| {
            let (report, _cubin, telemetry) =
                setup.warm.optimizer_for(spec).optimize_spec_instrumented(
                    spec,
                    &setup.warm.config_space_for(spec),
                    setup.warm.tune_options(),
                );
            (report, telemetry.from_deploy_cache)
        })
        .collect();
    samples
        .warm_ms
        .push(start.elapsed().as_secs_f64() * 1e3 / kernels as f64);
    for (stored, (report, from_cache)) in setup.stored.iter().zip(&answers) {
        samples
            .tally
            .record(check_warm(&setup.verifier, stored, report, *from_cache));
    }

    let start = Instant::now();
    let (suite, manifest) = setup
        .warm
        .optimize_labeled_instrumented(&workload.specs, workload.label);
    samples
        .warm_per_s
        .push(kernels as f64 / start.elapsed().as_secs_f64());
    for (index, stored) in setup.stored.iter().enumerate() {
        let verdict = match (suite.reports.get(index), manifest.kernels.get(index)) {
            (Some(report), Some(telemetry)) => {
                check_warm(&setup.verifier, stored, report, telemetry.from_deploy_cache)
            }
            _ => Err(format!(
                "{}: the warm pass produced no report",
                stored.kernel
            )),
        };
        samples.tally.record(verdict);
    }
}

/// Passes whose answers make up `sim_speedup_geomean`. A run always does at
/// least this many, so the reading covers the same derived seeds — and
/// repeats bit for bit — however many passes the box fits into `--seconds`.
pub const QUALITY_PASSES: usize = 8;

/// Repeats cold pass + warm round until `seconds` have passed and
/// [`QUALITY_PASSES`] passes are done.
pub fn measure(setup: &SearchSetup, seconds: f64) -> SearchSamples {
    let mut samples = SearchSamples::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        cold_pass(setup, samples.cold_ms.len() as u64, &mut samples);
        warm_round(setup, &mut samples);
        if Instant::now() >= deadline && samples.cold_ms.len() >= QUALITY_PASSES {
            return samples;
        }
    }
}
