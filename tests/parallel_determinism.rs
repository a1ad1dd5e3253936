//! The determinism contract of the parallel engine: for a fixed seed,
//! N-job `SuiteOptimizer` reports must be bit-identical to 1-job reports.

use cuasmrl::{GameConfig, Strategy, SuiteOptimizer};
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{ConfigSpace, KernelKind, KernelSpec};

fn fast_measure() -> MeasureOptions {
    MeasureOptions {
        warmup: 0,
        repeats: 2,
        noise_std: 0.0,
        seed: 0,
    }
}

fn suite_driver(jobs: usize, seed: u64) -> SuiteOptimizer {
    SuiteOptimizer::new(
        GpuConfig::small(),
        Strategy::Evolutionary {
            generations: 6,
            mutation_length: 8,
            seed: 0,
        },
    )
    .with_jobs(jobs)
    .with_seed(seed)
    .with_tune_options(fast_measure())
    .with_config_space(ConfigSpace::small())
    .with_game_config(GameConfig {
        episode_length: 8,
        measure: fast_measure(),
        ..GameConfig::default()
    })
}

fn suite_specs() -> Vec<KernelSpec> {
    vec![
        KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 32),
        KernelSpec::scaled(KernelKind::Softmax, 32),
        KernelSpec::scaled(KernelKind::BatchMatmul, 32),
        KernelSpec::scaled(KernelKind::Rmsnorm, 32),
    ]
}

#[test]
fn suite_optimizer_with_four_jobs_matches_the_single_job_path() {
    let single = suite_driver(1, 42).optimize(&suite_specs());
    let quad = suite_driver(4, 42).optimize(&suite_specs());
    // The serialized form captures every field, including the f64 runtimes,
    // with shortest-round-trip formatting — equality here is bit-equality.
    assert_eq!(
        serde_json::to_string_pretty(&single).unwrap(),
        serde_json::to_string_pretty(&quad).unwrap()
    );
    assert_eq!(single.reports.len(), 4);
    assert!(single.reports.iter().all(|r| r.verified));
}

#[test]
fn suite_optimizer_seeds_change_the_search_but_stay_deterministic() {
    let specs = vec![KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 32)];
    let a = suite_driver(2, 1).optimize(&specs);
    let b = suite_driver(2, 1).optimize(&specs);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "same seed must reproduce the same suite report"
    );
}

#[test]
fn schedule_cache_round_trips_across_runs() {
    let dir =
        std::env::temp_dir().join(format!("cuasmrl-determinism-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = suite_specs();
    let first = suite_driver(4, 7).with_cache_dir(&dir).optimize(&specs);
    // A second run (different job count) answers from the cache and returns
    // identical reports.
    let second = suite_driver(2, 7).with_cache_dir(&dir).optimize(&specs);
    assert_eq!(
        serde_json::to_string(&first.reports).unwrap(),
        serde_json::to_string(&second.reports).unwrap()
    );
    let loaded = cuasmrl::load_suite_report(&dir, &first.gpu, &first.suite)
        .expect("the aggregate reads back")
        .expect("aggregate persisted");
    assert_eq!(
        serde_json::to_string(&loaded).unwrap(),
        serde_json::to_string(&second).unwrap()
    );
    let _ = std::fs::remove_dir_all(dir);
}
