//! The bounded autotuner is the full grid's arg-min, bit for bit.
//!
//! `Autotuner::tune` runs each candidate after the first only as far as
//! `gpusim::argmin_horizon` allows and abandons it there. The reference
//! here is computed independently: `gpusim::measure` over every candidate
//! of the space and `min_by(total_cmp)` (first minimum on a tie). `best`
//! and `best_runtime_us` must match it bit for bit, every record the tuner
//! did measure must carry the grid's own mean, and every abandoned one
//! must be a candidate the grid says could not win.
//!
//! Mutants of the bound this file kills (each applied by hand to
//! `argmin_horizon` or `Autotuner::tune`, `cargo test --test
//! autotune_bound` run, reverted):
//!
//! * **no noise margin** — the horizon divides by `waves` alone, dropping
//!   `(1 − noise_bound)`: `hopper/table2/scale 64/BatchMatmul` under
//!   σ = 0.25 abandons the true winner. Every grid at σ ≤ 0.02 survives it,
//!   because the registry has no near-ties; the σ = 0.25 cases are here
//!   for this mutant.
//! * **the best candidate's waves** — the horizon computed from the
//!   current best's launch instead of each candidate's own: killed by the
//!   scale-8 attention shape (`m 4, n 1024`) on a100.
//! * **last minimum on a tie** — `is_le` for `is_lt` when a candidate
//!   replaces the best: killed by the exact ties of the scale-64 registry.
//!
//! Bounding every candidate by the *first* one's mean instead of the best
//! so far is still exact, so no test here can kill it; the exact work
//! counter does (`BENCH_fig6.json`'s `autotune_sim_steps`).
//!
//! The tier-1 subset finishes in seconds in debug; the full sweep —
//! {a100, hopper, small} × {default, seed 7, σ = 0.25, noise-free} × every
//! registry suite × scales {8, 16, 64} × {the kind's space,
//! `ConfigSpace::small()`} — runs nightly:
//! `cargo test --release --test autotune_bound -- --ignored`.

use gpusim::{measure, GpuConfig, MeasureOptions, SmSimulator};
use kernels::{
    generate, Autotuner, ConfigSpace, KernelKind, KernelSpec, ProblemShape, ScheduleStyle,
};

/// The full grid: every candidate measured to completion.
fn full_grid(
    gpu: &GpuConfig,
    spec: &KernelSpec,
    space: &ConfigSpace,
    options: &MeasureOptions,
) -> Vec<f64> {
    space
        .candidates
        .iter()
        .map(|config| {
            let kernel = generate(spec, config, ScheduleStyle::Baseline);
            measure(gpu, &kernel.program, &kernel.launch, options).mean_us
        })
        .collect()
}

/// Tunes one case and checks it against the full grid; returns the number
/// of abandoned candidates.
fn check(
    gpu: &GpuConfig,
    spec: &KernelSpec,
    space: &ConfigSpace,
    options: &MeasureOptions,
) -> usize {
    let label = format!("{}/{spec:?}/{options:?}", gpu.name);
    let grid = full_grid(gpu, spec, space, options);
    let (best_index, best_us) = grid
        .iter()
        .copied()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty space");
    let tuned = Autotuner::new(gpu.clone())
        .with_options(options.clone())
        .tune(spec, space);
    assert_eq!(tuned.best, space.candidates[best_index], "{label}");
    assert_eq!(
        tuned.best_runtime_us.to_bits(),
        best_us.to_bits(),
        "{label}"
    );
    assert_eq!(tuned.records.len(), grid.len(), "{label}");
    let mut abandoned = 0;
    for ((record, config), &mean) in tuned.records.iter().zip(&space.candidates).zip(&grid) {
        assert_eq!(record.config, *config, "{label}: grid order");
        match record.runtime_us {
            Some(us) => assert_eq!(us.to_bits(), mean.to_bits(), "{label}: {config:?}"),
            None => {
                abandoned += 1;
                assert!(
                    mean > best_us,
                    "{label}: abandoned a possible winner {config:?}"
                );
            }
        }
    }
    abandoned
}

fn noisy(noise_std: f64) -> MeasureOptions {
    MeasureOptions {
        noise_std,
        ..MeasureOptions::default()
    }
}

/// The four measurement protocols of the sweep.
fn protocols() -> [MeasureOptions; 4] {
    [
        MeasureOptions::default(),
        MeasureOptions {
            seed: 7,
            ..MeasureOptions::default()
        },
        noisy(0.25),
        noisy(0.0),
    ]
}

#[test]
fn high_noise_keeps_the_true_winner() {
    // The margin-less mutant's witness: under σ = 0.25 a candidate whose
    // noise-free runtime is above the best's can still measure below it.
    let gpu = GpuConfig::hopper();
    let spec = KernelSpec::scaled(KernelKind::BatchMatmul, 64);
    let abandoned = check(&gpu, &spec, &spec.kind.config_space(), &noisy(0.25));
    assert!(abandoned > 0, "the bound must bite on this grid");
}

#[test]
fn bounded_equals_unbounded_on_a_tier1_subset() {
    let mut abandoned = 0;
    // Every registry kernel at the smallest scale under the default device
    // and protocol, and the attention shape whose candidates differ in
    // waves enough to kill the best-candidate's-waves mutant…
    let long_attention = KernelSpec {
        kind: KernelKind::FlashAttention,
        shape: ProblemShape {
            batch: 1,
            m: 4,
            n: 1024,
            k: 32,
        },
    };
    let registry = kernels::workload_suites()
        .into_iter()
        .flat_map(|suite| suite.specs(64))
        .chain([long_attention]);
    for spec in registry {
        abandoned += check(
            &GpuConfig::a100(),
            &spec,
            &spec.kind.config_space(),
            &MeasureOptions::default(),
        );
    }
    // …plus one kernel per other device and protocol, in both spaces.
    for (gpu, kind, options) in [
        (
            GpuConfig::a100(),
            KernelKind::MatmulLeakyRelu,
            MeasureOptions::default(),
        ),
        (GpuConfig::small(), KernelKind::FusedFeedForward, noisy(0.0)),
        (GpuConfig::hopper(), KernelKind::Softmax, noisy(0.25)),
        (
            GpuConfig::a100(),
            KernelKind::Rmsnorm,
            protocols()[1].clone(),
        ),
    ] {
        let spec = KernelSpec::scaled(kind, 64);
        abandoned += check(&gpu, &spec, &spec.kind.config_space(), &options);
        abandoned += check(&gpu, &spec, &ConfigSpace::small(), &options);
    }
    assert!(abandoned > 0, "the subset must exercise abandonment");
}

#[test]
fn a_bounded_grid_steps_less_than_the_full_one() {
    let gpu = GpuConfig::a100();
    let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 64);
    let space = spec.kind.config_space();
    let options = MeasureOptions::default();
    let simulator = SmSimulator::new(gpu.clone());
    let full_steps: u64 = space
        .candidates
        .iter()
        .map(|config| {
            let kernel = generate(&spec, config, ScheduleStyle::Baseline);
            simulator
                .run(
                    &kernel.program,
                    gpusim::resident_warps(&gpu, &kernel.launch),
                    0,
                    &kernel.launch.constant_bank(),
                    kernel.launch.max_cycles,
                )
                .work
                .steps
        })
        .sum();
    let tuned = Autotuner::new(gpu)
        .with_options(options)
        .tune(&spec, &space);
    assert!(
        tuned.sim_steps < full_steps,
        "{} bounded vs {full_steps} full engine steps",
        tuned.sim_steps
    );
}

#[test]
#[ignore = "nightly: the full exactness sweep (run with --release --ignored)"]
fn bounded_equals_unbounded_over_the_full_sweep() {
    let mut tunes = 0;
    let mut abandoned = 0;
    for gpu in [GpuConfig::a100(), GpuConfig::hopper(), GpuConfig::small()] {
        for options in protocols() {
            for suite in kernels::workload_suites() {
                for scale in [8, 16, 64] {
                    for spec in suite.specs(scale) {
                        for space in [spec.kind.config_space(), ConfigSpace::small()] {
                            abandoned += check(&gpu, &spec, &space, &options);
                            tunes += 1;
                        }
                    }
                }
            }
        }
    }
    println!("{tunes} tunes, {abandoned} candidates abandoned");
    assert!(abandoned > 0);
}
