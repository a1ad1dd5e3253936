//! Kernel-level launch model: grids of thread blocks over many SMs, and the
//! CUDA-events-style measurement protocol.

use sass::Program;
use serde::{Deserialize, Serialize};

use crate::config::GpuConfig;
use crate::exec::ConstantBank;
use crate::sm::{SimOutput, SimWork, SmReport, SmSimulator};

/// A kernel launch configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: u64,
    /// Warps per thread block.
    pub warps_per_block: usize,
    /// Thread blocks co-resident on one SM (occupancy).
    pub blocks_per_sm: usize,
    /// Kernel parameters placed in constant bank 0: `(offset, value)`.
    pub params: Vec<(u32, u64)>,
    /// Useful work per thread block, used to convert runtime into
    /// throughput (FLOPs for compute-bound kernels, bytes for memory-bound
    /// kernels).
    pub work_per_block: f64,
    /// Simulation cycle limit per resident batch.
    pub max_cycles: u64,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            grid_blocks: 1,
            warps_per_block: 4,
            blocks_per_sm: 1,
            params: Vec::new(),
            work_per_block: 1.0,
            max_cycles: 4_000_000,
        }
    }
}

impl LaunchConfig {
    /// Builds the sorted constant bank consumed by the executor. Built once
    /// per launch; the executor resolves constants by binary search instead
    /// of rebuilding a hash map per simulation.
    #[must_use]
    pub fn constant_bank(&self) -> ConstantBank {
        ConstantBank::from_pairs(
            self.params
                .iter()
                .map(|&(offset, value)| ((0u32, offset), value)),
        )
    }
}

/// The result of simulating a kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRun {
    /// Per-SM report of one resident batch.
    pub sm: SmReport,
    /// Number of sequential "waves" of blocks needed to drain the grid.
    pub waves: u64,
    /// Total kernel runtime in microseconds.
    pub runtime_us: f64,
    /// Throughput in units of `work_per_block` per second.
    pub throughput: f64,
    /// Achieved device memory bandwidth in GB/s.
    pub memory_throughput_gbs: f64,
}

/// Simulates a full kernel launch on the device.
///
/// All thread blocks execute the same instruction stream, so one resident
/// batch (one SM's worth of co-resident blocks) is simulated cycle by cycle
/// and the grid-level runtime is obtained by multiplying by the number of
/// waves needed to drain the grid over all SMs.
#[must_use]
pub fn simulate_launch(config: &GpuConfig, program: &Program, launch: &LaunchConfig) -> KernelRun {
    let output = run_resident_batch(config, program, launch, launch.max_cycles);
    kernel_run_from_report(config, launch, output.report)
}

/// One resident batch of `launch`, simulated until every warp exits or
/// `max_cycles` is reached.
fn run_resident_batch(
    config: &GpuConfig,
    program: &Program,
    launch: &LaunchConfig,
    max_cycles: u64,
) -> SimOutput {
    SmSimulator::new(config.clone()).run(
        program,
        resident_warps(config, launch),
        0,
        &launch.constant_bank(),
        max_cycles,
    )
}

/// The number of warps co-resident on one SM under `launch` (what
/// [`simulate_launch`] simulates cycle by cycle).
#[must_use]
pub fn resident_warps(config: &GpuConfig, launch: &LaunchConfig) -> usize {
    (launch.warps_per_block * launch.blocks_per_sm.max(1))
        .min(config.arch.max_warps_per_sm)
        .max(1)
}

/// Sequential waves of resident batches needed to drain `launch`'s grid over
/// every SM: the factor [`kernel_run_from_report`] multiplies one batch's
/// cycles by.
#[must_use]
pub(crate) fn waves(config: &GpuConfig, launch: &LaunchConfig) -> u64 {
    let blocks_per_wave = (config.sm_count * launch.blocks_per_sm.max(1)) as u64;
    launch.grid_blocks.div_ceil(blocks_per_wave).max(1)
}

/// Scales one resident batch's [`SmReport`] to the grid-level [`KernelRun`]
/// (waves, runtime, throughput). Pure arithmetic over the report — the delta
/// engine reuses it to turn a spliced per-SM report into a measurement that
/// is bit-identical to what [`simulate_launch`] would have produced.
#[must_use]
pub fn kernel_run_from_report(
    config: &GpuConfig,
    launch: &LaunchConfig,
    report: SmReport,
) -> KernelRun {
    let waves = waves(config, launch);
    let total_cycles = report.cycles.max(1) * waves;
    let runtime_us = total_cycles as f64 / (config.clock_ghz * 1e3);
    let total_work = launch.work_per_block * launch.grid_blocks as f64;
    let throughput = if runtime_us > 0.0 {
        total_work / (runtime_us * 1e-6)
    } else {
        0.0
    };
    // Device-level memory throughput: bytes moved by the whole grid over the
    // runtime (each simulated block moves `device_bytes`).
    let grid_bytes = report.mem.device_bytes() as f64 / launch.blocks_per_sm.max(1) as f64
        * launch.grid_blocks as f64;
    let memory_throughput_gbs = if runtime_us > 0.0 {
        grid_bytes / (runtime_us * 1e-6) / 1e9
    } else {
        0.0
    };
    KernelRun {
        sm: report,
        waves,
        runtime_us,
        throughput,
        memory_throughput_gbs,
    }
}

/// Options for the CUDA-events-style measurement protocol of §3.6 / §5.1:
/// warm-up iterations followed by measured iterations, L2 cleared between
/// iterations, with a small Gaussian measurement noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureOptions {
    /// Warm-up iterations (not measured).
    pub warmup: usize,
    /// Measured iterations.
    pub repeats: usize,
    /// Relative standard deviation of the measurement noise (the paper
    /// observes individual measurements within 1% of each other).
    pub noise_std: f64,
    /// Seed for the measurement-noise generator.
    pub seed: u64,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            warmup: 100,
            repeats: 100,
            noise_std: 0.003,
            seed: 0,
        }
    }
}

/// A kernel-runtime measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Mean runtime over the measured iterations, in microseconds.
    pub mean_us: f64,
    /// Standard deviation of the measured iterations, in microseconds.
    pub std_us: f64,
    /// The underlying noise-free launch simulation.
    pub run: KernelRun,
}

/// Measures the runtime of a kernel following the paper's protocol.
///
/// The simulator is deterministic, so the warm-up iterations only serve to
/// mirror the protocol; the measured iterations differ only by the injected
/// measurement noise.
#[must_use]
pub fn measure(
    config: &GpuConfig,
    program: &Program,
    launch: &LaunchConfig,
    options: &MeasureOptions,
) -> Measurement {
    measurement_from_run(simulate_launch(config, program, launch), options)
}

/// Applies the measurement protocol (repeat sampling plus seeded noise) to
/// an already-simulated launch. [`measure`] is `simulate_launch` followed by
/// this; the delta engine calls it directly on spliced runs, so the produced
/// [`Measurement`] is bit-for-bit what the full pipeline yields.
#[must_use]
pub fn measurement_from_run(run: KernelRun, options: &MeasureOptions) -> Measurement {
    use rand::{Rng, SeedableRng};
    let samples: Vec<f64> = if options.noise_std == 0.0 {
        // Noise-free protocol: the simulator is deterministic, so every
        // repeat observes exactly `runtime_us` (the noisy path multiplies by
        // `1.0 + 0.0`, which is the identity). Replicate the one simulated
        // sample instead of drawing per-repeat RNG noise; the mean/std
        // statistics below are computed identically, so the result is
        // bit-for-bit what the sampling loop produced.
        vec![run.runtime_us; options.repeats.max(1)]
    } else {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(
            options.seed ^ run.sm.output_digest ^ run.sm.cycles,
        );
        (0..options.repeats.max(1))
            .map(|_| {
                // Box-Muller style noise via two uniform draws, clamped to a
                // few standard deviations to keep measurements realistic.
                let u: f64 = rng.gen_range(-1.0..1.0);
                let v: f64 = rng.gen_range(-1.0..1.0);
                let noise = (u + v) * 0.5 * options.noise_std * 3.0_f64.sqrt();
                run.runtime_us * (1.0 + noise)
            })
            .collect()
    };
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
    Measurement {
        mean_us: mean,
        std_us: var.sqrt(),
        run,
    }
}

impl MeasureOptions {
    /// The largest relative deviation [`measurement_from_run`]'s sampler can
    /// add to a run's runtime: each sample's noise is the mean of two draws
    /// from `[-1, 1)` scaled by `noise_std·√3`, so every sample, and hence
    /// the mean, lies in `runtime·[1 − noise_bound, 1 + noise_bound]`.
    #[must_use]
    pub fn noise_bound(&self) -> f64 {
        self.noise_std.abs() * 3.0_f64.sqrt()
    }
}

/// The cycle horizon past which a run of `launch` cannot measure a mean
/// below `best_mean_us` under `options`, however its noise falls:
/// `min(launch.max_cycles, ceil(best_mean · clock_ghz · 1e3 / (waves ·
/// (1 − noise_bound))) + 1)`. A run still unfinished at this horizon has
/// more cycles than that ceiling, so even its lowest possible mean —
/// `cycles · waves / (clock_ghz · 1e3) · (1 − noise_bound)` — is at least
/// `best_mean_us` plus a whole cycle's margin, which dwarfs any rounding of
/// the sampler. When no bound exists (noise of 100 % or more, a
/// non-positive clock, a non-finite best) the horizon is `max_cycles`.
#[must_use]
pub fn argmin_horizon(
    config: &GpuConfig,
    launch: &LaunchConfig,
    options: &MeasureOptions,
    best_mean_us: f64,
) -> u64 {
    let floor = 1.0 - options.noise_bound();
    let cycles = best_mean_us * config.clock_ghz * 1e3 / (waves(config, launch) as f64 * floor);
    if !(floor > 0.0 && config.clock_ghz > 0.0 && cycles.is_finite()) {
        return launch.max_cycles;
    }
    // `as` saturates, so a ceiling beyond `u64` is clamped, not wrapped.
    (cycles.ceil() as u64)
        .saturating_add(1)
        .min(launch.max_cycles)
}

/// [`measure`] under a cycle horizon, plus the engine work it took: the
/// resident batch runs until every warp exits or `horizon` (at most
/// `launch.max_cycles`) is reached. `None` means the run was cut short of
/// `launch.max_cycles` — it had not finished by `horizon`; otherwise the
/// measurement is bit-for-bit what [`measure`] returns, because a run that
/// finishes by its horizon never saw it.
#[must_use]
pub fn measure_until(
    config: &GpuConfig,
    program: &Program,
    launch: &LaunchConfig,
    options: &MeasureOptions,
    horizon: u64,
) -> (Option<Measurement>, SimWork) {
    let horizon = horizon.min(launch.max_cycles);
    let output = run_resident_batch(config, program, launch, horizon);
    let measurement = (output.report.completed || horizon == launch.max_cycles).then(|| {
        measurement_from_run(
            kernel_run_from_report(config, launch, output.report),
            options,
        )
    });
    (measurement, output.work)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
[B------:R-:W-:-:S04] MOV R4, 0x1000 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
[B0-----:R-:W-:-:S04] IADD3 R6, R2, 0x1, RZ ;
[B------:R-:W-:-:S04] STG.E [R4], R6 ;
[B------:R-:W-:-:S05] EXIT ;
";

    fn launch() -> LaunchConfig {
        LaunchConfig {
            grid_blocks: 432,
            warps_per_block: 4,
            blocks_per_sm: 2,
            params: vec![(0x160, 0x10000)],
            work_per_block: 1024.0,
            max_cycles: 1_000_000,
        }
    }

    #[test]
    fn launch_scales_with_grid_size() {
        let cfg = GpuConfig::small();
        let program: sass::Program = SAMPLE.parse().unwrap();
        let small_grid = simulate_launch(
            &cfg,
            &program,
            &LaunchConfig {
                grid_blocks: 4,
                ..launch()
            },
        );
        let big_grid = simulate_launch(
            &cfg,
            &program,
            &LaunchConfig {
                grid_blocks: 4000,
                ..launch()
            },
        );
        assert!(big_grid.runtime_us > small_grid.runtime_us);
        assert!(big_grid.waves > small_grid.waves);
    }

    #[test]
    fn throughput_is_work_over_time() {
        let cfg = GpuConfig::small();
        let program: sass::Program = SAMPLE.parse().unwrap();
        let run = simulate_launch(&cfg, &program, &launch());
        let expected =
            launch().work_per_block * launch().grid_blocks as f64 / (run.runtime_us * 1e-6);
        assert!((run.throughput - expected).abs() / expected < 1e-9);
        assert!(run.memory_throughput_gbs > 0.0);
    }

    #[test]
    fn constant_bank_reaches_the_kernel() {
        let cfg = GpuConfig::small();
        let program: sass::Program = "\
[B------:R-:W-:-:S04] MOV R4, c[0x0][0x160] ;
[B------:R-:W-:-:S04] STG.E [R4], R4 ;
[B------:R-:W-:-:S05] EXIT ;
"
        .parse()
        .unwrap();
        let run = simulate_launch(&cfg, &program, &launch());
        assert_eq!(run.sm.hazards, 0);
        assert!(run.sm.mem.global_store_bytes > 0);
    }

    #[test]
    fn measurement_noise_is_small_and_centered() {
        let cfg = GpuConfig::small();
        let program: sass::Program = SAMPLE.parse().unwrap();
        let options = MeasureOptions::default();
        let m = measure(&cfg, &program, &launch(), &options);
        assert!((m.mean_us - m.run.runtime_us).abs() / m.run.runtime_us < 0.01);
        assert!(m.std_us / m.mean_us < 0.01, "std should be within 1%");
    }

    #[test]
    fn noise_free_measurement_short_circuits_to_one_simulation() {
        let cfg = GpuConfig::small();
        let program: sass::Program = SAMPLE.parse().unwrap();
        let options = MeasureOptions {
            warmup: 0,
            repeats: 7,
            noise_std: 0.0,
            seed: 123,
        };
        let m = measure(&cfg, &program, &launch(), &options);
        // Every sample is the deterministic runtime: zero spread, and the
        // mean is computed over `repeats` identical values exactly as the
        // sampling loop would have produced them.
        assert_eq!(m.std_us, 0.0);
        assert!((m.mean_us - m.run.runtime_us).abs() / m.run.runtime_us < 1e-12);
        // The seed is irrelevant without noise.
        let other = measure(
            &cfg,
            &program,
            &launch(),
            &MeasureOptions {
                seed: 456,
                ..options
            },
        );
        assert_eq!(m.mean_us, other.mean_us);
        assert_eq!(m.run, other.run);
    }

    #[test]
    fn measurement_is_reproducible_for_a_fixed_seed() {
        let cfg = GpuConfig::small();
        let program: sass::Program = SAMPLE.parse().unwrap();
        let options = MeasureOptions {
            seed: 7,
            ..MeasureOptions::default()
        };
        let a = measure(&cfg, &program, &launch(), &options);
        let b = measure(&cfg, &program, &launch(), &options);
        assert_eq!(a.mean_us, b.mean_us);
    }

    /// The lowest mean a run of `cycles` cycles can measure under `options`.
    fn lowest_mean(cfg: &GpuConfig, options: &MeasureOptions, cycles: u64) -> f64 {
        (cycles * waves(cfg, &launch())) as f64 / (cfg.clock_ghz * 1e3)
            * (1.0 - options.noise_bound())
    }

    #[test]
    fn the_horizon_is_one_cycle_past_the_last_cycle_count_that_could_win() {
        let cfg = GpuConfig::a100();
        for noise_std in [0.0, 0.003, 0.25] {
            let options = MeasureOptions {
                noise_std,
                ..MeasureOptions::default()
            };
            // An integral threshold (the best's own cycle count under the
            // noise-free protocol) and a fractional one.
            for best_us in [
                lowest_mean(
                    &cfg,
                    &MeasureOptions {
                        noise_std: 0.0,
                        ..options.clone()
                    },
                    5_000,
                ),
                12.345,
            ] {
                let horizon = argmin_horizon(&cfg, &launch(), &options, best_us);
                let threshold = horizon - 1;
                // Finishing at the threshold cannot win even under the
                // worst-case downward noise; a cycle earlier can…
                assert!(
                    lowest_mean(&cfg, &options, threshold) >= best_us,
                    "{noise_std}"
                );
                assert!(
                    lowest_mean(&cfg, &options, threshold - 1) < best_us,
                    "{noise_std}"
                );
                // …and a run cut by the horizon is a full cycle further out.
                assert!(lowest_mean(&cfg, &options, horizon + 1) > best_us);
            }
        }
    }

    #[test]
    fn the_horizon_is_unbounded_when_noise_or_inputs_allow_no_bound() {
        let cfg = GpuConfig::a100();
        let max = launch().max_cycles;
        let noise = |noise_std| MeasureOptions {
            noise_std,
            ..MeasureOptions::default()
        };
        assert_eq!(argmin_horizon(&cfg, &launch(), &noise(1.0), 10.0), max);
        assert_eq!(argmin_horizon(&cfg, &launch(), &noise(f64::NAN), 10.0), max);
        for best in [f64::INFINITY, f64::NAN] {
            assert_eq!(argmin_horizon(&cfg, &launch(), &noise(0.003), best), max);
        }
        assert_eq!(argmin_horizon(&cfg, &launch(), &noise(0.003), 1e300), max);
        let frozen = GpuConfig {
            clock_ghz: 0.0,
            ..cfg
        };
        assert_eq!(argmin_horizon(&frozen, &launch(), &noise(0.003), 10.0), max);
    }

    #[test]
    fn a_run_that_finishes_by_its_horizon_measures_what_measure_does() {
        let cfg = GpuConfig::small();
        let program: sass::Program = SAMPLE.parse().unwrap();
        let options = MeasureOptions::default();
        let full = measure(&cfg, &program, &launch(), &options);
        let cycles = full.run.sm.cycles;
        let (at, _) = measure_until(&cfg, &program, &launch(), &options, cycles);
        assert_eq!(at, Some(full));
        let (cut, work) = measure_until(&cfg, &program, &launch(), &options, cycles - 1);
        assert_eq!(cut, None);
        assert!(work.steps > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn every_mean_lies_within_the_noise_bound(
            seed in 0u64..u64::MAX,
            noise_std in 0.0f64..0.6,
            repeats in 1usize..40,
            runtime_us in 0.01f64..1e4,
        ) {
            let cfg = GpuConfig::small();
            let program: sass::Program = SAMPLE.parse().unwrap();
            let mut run = simulate_launch(&cfg, &program, &launch());
            run.runtime_us = runtime_us;
            run.sm.output_digest = seed.rotate_left(17);
            let options = MeasureOptions { warmup: 0, repeats, noise_std, seed };
            let bound = options.noise_bound();
            let mean = measurement_from_run(run, &options).mean_us;
            // Summing and dividing may round each way by a few ulps.
            let slack = 1e-12;
            proptest::prop_assert!(mean >= runtime_us * (1.0 - bound) * (1.0 - slack));
            proptest::prop_assert!(mean <= runtime_us * (1.0 + bound) * (1.0 + slack));
        }
    }
}
