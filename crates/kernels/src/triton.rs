//! A Triton-like compilation pipeline and its autotuner (§3.1, §4.1).
//!
//! The real CuAsmRL reuses OpenAI Triton's pipeline: an autotuner enumerates
//! user-provided kernel configurations, the best one is compiled to a cubin,
//! and CuAsmRL intercepts that cubin. This module provides the same two
//! stages on top of the synthetic kernel generators:
//!
//! * [`TritonPipeline::compile`] — kernel spec + configuration → [`Cubin`],
//! * [`Autotuner::tune`] — grid search over a [`ConfigSpace`], measuring
//!   candidates on the simulated GPU and returning the fastest configuration.
//!
//! The tuner itself remembers nothing between calls. The verdict is
//! memoised one level up, in the deploy cache: with a cache directory
//! configured, `cuasmrl::CuAsmRl` reads the answer's deploy record — keyed
//! by every input of the answer, this tuner's (device, spec, space,
//! measurement options) among them — before it would tune.

use gpusim::{argmin_horizon, measure_until, GpuConfig, LaunchConfig, MeasureOptions};
use sass::Cubin;
use serde::{Deserialize, Serialize};

use crate::config::{ConfigSpace, KernelConfig};
use crate::generator::{generate, GeneratedKernel, ScheduleStyle};
use crate::suite::KernelSpec;

/// The compilation pipeline: source (kernel spec) → SASS → cubin.
#[derive(Debug, Clone)]
pub struct TritonPipeline {
    gpu: GpuConfig,
}

/// A compiled kernel: the cubin plus the launch configuration and the name
/// of the kernel symbol inside the cubin.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The kernel symbol name.
    pub name: String,
    /// The binary container.
    pub cubin: Cubin,
    /// Launch configuration for execution and measurement.
    pub launch: LaunchConfig,
    /// The configuration the kernel was compiled with.
    pub config: KernelConfig,
}

impl TritonPipeline {
    /// Creates a pipeline targeting the given device.
    #[must_use]
    pub fn new(gpu: GpuConfig) -> Self {
        TritonPipeline { gpu }
    }

    /// The target device.
    #[must_use]
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// Compiles a kernel with a specific configuration, producing the cubin
    /// CuAsmRL will intercept.
    #[must_use]
    pub fn compile(&self, spec: &KernelSpec, config: &KernelConfig) -> CompiledKernel {
        let GeneratedKernel {
            name,
            program,
            launch,
        } = generate(spec, config, ScheduleStyle::Baseline);
        let cubin = Cubin::from_kernel(self.gpu.arch.class, &name, &program);
        CompiledKernel {
            name,
            cubin,
            launch,
            config: *config,
        }
    }
}

/// One autotuning candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningRecord {
    /// The configuration measured.
    pub config: KernelConfig,
    /// Mean measured runtime in microseconds; `None` when the candidate was
    /// abandoned because it provably could not beat the best so far (see
    /// [`Autotuner::tune`]).
    pub runtime_us: Option<f64>,
}

/// The result of an autotuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningResult {
    /// The best (lowest-runtime) configuration.
    pub best: KernelConfig,
    /// Mean runtime of the best configuration, in microseconds.
    pub best_runtime_us: f64,
    /// One record per candidate, in enumeration order.
    pub records: Vec<TuningRecord>,
    /// `CycleEngine` steps spent simulating every candidate, abandoned ones
    /// included ([`gpusim::SimWork::steps`], summed). Exact on any machine.
    pub sim_steps: u64,
}

/// Grid-search autotuner over kernel configurations (§3.1).
#[derive(Debug, Clone)]
pub struct Autotuner {
    gpu: GpuConfig,
    options: MeasureOptions,
}

impl Autotuner {
    /// Creates an autotuner that measures with the paper's protocol
    /// (100 warm-up + 100 measured iterations).
    #[must_use]
    pub fn new(gpu: GpuConfig) -> Self {
        Autotuner {
            gpu,
            options: MeasureOptions::default(),
        }
    }

    /// Overrides the measurement options (useful for fast tests).
    #[must_use]
    pub fn with_options(mut self, options: MeasureOptions) -> Self {
        self.options = options;
        self
    }

    /// Enumerates the configuration space in order and selects the fastest
    /// candidate, the first one on a tie (§3.1).
    ///
    /// The answer is the arg-min of `gpusim::measure` over the whole grid,
    /// bit for bit, but a candidate is only simulated as far as it could
    /// still win: once a best exists, each later candidate runs under
    /// [`argmin_horizon`] and is abandoned (`runtime_us: None`) if it has
    /// not finished by then.
    ///
    /// # Panics
    ///
    /// Panics if `space` is empty.
    #[must_use]
    pub fn tune(&self, spec: &KernelSpec, space: &ConfigSpace) -> TuningResult {
        assert!(
            !space.candidates.is_empty(),
            "autotuning space must contain at least one configuration"
        );
        let mut records = Vec::with_capacity(space.candidates.len());
        let mut best: Option<(KernelConfig, f64)> = None;
        let mut sim_steps = 0;
        for config in &space.candidates {
            let kernel = generate(spec, config, ScheduleStyle::Baseline);
            let horizon = best.map_or(kernel.launch.max_cycles, |(_, best_us)| {
                argmin_horizon(&self.gpu, &kernel.launch, &self.options, best_us)
            });
            let (measurement, work) = measure_until(
                &self.gpu,
                &kernel.program,
                &kernel.launch,
                &self.options,
                horizon,
            );
            sim_steps += work.steps;
            let runtime_us = measurement.map(|m| m.mean_us);
            if let Some(us) = runtime_us {
                if best.is_none_or(|(_, best_us)| us.total_cmp(&best_us).is_lt()) {
                    best = Some((*config, us));
                }
            }
            records.push(TuningRecord {
                config: *config,
                runtime_us,
            });
        }
        let (best, best_runtime_us) = best.expect("the first candidate runs unbounded");
        TuningResult {
            best,
            best_runtime_us,
            records,
            sim_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{KernelKind, KernelSpec};

    fn fast_options() -> MeasureOptions {
        MeasureOptions {
            warmup: 0,
            repeats: 3,
            noise_std: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn compile_produces_an_interceptable_cubin() {
        let pipeline = TritonPipeline::new(GpuConfig::small());
        let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
        let compiled = pipeline.compile(&spec, &KernelConfig::default_compute());
        let program = compiled.cubin.kernel_program(&compiled.name).unwrap();
        assert!(program.instruction_count() > 20);
        assert_eq!(compiled.cubin.kernel_names(), vec![compiled.name.as_str()]);
        assert_eq!(pipeline.gpu().name, GpuConfig::small().name);
    }

    /// A cubin names the device it was compiled for, in its label and its
    /// `.nv.info` section.
    #[test]
    fn a_cubin_names_its_device() {
        let spec = KernelSpec::scaled(KernelKind::Softmax, 16);
        for (gpu, sm) in [
            (GpuConfig::turing(), "sm_75"),
            (GpuConfig::hopper(), "sm_90"),
        ] {
            let compiled =
                TritonPipeline::new(gpu).compile(&spec, &KernelConfig::default_compute());
            assert_eq!(compiled.cubin.architecture(), sm);
            let info = &compiled.cubin.sections()[1];
            assert!(String::from_utf8_lossy(&info.data).ends_with(&format!("arch={sm}")));
        }
    }

    #[test]
    fn autotuner_picks_the_fastest_configuration() {
        let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
        let tuner = Autotuner::new(GpuConfig::small()).with_options(fast_options());
        let mut space = ConfigSpace::small();
        space.candidates.push(KernelConfig::untuned());
        let result = tuner.tune(&spec, &space);
        assert_eq!(result.records.len(), space.candidates.len());
        let min = result
            .records
            .iter()
            .filter_map(|r| r.runtime_us)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best_runtime_us, min);
        // The deliberately poor configuration must not win.
        assert_ne!(result.best, KernelConfig::untuned());
    }

    #[test]
    fn tuning_result_is_deterministic() {
        let spec = KernelSpec::scaled(KernelKind::Softmax, 16);
        let tuner = Autotuner::new(GpuConfig::small()).with_options(fast_options());
        let space = KernelKind::Softmax.config_space();
        let small = ConfigSpace {
            candidates: space.candidates.into_iter().take(4).collect(),
        };
        let a = tuner.tune(&spec, &small);
        let b = tuner.tune(&spec, &small);
        assert_eq!(a.best, b.best);
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn empty_space_panics() {
        let spec = KernelSpec::scaled(KernelKind::Softmax, 16);
        let tuner = Autotuner::new(GpuConfig::small()).with_options(fast_options());
        let _ = tuner.tune(&spec, &ConfigSpace { candidates: vec![] });
    }
}
