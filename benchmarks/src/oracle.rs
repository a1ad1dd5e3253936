//! The correctness bit that sits beside every number.
//!
//! References are computed during set-up, independently of the code under
//! test: every baseline kernel is autotuned and compiled through the public
//! `kernels` pipeline and then executed by `SmSimulator::run_reference` —
//! the instruction-at-a-time executable specification, which shares neither
//! the lowered `CompiledProgram` form, nor the delta engine, nor the
//! evaluation cache with the search. Every timed operation's
//! `optimized_listing` is re-parsed and re-run the same way and must be
//! hazard-free, produce the reference output digest, run no slower than the
//! baseline and match the runtime the search reported.

use std::collections::HashMap;
use std::sync::Mutex;

use cuasmrl::OptimizationReport;
use gpusim::{
    kernel_run_from_report, resident_warps, GpuConfig, KernelRun, LaunchConfig, MeasureOptions,
    SmSimulator,
};
use kernels::{Autotuner, CompiledKernel, ConfigSpace, KernelSpec, TritonPipeline};
use sass::Program;

/// Relative tolerance when comparing a reported runtime with the
/// re-simulated one: the search reports the mean of identical repeats, which
/// may differ from the single value in the last bit.
const RUNTIME_TOLERANCE: f64 = 1e-9;

/// The independently computed facts about one baseline kernel.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The kernel specification.
    pub spec: KernelSpec,
    /// The autotuned, compiled baseline.
    pub compiled: CompiledKernel,
    /// The baseline schedule intercepted from the cubin.
    pub program: Program,
    /// Number of configurations the autotuner measured.
    pub tuned_configs: usize,
    /// Reference runtime of the baseline schedule, simulated microseconds.
    pub baseline_us: f64,
    /// Reference output digest.
    pub digest: u64,
}

/// Runs `program` through the reference interpreter under `launch` and
/// scales the one-SM report to the grid, as `simulate_launch` does for the
/// lowered engine.
fn reference_run(gpu: &GpuConfig, program: &Program, launch: &LaunchConfig) -> KernelRun {
    let output = SmSimulator::new(gpu.clone()).run_reference(
        program,
        resident_warps(gpu, launch),
        0,
        &launch.constant_bank(),
        launch.max_cycles,
    );
    kernel_run_from_report(gpu, launch, output.report)
}

/// Checks optimisation reports against the set-up references. Passes repeat
/// identical work, so each distinct listing is re-simulated once and later
/// sightings are answered from memory.
#[derive(Debug)]
pub struct Verifier {
    gpu: GpuConfig,
    references: Vec<Reference>,
    by_kernel: HashMap<String, usize>,
    seen: Mutex<HashMap<(usize, String), KernelRun>>,
}

impl Verifier {
    /// Autotunes, compiles and reference-simulates every spec. `space`
    /// forces one autotuning space; `None` uses each kernel kind's own.
    pub fn new(
        gpu: &GpuConfig,
        specs: &[KernelSpec],
        space: Option<&ConfigSpace>,
        tune: &MeasureOptions,
    ) -> Verifier {
        let tuner = Autotuner::new(gpu.clone()).with_options(tune.clone());
        let pipeline = TritonPipeline::new(gpu.clone());
        let mut references: Vec<Reference> = Vec::with_capacity(specs.len());
        let mut by_kernel = HashMap::new();
        for spec in specs {
            let own_space;
            let space = match space {
                Some(space) => space,
                None => {
                    own_space = spec.kind.config_space();
                    &own_space
                }
            };
            let tuning = tuner.tune(spec, space);
            let compiled = pipeline.compile(spec, &tuning.best);
            let program = compiled
                .cubin
                .kernel_program(&compiled.name)
                .expect("the pipeline names the kernel it compiled");
            let run = reference_run(gpu, &program, &compiled.launch);
            let reference = Reference {
                spec: *spec,
                compiled,
                program,
                tuned_configs: tuning.records.len(),
                baseline_us: run.runtime_us,
                digest: run.sm.output_digest,
            };
            by_kernel.insert(reference.compiled.name.clone(), references.len());
            references.push(reference);
        }
        Verifier {
            gpu: gpu.clone(),
            references,
            by_kernel,
            seen: Mutex::new(HashMap::new()),
        }
    }

    /// The references, in spec order.
    pub fn references(&self) -> &[Reference] {
        &self.references
    }

    /// Checks one report: known kernel, verified flag set, listing parses,
    /// re-simulation is hazard-free with the reference digest, baseline and
    /// optimized runtimes match the references, and no slowdown.
    pub fn check(&self, report: &OptimizationReport) -> Result<(), String> {
        let kernel = &report.kernel;
        let &index = self
            .by_kernel
            .get(kernel)
            .ok_or_else(|| format!("{kernel}: not a kernel of this workload"))?;
        let reference = &self.references[index];
        if !report.verified {
            return Err(format!("{kernel}: the search did not verify its schedule"));
        }
        let key = (index, report.optimized_listing.clone());
        let cached = self
            .seen
            .lock()
            .expect("the map is only inserted into; a panic cannot leave it half-updated")
            .get(&key)
            .cloned();
        let resim = match cached {
            Some(resim) => resim,
            None => {
                let program: Program = report
                    .optimized_listing
                    .parse()
                    .map_err(|err| format!("{kernel}: optimized listing does not parse: {err}"))?;
                let resim = reference_run(&self.gpu, &program, &reference.compiled.launch);
                self.seen
                    .lock()
                    .expect("the map is only inserted into; a panic cannot leave it half-updated")
                    .insert(key, resim.clone());
                resim
            }
        };
        if !resim.sm.completed || resim.sm.hazards != 0 {
            return Err(format!(
                "{kernel}: re-simulation completed={} hazards={}",
                resim.sm.completed, resim.sm.hazards
            ));
        }
        if resim.sm.output_digest != reference.digest {
            return Err(format!(
                "{kernel}: output digest {:#x} differs from the reference {:#x}",
                resim.sm.output_digest, reference.digest
            ));
        }
        let close = |a: f64, b: f64| (a - b).abs() <= RUNTIME_TOLERANCE * a.abs().max(b.abs());
        if !close(report.baseline_us, reference.baseline_us) {
            return Err(format!(
                "{kernel}: reported baseline {} us, reference {} us",
                report.baseline_us, reference.baseline_us
            ));
        }
        if !close(report.optimized_us, resim.runtime_us) {
            return Err(format!(
                "{kernel}: reported optimized {} us, re-simulated {} us",
                report.optimized_us, resim.runtime_us
            ));
        }
        if resim.runtime_us > reference.baseline_us * (1.0 + RUNTIME_TOLERANCE) {
            return Err(format!(
                "{kernel}: optimized {} us is slower than the baseline {} us",
                resim.runtime_us, reference.baseline_us
            ));
        }
        Ok(())
    }
}
