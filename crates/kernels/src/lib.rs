//! Synthetic LLM kernel workloads for the CuAsmRL reproduction.
//!
//! The paper evaluates CuAsmRL on six specialized Triton kernels for large
//! language models (Table 2). This crate provides:
//!
//! * [`KernelKind`] / [`KernelSpec`] — the evaluated kernel suite and its
//!   problem shapes,
//! * [`WorkloadSuite`] / [`find_suite`] — the workload registry: named,
//!   declarative kernel suites (the Table-2 default plus attention- and
//!   reduction-style families) selected with `--suite`,
//! * [`KernelConfig`] / [`ConfigSpace`] — tile configurations and the
//!   autotuning search space,
//! * [`generate`] — SASS generators that stand in for `ptxas -O3` applied to
//!   Triton-emitted PTX, producing valid schedules with the realistic
//!   inefficiencies the paper's RL agent learns to remove,
//! * [`TritonPipeline`] / [`Autotuner`] — the Triton-like compilation
//!   pipeline and the grid-search autotuner of §3.1,
//! * [`BaselineSystem`] — the PyTorch / cuBLAS / FlashAttention-2 / Cutlass
//!   comparison points of Figure 6,
//! * [`PtxBlock`] — the miniature PTX model used to reproduce the §5.6
//!   PTX-vs-SASS comparison.
//!
//! # Example
//!
//! ```
//! use kernels::{generate, KernelConfig, KernelKind, KernelSpec, ScheduleStyle};
//!
//! let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
//! let kernel = generate(&spec, &KernelConfig::default_compute(), ScheduleStyle::Baseline);
//! assert!(kernel.program.memory_instruction_indices().len() > 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod config;
mod generator;
mod ptx;
mod reference;
mod registry;
mod suite;
mod triton;

pub use builder::{cc, ScheduleBuilder};
pub use config::{ConfigSpace, KernelConfig};
pub use generator::{
    generate, kernel_name, GeneratedKernel, ScheduleStyle, PARAM_A, PARAM_B, PARAM_OUT,
    PARAM_SCALAR,
};
pub use ptx::{PtxBlock, PtxInstr};
pub use reference::{baseline_runtime_us, elementwise_pass_runtime_us, BaselineSystem};
pub use registry::{find_suite, suite_names, workload_suites, SuiteEntry, WorkloadSuite};
pub use suite::{KernelKind, KernelSpec, ProblemShape};
pub use triton::{Autotuner, CompiledKernel, TritonPipeline, TuningRecord, TuningResult};
