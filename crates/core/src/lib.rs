//! CuAsmRL: optimizing GPU SASS schedules via deep reinforcement learning.
//!
//! This crate is the top of the reproduction stack: it implements the
//! paper's contribution — formulating SASS rescheduling as an *assembly
//! game* and solving it with PPO — on top of the [`sass`] instruction model,
//! the [`gpusim`] execution substrate, the [`kernels`] workload generators
//! and the [`nn`]/[`rl`] learning stack.
//!
//! The main entry point is [`CuAsmRl`]: give it a kernel specification and a
//! configuration space and it performs the paper's hierarchical search
//! (autotune → compile → intercept the cubin → play the assembly game →
//! write the optimized kernel section back), returning an
//! [`OptimizationReport`] and the optimized [`sass::Cubin`].
//!
//! ```no_run
//! use cuasmrl::{CuAsmRl, Strategy};
//! use gpusim::{GpuConfig, MeasureOptions};
//! use kernels::{ConfigSpace, KernelKind, KernelSpec};
//!
//! let optimizer = CuAsmRl::new(GpuConfig::a100(), Strategy::Rl(rl::PpoConfig::default()));
//! let spec = KernelSpec::paper(KernelKind::MatmulLeakyRelu);
//! let (report, cubin) = optimizer.optimize_spec(
//!     &spec,
//!     &ConfigSpace::gemm_default(),
//!     &MeasureOptions::default(),
//! );
//! println!("{}: {:.2}x speedup", report.kernel, report.speedup);
//! assert!(!cubin.kernel_names().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod analysis;
pub mod cli;
mod deploy_cache;
mod embed;
mod eval_cache;
mod game;
mod lowered;
mod optimizer;
mod stall_table;
mod suite_optimizer;
mod telemetry;

pub use action::{
    action_mask, schedule_edits, ActionSpace, Direction, EditKind, IncrementalMasker, ScheduleEdit,
};
pub use analysis::{analyze, Analysis, Resolution, ResolutionBreakdown};
pub use deploy_cache::{is_deploy_record_file, read_deploy_record, DeployKey};
pub use embed::{
    arch_features, embed_program, embed_rows_into, feature_count, ARCH_FEATURES, FIXED_FEATURES,
};
pub use eval_cache::{
    instruction_key, labels_key, program_key, schedule_key, EvalCache, EvalCacheStats,
};
pub use game::{AssemblyGame, GameConfig, Move};
pub use optimizer::{CuAsmRl, OptimizationReport, Strategy};
pub use stall_table::{
    clock_based_iadd3, dependency_based_stall, microbenchmark_table, ClockBenchResult, StallTable,
};
pub use suite_optimizer::{
    load_suite_report, persist_suite_report, suite_report_path, SuiteOptimizer, SuiteReport,
};
pub use telemetry::{
    duration_ms, load_run_manifest_checked, persist_run_manifest, telemetry_path, CacheTelemetry,
    KernelTelemetry, PhaseTimings, RunManifest, TrainingTelemetry, TELEMETRY_SCHEMA_VERSION,
};
