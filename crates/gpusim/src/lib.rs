//! A deterministic, cycle-level simulator of an NVIDIA streaming
//! multiprocessor, used as the execution substrate of the CuAsmRL
//! reproduction.
//!
//! The paper obtains its reward signal by running candidate SASS schedules
//! on a real A100 GPU. This crate replaces that hardware with a simulator
//! that models the first-order mechanisms the paper's optimizations exploit:
//!
//! * warp scheduling and thread-level parallelism,
//! * scoreboard wait barriers and stall-count hazards of the SASS control
//!   codes,
//! * a memory hierarchy (L1/L2/DRAM, shared memory, asynchronous `LDGSTS`
//!   copies) whose latencies make interleaving loads with compute pay off,
//! * register-bank conflicts and the operand-reuse cache (`.reuse` flag),
//! * Nsight-Compute-style performance counters.
//!
//! Functional execution is precise for integer/address arithmetic and memory
//! operations and deterministic (value-mixing) for floating-point/tensor
//! instructions, so an incorrectly reordered schedule produces observably
//! wrong outputs — exactly what the paper's probabilistic testing checks.
//!
//! The microarchitecture is **pluggable**: every per-SM parameter (opcode
//! latency tables, issue/stall rules, register-bank model, scoreboard
//! semantics, SM resource limits) lives in an [`ArchSpec`] carried by the
//! [`GpuConfig`], with built-in Ampere-, Turing- and Hopper-like profiles
//! selected by name ([`GpuConfig::by_name`]). The Ampere profile reproduces
//! the original hard-coded simulator bit for bit.
//!
//! # Example
//!
//! ```
//! use gpusim::{GpuConfig, LaunchConfig, simulate_launch};
//!
//! let program: sass::Program = "\
//! [B------:R-:W-:-:S04] MOV R4, 0x1000 ;
//! [B------:R-:W0:-:S02] LDG.E R2, [R4] ;
//! [B0-----:R-:W-:-:S04] IADD3 R6, R2, 0x1, RZ ;
//! [B------:R-:W-:-:S04] STG.E [R4], R6 ;
//! [B------:R-:W-:-:S05] EXIT ;".parse()?;
//! let run = simulate_launch(&GpuConfig::a100(), &program, &LaunchConfig::default());
//! assert!(run.sm.hazards == 0);
//! assert!(run.runtime_us > 0.0);
//! # Ok::<(), sass::SassError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod compiled;
mod config;
mod counters;
mod delta;
mod exec;
mod launch;
mod memory;
mod regfile;
mod sm;

pub use arch::{ArchSpec, BankModel};
pub use compiled::CompiledProgram;
pub use config::{CacheConfig, GpuConfig, LatencyModel};
pub use counters::{MemoryChart, WorkloadAnalysis};
pub use delta::{DeltaBaseline, DeltaConfig, DeltaEngine, DeltaOutcome};
pub use exec::{execute, ConstantBank, ExecContext, MemAccess, Outcome};
pub use launch::{
    argmin_horizon, kernel_run_from_report, measure, measure_until, measurement_from_run,
    resident_warps, simulate_launch, KernelRun, LaunchConfig, MeasureOptions, Measurement,
};
pub use memory::{default_global_word, splitmix64, MemCounters, MemorySubsystem, ServicePoint};
pub use regfile::{RegisterFile, ReuseCache, StaleRead};
pub use sm::{SimOutput, SimWork, SmReport, SmSimulator};
