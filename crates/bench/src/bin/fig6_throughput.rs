//! Figure 6: overall kernel throughput of CuAsmRL vs Triton vs the
//! PyTorch / reference-library / Cutlass baselines, normalized to Triton = 1.
//!
//! The CuAsmRL column is produced by the parallel [`cuasmrl::SuiteOptimizer`]
//! driver: one hierarchical search per kernel, sharded across `--jobs`
//! worker threads, at the one search budget `bench_report` gates. Every run
//! asserts that each kernel verified and that the suite never got slower.
//! `--arch` selects the GPU architecture backend (`ampere` default,
//! `turing`, `hopper`) and `--suite` the workload-registry suite (`table2`
//! default, `attention`, `reduction`); the default selection reproduces the
//! paper's single-architecture figure byte for byte.
//!
//! ```text
//! cargo run --release --bin fig6_throughput -- \
//!     [--scale N] [--jobs N] [--arch NAME] [--suite NAME] [--report-dir DIR]
//! ```

use bench::{harness_config, harness_measure, suite_driver, HarnessArgs, DEFAULT_SCALE};
use kernels::{baseline_runtime_us, generate, BaselineSystem, ScheduleStyle};

fn main() {
    let args = HarnessArgs::parse(DEFAULT_SCALE);
    let gpu = args.gpu();
    let workload = args.workload();
    let opts = harness_measure();
    println!(
        "Figure 6 — normalized kernel throughput (Triton = 1.00), scale=1/{}, jobs={}{}",
        args.scale,
        args.jobs,
        args.selection_suffix(),
    );

    // Optimize the whole suite through the parallel driver first; the table
    // below is then pure measurement and formatting.
    let driver = suite_driver(&args);
    let suite = driver.optimize_workload(&workload, args.scale);
    assert_eq!(suite.reports.len(), workload.entries.len());

    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "kernel", "Torch", "Triton", "CuAsmRL", "Ref", "Cutlass"
    );
    for (entry, report) in workload.entries.iter().zip(&suite.reports) {
        assert!(
            report.verified,
            "{} failed probabilistic verification",
            entry.label
        );
        let spec = entry.spec(args.scale);
        let config = harness_config(entry.kind);
        let triton = generate(&spec, &config, ScheduleStyle::Baseline);
        let triton_us = gpusim::measure(&gpu, &triton.program, &triton.launch, &opts).mean_us;
        let cuasmrl_us = triton_us * report.optimized_us / report.baseline_us;
        let torch = baseline_runtime_us(&gpu, &spec, &config, BaselineSystem::Torch, &opts);
        let reference = baseline_runtime_us(&gpu, &spec, &config, BaselineSystem::Reference, &opts);
        let cutlass = baseline_runtime_us(&gpu, &spec, &config, BaselineSystem::Cutlass, &opts);
        let norm =
            |us: Option<f64>| us.map_or("-".to_string(), |u| format!("{:.2}", triton_us / u));
        println!(
            "{:<16} {:>8} {:>8.2} {:>8.2} {:>8} {:>9}",
            entry.label,
            norm(torch),
            1.0,
            triton_us / cuasmrl_us,
            norm(reference),
            norm(cutlass),
        );
    }
    println!(
        "geometric-mean CuAsmRL speedup over Triton: {:.3}x (paper: 1.09x)",
        suite.geomean_speedup
    );
    if let Some(dir) = &args.report_dir {
        println!(
            "artifacts: suite report and telemetry manifest written under {}",
            dir.display()
        );
    }
    assert_eq!(
        suite.verified,
        suite.reports.len(),
        "the run must verify every kernel"
    );
    assert!(
        suite.geomean_speedup >= 1.0,
        "the run must never regress the suite"
    );
    println!("check passed: parallel driver verified the full suite");
}
