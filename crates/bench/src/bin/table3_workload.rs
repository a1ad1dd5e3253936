//! Table 3 and Figures 10/11: Nsight-style compute/memory workload analysis
//! and memory chart of the fused GEMM + LeakyReLU kernel, for the CuAsmRL
//! and Triton schedules. `--arch` selects the simulated device.

use bench::{harness_config, HarnessArgs, DEFAULT_SCALE};
use cuasmrl::{CuAsmRl, Strategy};
use gpusim::{simulate_launch, MemoryChart, WorkloadAnalysis};
use kernels::{generate, KernelKind, KernelSpec, ScheduleStyle};

fn main() {
    let args = HarnessArgs::parse(DEFAULT_SCALE);
    let gpu = args.gpu();
    let kind = KernelKind::MatmulLeakyRelu;
    let spec = KernelSpec::scaled(kind, args.scale);
    let kernel = generate(&spec, &harness_config(kind), ScheduleStyle::Baseline);

    let optimizer = CuAsmRl::new(gpu.clone(), Strategy::Greedy { max_moves: 16 });
    let report =
        optimizer.optimize_program(&kernel.name, kernel.program.clone(), kernel.launch.clone());
    let optimized: sass::Program = report.optimized_listing.parse().unwrap();

    let triton_run = simulate_launch(&gpu, &kernel.program, &kernel.launch);
    let cuasmrl_run = simulate_launch(&gpu, &optimized, &kernel.launch);
    let triton = WorkloadAnalysis::from_run(&gpu, &triton_run);
    let cuasmrl = WorkloadAnalysis::from_run(&gpu, &cuasmrl_run);

    println!(
        "Table 3 — compute and memory workload analysis (fused GEMM + LeakyReLU){}",
        args.selection_suffix()
    );
    println!("{:<36} {:>10} {:>10}", "metric", "CuAsmRL", "Triton");
    let row = |name: &str, a: f64, b: f64| println!("{name:<36} {a:>10.2} {b:>10.2}");
    row(
        "Executed Ipc Active (inst/cycle)",
        cuasmrl.ipc_active,
        triton.ipc_active,
    );
    row(
        "Executed Ipc Elapsed (inst/cycle)",
        cuasmrl.ipc_elapsed,
        triton.ipc_elapsed,
    );
    row("SM Busy (%)", cuasmrl.sm_busy_pct, triton.sm_busy_pct);
    row(
        "Memory Throughput (GB/s)",
        cuasmrl.memory_throughput_gbs,
        triton.memory_throughput_gbs,
    );
    row("Mem Busy (%)", cuasmrl.mem_busy_pct, triton.mem_busy_pct);
    row(
        "Max Bandwidth (%)",
        cuasmrl.max_bandwidth_pct,
        triton.max_bandwidth_pct,
    );

    println!("\nFigures 10/11 — memory chart (global -> shared asynchronous copy path)");
    let chart_c = MemoryChart::from_run(&cuasmrl_run);
    let chart_t = MemoryChart::from_run(&triton_run);
    println!("{:<36} {:>10} {:>10}", "metric", "CuAsmRL", "Triton");
    row(
        "global->shared throughput (GB/s)",
        chart_c.global_to_shared_gbs,
        chart_t.global_to_shared_gbs,
    );
    row(
        "L1 hit rate (%)",
        chart_c.l1_hit_rate_pct,
        chart_t.l1_hit_rate_pct,
    );
    row(
        "L2 hit rate (%)",
        chart_c.l2_hit_rate_pct,
        chart_t.l2_hit_rate_pct,
    );
    println!(
        "\nruntime: Triton {:.2} us, CuAsmRL {:.2} us ({:.2}x)",
        report.baseline_us, report.optimized_us, report.speedup
    );
}
