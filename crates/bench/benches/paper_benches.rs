//! Criterion benches over the hot paths of the reproduction: kernel
//! measurement (the reward signal), the pre-game analysis + embedding, the
//! action-mask computation, and one optimization pass per evaluated kernel
//! (the Figure 6 workload at reduced scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bench::{harness_config, harness_measure, optimize_kernel};
use cuasmrl::{action_mask, analyze, dependency_based_stall, embed_program, StallTable};
use gpusim::{measure, GpuConfig};
use kernels::{generate, KernelKind, KernelSpec, ScheduleStyle};

fn bench_reward_measurement(c: &mut Criterion) {
    let gpu = GpuConfig::a100();
    let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
    let kernel = generate(
        &spec,
        &harness_config(KernelKind::MatmulLeakyRelu),
        ScheduleStyle::Baseline,
    );
    let opts = harness_measure();
    c.bench_function("reward/measure_fused_gemm", |b| {
        b.iter(|| measure(&gpu, &kernel.program, &kernel.launch, &opts))
    });
}

fn bench_analysis_and_embedding(c: &mut Criterion) {
    let spec = KernelSpec::scaled(KernelKind::FusedFeedForward, 16);
    let kernel = generate(
        &spec,
        &harness_config(KernelKind::FusedFeedForward),
        ScheduleStyle::Baseline,
    );
    let table = StallTable::builtin_a100();
    c.bench_function("pregame/analyze", |b| {
        b.iter(|| analyze(&kernel.program, &table))
    });
    let analysis = analyze(&kernel.program, &table);
    c.bench_function("pregame/embed", |b| {
        b.iter(|| embed_program(&kernel.program, &analysis, &GpuConfig::a100().arch))
    });
    let movable = analysis.movable_memory_indices();
    c.bench_function("pregame/action_mask", |b| {
        b.iter(|| action_mask(&kernel.program, &movable, &analysis, &table))
    });
}

fn bench_table1_microbenchmark(c: &mut Criterion) {
    let gpu = GpuConfig::a100();
    c.bench_function("table1/dependency_microbench_iadd3", |b| {
        b.iter(|| dependency_based_stall(&gpu, "IADD3"))
    });
}

fn bench_fig6_optimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_optimize");
    group.sample_size(10);
    let gpu = GpuConfig::a100();
    for kind in [KernelKind::MatmulLeakyRelu, KernelKind::Softmax] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| b.iter(|| optimize_kernel(&gpu, kind, 16, 6)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_reward_measurement,
    bench_analysis_and_embedding,
    bench_table1_microbenchmark,
    bench_fig6_optimization
);
criterion_main!(benches);
