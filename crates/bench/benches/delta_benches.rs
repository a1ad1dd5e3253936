//! Criterion benches over the incremental hot paths added by the delta
//! engine: `sim_delta_vs_full` times one legal-swap evaluation through
//! [`gpusim::DeltaEngine::simulate_delta`] against the equivalent full
//! [`gpusim::SmSimulator::run_compiled`] (plus the baseline recording both
//! share), and `mask_incremental` times the block-local edit-table update
//! of [`cuasmrl::IncrementalMasker`] against a from-scratch
//! [`cuasmrl::schedule_edits`]. Both run once under `cargo bench -- --test`
//! (the CI smoke).

use criterion::{criterion_group, criterion_main, Criterion};

use bench::harness_config;
use cuasmrl::{analyze, schedule_edits, ActionSpace, IncrementalMasker, ScheduleEdit, StallTable};
use gpusim::{CompiledProgram, DeltaEngine, GpuConfig, SmSimulator};
use kernels::{generate, GeneratedKernel, KernelKind, KernelSpec, ScheduleStyle};

fn bench_kernel() -> GeneratedKernel {
    let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
    generate(
        &spec,
        &harness_config(KernelKind::MatmulLeakyRelu),
        ScheduleStyle::Baseline,
    )
}

const SPACE: ActionSpace = ActionSpace::AdjacentSwap;

/// The first masked-legal swap of the kernel (what the game's inner loop
/// evaluates).
fn first_legal_swap(kernel: &GeneratedKernel, table: &StallTable) -> ScheduleEdit {
    let analysis = analyze(&kernel.program, table);
    let movable = analysis.movable_memory_indices();
    schedule_edits(&kernel.program, &movable, &analysis, table, SPACE)
        .into_iter()
        .flatten()
        .next()
        .expect("bench kernel must expose a legal action")
}

fn bench_sim_delta_vs_full(c: &mut Criterion) {
    let gpu = GpuConfig::a100();
    let kernel = bench_kernel();
    let table = StallTable::for_arch(&gpu.arch);
    let upper = first_legal_swap(&kernel, &table).index();
    let compiled = CompiledProgram::compile(&kernel.program, &gpu);
    let mut mutated = compiled.clone();
    mutated.swap_insts(upper, upper + 1);

    let mut engine = DeltaEngine::for_launch(gpu.clone(), &kernel.launch);
    let baseline = engine.record_baseline(&compiled);
    c.bench_function("sim_delta_vs_full/delta_swap", |b| {
        b.iter(|| engine.simulate_delta(&baseline, &mutated, &[upper, upper + 1]))
    });
    let simulator = SmSimulator::new(gpu.clone());
    let warps = gpusim::resident_warps(&gpu, &kernel.launch);
    let constants = kernel.launch.constant_bank();
    c.bench_function("sim_delta_vs_full/full_swap", |b| {
        b.iter(|| simulator.run_compiled(&mutated, warps, 0, &constants, kernel.launch.max_cycles))
    });
    c.bench_function("sim_delta_vs_full/record_baseline", |b| {
        b.iter(|| {
            let recorded = engine.record_baseline(&compiled);
            engine.recycle_baseline(recorded);
        })
    });
}

fn bench_mask_incremental(c: &mut Criterion) {
    let kernel = bench_kernel();
    let table = StallTable::builtin_a100();
    let edit = first_legal_swap(&kernel, &table);
    let mut swapped = kernel.program.clone();
    assert!(edit.apply(&mut swapped), "legal swap applies");
    let analysis = analyze(&kernel.program, &table);
    let movable = analysis.movable_memory_indices();
    let edits = schedule_edits(&kernel.program, &movable, &analysis, &table, SPACE);
    let swapped_analysis = analyze(&swapped, &table);
    let swapped_movable = swapped_analysis.movable_memory_indices();
    let masker = IncrementalMasker::new(&kernel.program, &analysis, &table);

    c.bench_function("mask_incremental/incremental_update", |b| {
        b.iter(|| {
            let mut updated = masker.clone();
            updated.apply_edit(&edit);
            updated.edits_after_edit(
                &edit,
                &swapped_movable,
                &swapped_analysis,
                SPACE,
                &movable,
                &edits,
            )
        })
    });
    c.bench_function("mask_incremental/full_recompute", |b| {
        b.iter(|| schedule_edits(&swapped, &swapped_movable, &swapped_analysis, &table, SPACE))
    });
}

criterion_group!(benches, bench_sim_delta_vs_full, bench_mask_incremental);
criterion_main!(benches);
