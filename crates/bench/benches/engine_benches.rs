//! Criterion benches over [`gpusim::SmSimulator::run_compiled`] — the kernel
//! execution under every autotune candidate and every reward — on the three
//! shapes whose cost the event-driven `CycleEngine` splits differently:
//!
//! * `idle_gemm`: a fused-GEMM autotune candidate with four resident warps
//!   that issues in about a third of its cycles; idle-stretch jumps carry it.
//! * `rowwise`: a softmax candidate with 32 resident warps, most of them due
//!   every cycle; the per-warp wake compare and the eligibility evaluation
//!   carry it, jumps barely matter.
//! * `attention_stage`: the longest flash-attention candidate of the
//!   `attention` suite on Hopper, whose pipeline stages are separated by
//!   `BAR.SYNC`; the event-triggered barrier release and the scoreboard
//!   deadlines carry it. (No registry kernel emits `DEPBAR`; the
//!   `engine_differential` proptest in `gpusim` covers it.)
//!
//! All run once under `cargo bench -- --test` (the CI smoke).

use criterion::{criterion_group, criterion_main, Criterion};

use gpusim::{CompiledProgram, GpuConfig, SmSimulator};
use kernels::{generate, KernelConfig, ScheduleStyle};

/// The autotune candidate `label` of `suite` (at the repo benchmark's scale
/// 8) under `config`, lowered for `arch`, and what it takes to run it.
fn candidate(
    arch: &str,
    suite: &str,
    label: &str,
    config: KernelConfig,
) -> (
    SmSimulator,
    CompiledProgram,
    usize,
    gpusim::ConstantBank,
    u64,
) {
    let gpu = GpuConfig::by_name(arch).expect("built-in profile");
    let suite = kernels::find_suite(suite).expect("registry suite");
    let entry = suite
        .entries
        .iter()
        .find(|entry| entry.label == label)
        .expect("suite kernel");
    let kernel = generate(&entry.spec(8), &config, ScheduleStyle::Baseline);
    let compiled = CompiledProgram::compile(&kernel.program, &gpu);
    let warps = gpusim::resident_warps(&gpu, &kernel.launch);
    (
        SmSimulator::new(gpu),
        compiled,
        warps,
        kernel.launch.constant_bank(),
        kernel.launch.max_cycles,
    )
}

fn bench_run_compiled(c: &mut Criterion) {
    let gemm = |block_m, block_n, block_k, num_warps| KernelConfig {
        block_m,
        block_n,
        block_k,
        num_warps,
        num_stages: 2,
    };
    let shapes = [
        (
            "engine/idle_gemm",
            candidate("ampere", "table2", "mmLeakyReLu", gemm(32, 128, 32, 4)),
        ),
        (
            "engine/rowwise",
            candidate(
                "ampere",
                "table2",
                "softmax",
                KernelConfig {
                    block_m: 1,
                    block_n: 256,
                    block_k: 1,
                    num_warps: 8,
                    num_stages: 1,
                },
            ),
        ),
        (
            "engine/attention_stage",
            candidate("hopper", "attention", "attn-s4096-h4", gemm(128, 32, 64, 4)),
        ),
    ];
    for (name, (simulator, compiled, warps, constants, max_cycles)) in &shapes {
        c.bench_function(name, |b| {
            b.iter(|| simulator.run_compiled(compiled, *warps, 0, constants, *max_cycles))
        });
    }
}

criterion_group!(benches, bench_run_compiled);
criterion_main!(benches);
