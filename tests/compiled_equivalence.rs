//! Differential test of the precompiled-IR fast path: for real generated
//! kernels, the compiled interpreter ([`gpusim::SmSimulator::run`]) must be
//! bit-identical to the instruction-at-a-time reference interpreter
//! ([`gpusim::SmSimulator::run_reference`]) — same reports, same memory
//! image — across kernel kinds, schedule styles and warp counts.

use gpusim::{GpuConfig, SmSimulator};
use kernels::{generate, KernelConfig, KernelKind, KernelSpec, ScheduleStyle};

#[test]
fn compiled_interpreter_matches_reference_on_generated_kernels() {
    let simulator = SmSimulator::new(GpuConfig::small());
    for kind in KernelKind::all() {
        let spec = KernelSpec::scaled(kind, 32);
        let config = if kind.is_compute_bound() {
            KernelConfig {
                block_m: 32,
                block_n: 32,
                block_k: 32,
                num_warps: 4,
                num_stages: 2,
            }
        } else {
            KernelConfig {
                block_m: 1,
                block_n: 256,
                block_k: 1,
                num_warps: 4,
                num_stages: 1,
            }
        };
        for style in [ScheduleStyle::Baseline, ScheduleStyle::Expert] {
            let kernel = generate(&spec, &config, style);
            let constants = kernel.launch.constant_bank();
            for warps in [1usize, 4] {
                let fast = simulator.run(&kernel.program, warps, 0, &constants, 2_000_000);
                let reference =
                    simulator.run_reference(&kernel.program, warps, 0, &constants, 2_000_000);
                assert_eq!(
                    fast.report, reference.report,
                    "{kind:?} {style:?} warps={warps}: reports must be bit-identical"
                );
                assert_eq!(
                    fast.memory.global_digest(),
                    reference.memory.global_digest(),
                    "{kind:?} {style:?} warps={warps}: memory must be bit-identical"
                );
            }
        }
    }
}

#[test]
fn compiled_interpreter_matches_reference_after_masked_moves() {
    // The fast path must stay equivalent on *mutated* schedules too — the
    // states the assembly game actually measures.
    use cuasmrl::{action_mask, analyze, ActionSpace, EditKind, StallTable};

    let kernel = generate(
        &KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 32),
        &KernelConfig {
            block_m: 32,
            block_n: 32,
            block_k: 32,
            num_warps: 4,
            num_stages: 2,
        },
        ScheduleStyle::Baseline,
    );
    let simulator = SmSimulator::new(GpuConfig::small());
    let table = StallTable::builtin_a100();
    let constants = kernel.launch.constant_bank();
    let mut program = kernel.program.clone();
    let mut rng_state = 5u64;
    let mut next_index = move |n: usize| {
        rng_state = gpusim::splitmix64(rng_state);
        (rng_state % n as u64) as usize
    };
    for round in 0..8 {
        let analysis = analyze(&program, &table);
        let movable = analysis.movable_memory_indices();
        let mask = action_mask(&program, &movable, &analysis, &table);
        let legal: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(i))
            .collect();
        if legal.is_empty() {
            break;
        }
        let (slot, kind) = ActionSpace::AdjacentSwap.decode(legal[next_index(legal.len())]);
        let index = movable[slot];
        let (a, b) = match kind {
            EditKind::SwapUp => (index - 1, index),
            _ => (index, index + 1),
        };
        program.swap_instructions(a, b).unwrap();

        let fast = simulator.run(&program, 4, 0, &constants, 2_000_000);
        let reference = simulator.run_reference(&program, 4, 0, &constants, 2_000_000);
        assert_eq!(fast.report, reference.report, "round {round}");
        assert_eq!(
            fast.memory.global_digest(),
            reference.memory.global_digest(),
            "round {round}"
        );
    }
}
