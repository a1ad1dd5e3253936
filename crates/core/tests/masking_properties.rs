//! Property-based test of the central safety invariant: any action admitted
//! by the mask keeps the simulated execution hazard-free and preserves the
//! kernel's outputs.

use cuasmrl::{action_mask, analyze, ActionSpace, EditKind, StallTable};
use gpusim::{simulate_launch, GpuConfig};
use kernels::{generate, KernelConfig, KernelKind, KernelSpec, ScheduleStyle};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Random walks through the masked action space never corrupt the kernel.
    #[test]
    fn masked_random_walks_preserve_correctness(seed in 0u64..1000) {
        let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
        let config = KernelConfig {
            block_m: 32,
            block_n: 32,
            block_k: 32,
            num_warps: 4,
            num_stages: 2,
        };
        let kernel = generate(&spec, &config, ScheduleStyle::Baseline);
        let gpu = GpuConfig::small();
        let table = StallTable::builtin_a100();
        let baseline = simulate_launch(&gpu, &kernel.program, &kernel.launch);
        let mut program = kernel.program.clone();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..6 {
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
            let id = legal[rng.gen_range(0..legal.len())];
            let (slot, kind) = ActionSpace::AdjacentSwap.decode(id);
            let index = movable[slot];
            let (a, b) = match kind {
                EditKind::SwapUp => (index - 1, index),
                _ => (index, index + 1),
            };
            program.swap_instructions(a, b).unwrap();
        }
        let run = simulate_launch(&gpu, &program, &kernel.launch);
        prop_assert_eq!(run.sm.hazards, 0);
        prop_assert_eq!(run.sm.output_digest, baseline.sm.output_digest);
    }

    /// Along random walks over each action space's edit set (adjacent swaps
    /// only; then swaps, block moves, reuse toggles, stall retunes and
    /// barrier edits), updating a retained masker with
    /// [`cuasmrl::IncrementalMasker::apply_edit`] and re-resolving only the
    /// affected block yields exactly the edit table a from-scratch
    /// [`cuasmrl::schedule_edits`] produces — the equivalence the game's
    /// incremental refresh path rests on.
    #[test]
    fn incremental_edit_updates_equal_full_recomputation(seed in 0u64..1000) {
        use cuasmrl::{schedule_edits, ActionSpace, IncrementalMasker};
        let spec = KernelSpec::scaled(KernelKind::FusedFeedForward, 16);
        let config = KernelConfig {
            block_m: 32,
            block_n: 32,
            block_k: 32,
            num_warps: 4,
            num_stages: 2,
        };
        let kernel = generate(&spec, &config, ScheduleStyle::Baseline);
        let table = StallTable::builtin_a100();
        for space in [ActionSpace::AdjacentSwap, ActionSpace::Rich] {
            let mut program = kernel.program.clone();
            let mut analysis = analyze(&program, &table);
            let mut movable = analysis.movable_memory_indices();
            let mut masker = IncrementalMasker::new(&program, &analysis, &table);
            let mut edits = masker.full_edits(&movable, &analysis, space);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..8 {
                let legal: Vec<cuasmrl::ScheduleEdit> =
                    edits.iter().copied().flatten().collect();
                if legal.is_empty() {
                    break;
                }
                let edit = legal[rng.gen_range(0..legal.len())];
                prop_assert!(edit.apply(&mut program), "{:?}", edit);
                let next_analysis = analyze(&program, &table);
                let next_movable = next_analysis.movable_memory_indices();
                prop_assert!(
                    masker.edit_stays_incremental(&edit),
                    "legal edits stay within one fence-free block: {:?}",
                    edit
                );
                // Same guards the game's refresh path checks before going
                // incremental: unchanged inferred stalls and an
                // index-relabelled denylist.
                let guards_hold = next_analysis.stalls == analysis.stalls
                    && next_analysis.denylist.len() == analysis.denylist.len()
                    && next_analysis
                        .denylist
                        .iter()
                        .all(|&i| analysis.denylist.contains(&edit.old_position_of(i)));
                let full = schedule_edits(&program, &next_movable, &next_analysis, &table, space);
                if guards_hold {
                    masker.apply_edit(&edit);
                    let incremental = masker.edits_after_edit(
                        &edit,
                        &next_movable,
                        &next_analysis,
                        space,
                        &movable,
                        &edits,
                    );
                    prop_assert_eq!(&incremental, &full, "{:?} after {:?}", space, edit);
                } else {
                    masker = IncrementalMasker::new(&program, &next_analysis, &table);
                }
                analysis = next_analysis;
                movable = next_movable;
                edits = full;
            }
            let _ = analysis;
        }
    }
}
