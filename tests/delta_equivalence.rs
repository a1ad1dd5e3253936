//! The delta engine's core contract: incremental re-simulation is
//! **bit-identical to full simulation by construction**, on every built-in
//! architecture profile, across random mutation sequences — both
//! masked-legal swaps (what the assembly game evaluates) and arbitrary
//! adjacent swaps (including hazard-introducing ones the mask would have
//! rejected).

use std::sync::Arc;

use cuasmrl::{
    action_mask, analyze, ActionSpace, AssemblyGame, EditKind, EvalCache, GameConfig, StallTable,
};
use gpusim::{
    measure, CompiledProgram, DeltaEngine, GpuConfig, LaunchConfig, MeasureOptions, Measurement,
};
use kernels::{generate, KernelConfig, KernelKind, KernelSpec, ScheduleStyle};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rl::Env;
use sass::Program;

fn measure_options() -> MeasureOptions {
    MeasureOptions {
        warmup: 0,
        repeats: 3,
        noise_std: 0.0,
        seed: 0,
    }
}

fn small_kernel() -> (Program, LaunchConfig) {
    let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
    let config = KernelConfig {
        block_m: 32,
        block_n: 32,
        block_k: 32,
        num_warps: 4,
        num_stages: 2,
    };
    let kernel = generate(&spec, &config, ScheduleStyle::Baseline);
    (kernel.program, kernel.launch)
}

fn arch_profiles() -> Vec<GpuConfig> {
    ["ampere", "turing", "hopper"]
        .iter()
        .map(|name| GpuConfig::by_name(name).expect("built-in profile"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary adjacent-swap sequences — legal or not — evaluated through
    /// the delta engine match a from-scratch full simulation bit for bit on
    /// every architecture profile. Each step of the walk diffs the *whole*
    /// accumulated mutation set against the recorded baseline (exactly what
    /// a game episode without re-baselining does).
    #[test]
    fn random_mutation_walks_are_bit_identical_across_profiles(seed in 0u64..1000) {
        let (program, launch) = small_kernel();
        for gpu in arch_profiles() {
            let compiled = CompiledProgram::compile(&program, &gpu);
            let mut engine = DeltaEngine::for_launch(gpu.clone(), &launch);
            let baseline = engine.record_baseline(&compiled);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut mutated_program = program.clone();
            let mut mutated = compiled.clone();
            let mut changed: Vec<usize> = Vec::new();
            for _ in 0..5 {
                let upper = rng.gen_range(0..compiled.len() - 1);
                mutated_program.swap_instructions(upper, upper + 1).unwrap();
                mutated.swap_insts(upper, upper + 1);
                for index in [upper, upper + 1] {
                    if let Err(at) = changed.binary_search(&index) {
                        changed.insert(at, index);
                    }
                }
                // `changed` conservatively over-approximates the diff (an
                // index swapped back still counts) — allowed by contract.
                let (report, _) = engine.simulate_delta(&baseline, &mutated, &changed);
                let full = gpusim::SmSimulator::new(gpu.clone()).run_compiled(
                    &mutated,
                    gpusim::resident_warps(&gpu, &launch),
                    0,
                    &launch.constant_bank(),
                    launch.max_cycles,
                );
                prop_assert_eq!(report, full.report, "arch {}", gpu.name);
            }
        }
    }

    /// Masked-legal random walks through a real game: every reward-path
    /// measurement the delta session produces equals `gpusim::measure` on
    /// the same schedule, bit for bit, so the shared eval cache stays
    /// transparent with delta evaluation on.
    #[test]
    fn game_measurements_match_full_measure_on_legal_walks(seed in 0u64..1000) {
        let (program, launch) = small_kernel();
        let gpu = GpuConfig::small();
        let table = StallTable::builtin_a100();
        let game_config = GameConfig {
            episode_length: 8,
            measure: measure_options(),
            ..GameConfig::default()
        };
        let mut game = AssemblyGame::new(
            gpu.clone(),
            program.clone(),
            launch.clone(),
            table.clone(),
            game_config,
        );
        let _ = game.reset();
        let mut reference = program.clone();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..6 {
            let mask = game.action_mask();
            let legal: Vec<usize> = mask
                .iter()
                .enumerate()
                .filter_map(|(i, &m)| m.then_some(i))
                .collect();
            if legal.is_empty() {
                break;
            }
            let action_id = legal[rng.gen_range(0..legal.len())];
            let (slot, kind) = ActionSpace::AdjacentSwap.decode(action_id);
            let analysis = analyze(&reference, &table);
            let movable = analysis.movable_memory_indices();
            let index = movable[slot];
            let (a, b) = match kind {
                EditKind::SwapUp => (index - 1, index),
                _ => (index, index + 1),
            };
            let step = game.step(action_id);
            // Mirror the accepted swap on the reference program (legal
            // actions are never reverted) and compare the reward the game
            // computed from its delta measurement against a from-scratch
            // measurement of the same schedule.
            reference.swap_instructions(a, b).unwrap();
            let full = measure(&gpu, &reference, &launch, &measure_options());
            let cached = game.cached_measurement(&reference);
            prop_assert_eq!(&cached, &full);
            prop_assert!(step.reward.is_finite());
        }
    }
}

/// The mask computed incrementally after each accepted swap equals the
/// from-scratch `action_mask` of the mutated schedule (the game asserts
/// nothing itself — this pins the equivalence the incremental path relies
/// on, over many random legal walks).
#[test]
fn incremental_masks_equal_full_recomputation_along_legal_walks() {
    let (program, launch) = small_kernel();
    let gpu = GpuConfig::small();
    let table = StallTable::builtin_a100();
    let mut game = AssemblyGame::new(
        gpu,
        program.clone(),
        launch,
        table.clone(),
        GameConfig {
            episode_length: 32,
            measure: measure_options(),
            ..GameConfig::default()
        },
    );
    for seed in 0..4u64 {
        let _ = game.reset();
        let mut reference = program.clone();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..8 {
            let mask = game.action_mask();
            let analysis = analyze(&reference, &table);
            let movable = analysis.movable_memory_indices();
            let mut expected = action_mask(&reference, &movable, &analysis, &table);
            expected.resize(mask.len().max(1), false);
            assert_eq!(mask, expected, "seed {seed}");
            let legal: Vec<usize> = mask
                .iter()
                .enumerate()
                .filter_map(|(i, &m)| m.then_some(i))
                .collect();
            if legal.is_empty() {
                break;
            }
            let action_id = legal[rng.gen_range(0..legal.len())];
            let (slot, kind) = ActionSpace::AdjacentSwap.decode(action_id);
            let index = movable[slot];
            let (a, b) = match kind {
                EditKind::SwapUp => (index - 1, index),
                _ => (index, index + 1),
            };
            let _ = game.step(action_id);
            reference.swap_instructions(a, b).unwrap();
        }
    }
}

/// Sharing one eval cache across games replaying the same kernel with
/// delta evaluation on cannot change a single observable value: a game
/// using a warm shared cache steps bit-identically to a game simulating
/// everything itself.
#[test]
fn shared_cache_and_fresh_cache_games_step_identically() {
    let (program, launch) = small_kernel();
    let gpu = GpuConfig::small();
    let table = StallTable::builtin_a100();
    let config = GameConfig {
        episode_length: 8,
        measure: measure_options(),
        ..GameConfig::default()
    };
    let shared = Arc::new(EvalCache::new());
    let mut warm = AssemblyGame::with_eval_cache(
        gpu.clone(),
        program.clone(),
        launch.clone(),
        table.clone(),
        config.clone(),
        Arc::clone(&shared),
    );
    // Warm the shared cache with one full episode.
    let _ = warm.reset();
    loop {
        let mask = warm.action_mask();
        let Some(action) = mask.iter().position(|&m| m) else {
            break;
        };
        if warm.step(action).done {
            break;
        }
    }
    let mut cached_game = AssemblyGame::with_eval_cache(
        gpu.clone(),
        program.clone(),
        launch.clone(),
        table.clone(),
        config.clone(),
        shared,
    );
    let mut fresh_game = AssemblyGame::new(gpu, program, launch, table, config);
    let mut obs_a = cached_game.reset();
    let mut obs_b = fresh_game.reset();
    loop {
        assert_eq!(obs_a, obs_b);
        assert_eq!(cached_game.action_mask(), fresh_game.action_mask());
        let mask = cached_game.action_mask();
        let Some(action) = mask.iter().position(|&m| m) else {
            break;
        };
        let a = cached_game.step(action);
        let b = fresh_game.step(action);
        assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        assert_eq!(a.done, b.done);
        obs_a = a.observation;
        obs_b = b.observation;
        if a.done {
            break;
        }
    }
}

/// Delta-session measurements populate the shared cache with values other
/// consumers would have computed in full: the measurement a suite-style
/// `get_or_insert_with` sees after a game ran is the `measure` value.
#[test]
fn delta_populated_cache_entries_equal_full_measurements() {
    let (program, launch) = small_kernel();
    let gpu = GpuConfig::small();
    let table = StallTable::builtin_a100();
    let cache = Arc::new(EvalCache::new());
    let mut game = AssemblyGame::with_eval_cache(
        gpu.clone(),
        program.clone(),
        launch.clone(),
        table,
        GameConfig {
            episode_length: 6,
            measure: measure_options(),
            ..GameConfig::default()
        },
        Arc::clone(&cache),
    );
    let _ = game.reset();
    let mut schedules: Vec<Program> = vec![program.clone()];
    let mut reference = program;
    for _ in 0..6 {
        let mask = game.action_mask();
        let Some(action_id) = mask.iter().position(|&m| m) else {
            break;
        };
        let (slot, kind) = ActionSpace::AdjacentSwap.decode(action_id);
        let analysis = analyze(&reference, &StallTable::builtin_a100());
        let movable = analysis.movable_memory_indices();
        let index = movable[slot];
        let (a, b) = match kind {
            EditKind::SwapUp => (index - 1, index),
            _ => (index, index + 1),
        };
        let _ = game.step(action_id);
        reference.swap_instructions(a, b).unwrap();
        schedules.push(reference.clone());
    }
    let stats = cache.stats();
    assert!(
        stats.delta_hits + stats.delta_fallbacks > 0,
        "delta engine must have run"
    );
    for schedule in &schedules {
        let key = cuasmrl::eval_key(schedule, &launch, &gpu, &measure_options());
        let cached: Measurement =
            cache.get_or_insert_with(key, || panic!("schedule must already be cached"));
        assert_eq!(cached, measure(&gpu, schedule, &launch, &measure_options()));
    }
}
