//! Two equivalences, both bit for bit. `gpusim`'s delta engine — a library
//! module the repo benchmark still probes — equals full simulation on every
//! built-in architecture profile across arbitrary adjacent-swap sequences
//! (including hazard-introducing ones the mask would have rejected). And
//! the assembly game's reward path — simulating its incrementally lowered
//! schedule — equals `gpusim::measure` of the printed listing, in both
//! action spaces, on every profile, through episode resets and state
//! restores.

use cuasmrl::{
    action_mask, analyze, schedule_edits, ActionSpace, AssemblyGame, EditKind, GameConfig,
    StallTable,
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

    /// Masked-legal random walks through a real game, for each action space
    /// (`Rich` exercises in-place re-lowering) on each architecture profile
    /// (per-arch lowering), with an episode reset and a `state_bytes` →
    /// `restore_state` round trip mid-walk: every measurement the reward
    /// path put into the eval cache equals `gpusim::measure` of the printed
    /// listing, so the shared cache stays transparent.
    #[test]
    fn game_measurements_match_full_measure_on_legal_walks(seed in 0u64..1000) {
        let (program, launch) = small_kernel();
        for gpu in arch_profiles() {
            let table = StallTable::for_arch(&gpu.arch);
            for space in [ActionSpace::AdjacentSwap, ActionSpace::Rich] {
                let new_game = || AssemblyGame::new(
                    gpu.clone(),
                    program.clone(),
                    launch.clone(),
                    table.clone(),
                    GameConfig {
                        episode_length: 8,
                        measure: measure_options(),
                        action_space: space,
                    },
                );
                let mut game = new_game();
                let _ = game.reset();
                // The game's schedule, mirrored on the source listing by
                // resolving each action id from scratch.
                let mut reference = program.clone();
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let mut simulated = 0;
                for step in 0..9 {
                    match step {
                        3 => {
                            let _ = game.reset();
                            reference = program.clone();
                        }
                        6 => {
                            // Continue on a fresh game that adopted the
                            // walked one's state (and re-lowered it).
                            let state = game.state_bytes().expect("games snapshot");
                            game = new_game();
                            prop_assert!(game.restore_state(&state));
                        }
                        _ => {}
                    }
                    let mask = game.action_mask();
                    let legal: Vec<usize> = (0..mask.len()).filter(|&id| mask[id]).collect();
                    if legal.is_empty() {
                        break;
                    }
                    let action_id = legal[rng.gen_range(0..legal.len())];
                    let analysis = analyze(&reference, &table);
                    let movable = analysis.movable_memory_indices();
                    let edit = schedule_edits(&reference, &movable, &analysis, &table, space)
                        [action_id]
                        .expect("the game's mask equals the from-scratch edit table");
                    let misses = game.eval_cache().stats().misses;
                    let moves = game.trace().len();
                    prop_assert!(game.step(action_id).reward.is_finite());
                    prop_assert_eq!(game.trace().len(), moves + 1, "a legal edit was reverted");
                    prop_assert!(edit.apply(&mut reference), "{:?}", edit);
                    simulated += game.eval_cache().stats().misses - misses;
                    let printed: Program = reference.to_string().parse().unwrap();
                    let full = measure(&gpu, &printed, &launch, &measure_options());
                    let misses = game.eval_cache().stats().misses;
                    let cached = game.cached_measurement(&reference);
                    prop_assert_eq!(
                        game.eval_cache().stats().misses,
                        misses,
                        "the reward path must have cached the schedule it priced"
                    );
                    prop_assert_eq!(&cached, &full, "arch {} {:?} step {}", gpu.name, space, step);
                }
                prop_assert!(simulated > 0, "arch {} {:?}: nothing simulated", gpu.name, space);
            }
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

/// Sharing one eval cache across clones of a game cannot change a single
/// observable value: a warmed game's clone, answering from the cache it
/// shares, steps bit-identically to a fresh game simulating everything
/// itself.
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
    let mut warm = AssemblyGame::new(
        gpu.clone(),
        program.clone(),
        launch.clone(),
        table.clone(),
        config.clone(),
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
    let mut cached_game = warm.clone();
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

/// Reward-path measurements populate the game's cache with the values
/// `gpusim::measure` computes from source: after a game ran, its
/// `cached_measurement` of every schedule it visited is a hit, and equals
/// the `measure` value of the printed listing.
#[test]
fn delta_populated_cache_entries_equal_full_measurements() {
    let (program, launch) = small_kernel();
    let gpu = GpuConfig::small();
    let table = StallTable::builtin_a100();
    let mut game = AssemblyGame::new(
        gpu.clone(),
        program.clone(),
        launch.clone(),
        table,
        GameConfig {
            episode_length: 6,
            measure: measure_options(),
            ..GameConfig::default()
        },
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
    let misses = game.eval_cache().stats().misses;
    assert!(misses > 1, "the game must have simulated");
    for schedule in &schedules {
        let cached: Measurement = game.cached_measurement(schedule);
        assert_eq!(
            game.eval_cache().stats().misses,
            misses,
            "schedule must already be cached"
        );
        assert_eq!(cached, measure(&gpu, schedule, &launch, &measure_options()));
    }
}
