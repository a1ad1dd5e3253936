//! Integration tests of the schedule-evaluation cache: cached results must
//! be bit-identical to uncached simulation, keys must separate every
//! component of the evaluation context, and random masked move sequences
//! must observe identical rewards with or without cache sharing.

use std::sync::Arc;

use cuasmrl::{eval_key, AssemblyGame, EvalCache, GameConfig, StallTable};
use gpusim::{measure, GpuConfig, LaunchConfig, MeasureOptions};
use kernels::{generate, KernelConfig, KernelKind, KernelSpec, ScheduleStyle};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rl::Env;

fn fast_measure(seed: u64) -> MeasureOptions {
    MeasureOptions {
        warmup: 0,
        repeats: 3,
        noise_std: 0.0,
        seed,
    }
}

fn small_kernel() -> kernels::GeneratedKernel {
    let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
    let config = KernelConfig {
        block_m: 32,
        block_n: 32,
        block_k: 32,
        num_warps: 4,
        num_stages: 2,
    };
    generate(&spec, &config, ScheduleStyle::Baseline)
}

fn game_with(seed: u64, cache: Arc<EvalCache>) -> AssemblyGame {
    let kernel = small_kernel();
    AssemblyGame::with_eval_cache(
        GpuConfig::small(),
        kernel.program,
        kernel.launch,
        StallTable::builtin_a100(),
        GameConfig {
            episode_length: 8,
            measure: fast_measure(seed),
            ..GameConfig::default()
        },
        cache,
    )
}

#[test]
fn cached_kernel_run_is_bit_identical_to_uncached_across_seeds() {
    let kernel = small_kernel();
    let gpu = GpuConfig::small();
    for seed in [0u64, 1, 7, 42] {
        let options = MeasureOptions {
            noise_std: 0.002, // exercise the noisy path too
            ..fast_measure(seed)
        };
        let cache = EvalCache::new();
        let key = eval_key(&kernel.program, &kernel.launch, &gpu, &options);
        let cached = cache.get_or_insert_with(key, || {
            measure(&gpu, &kernel.program, &kernel.launch, &options)
        });
        let replayed = cache.get_or_insert_with(key, || unreachable!("must hit"));
        let uncached = measure(&gpu, &kernel.program, &kernel.launch, &options);
        // Serialized form captures every field (including the f64 runtimes
        // and the whole KernelRun) with shortest-round-trip formatting, so
        // equality here is bit-equality.
        let a = serde_json::to_string(&cached).unwrap();
        assert_eq!(a, serde_json::to_string(&replayed).unwrap(), "seed {seed}");
        assert_eq!(a, serde_json::to_string(&uncached).unwrap(), "seed {seed}");
    }
}

#[test]
fn cache_keys_separate_every_context_component() {
    let kernel = small_kernel();
    let gpu = GpuConfig::small();
    let options = fast_measure(0);
    let base = eval_key(&kernel.program, &kernel.launch, &gpu, &options);

    let mut swapped = kernel.program.clone();
    let movable = cuasmrl::analyze(&swapped, &StallTable::builtin_a100()).movable_memory_indices();
    let idx = movable[0];
    swapped.swap_instructions(idx - 1, idx).unwrap();
    assert_ne!(
        base,
        eval_key(&swapped, &kernel.launch, &gpu, &options),
        "program digest must key the cache"
    );
    assert_ne!(
        base,
        eval_key(
            &kernel.program,
            &LaunchConfig {
                warps_per_block: kernel.launch.warps_per_block + 1,
                ..kernel.launch.clone()
            },
            &gpu,
            &options
        ),
        "launch must key the cache"
    );
    assert_ne!(
        base,
        eval_key(
            &kernel.program,
            &kernel.launch,
            &GpuConfig::a100(),
            &options
        ),
        "gpu config must key the cache"
    );
    assert_ne!(
        base,
        eval_key(&kernel.program, &kernel.launch, &gpu, &fast_measure(9)),
        "measure seed must key the cache"
    );
}

#[test]
fn identical_listings_never_share_entries_across_arch_profiles() {
    // Regression test for the multi-architecture refactor: the same
    // schedule listing evaluated under two architecture backends (on an
    // otherwise identical chip, same name included) must occupy distinct
    // cache entries — schedules must never cross-contaminate between archs.
    let kernel = small_kernel();
    let options = fast_measure(0);
    let ampere = GpuConfig::small();
    let mut turing = GpuConfig::small_with_arch(gpusim::ArchSpec::turing());
    turing.name = ampere.name.clone();
    let key_ampere = eval_key(&kernel.program, &kernel.launch, &ampere, &options);
    let key_turing = eval_key(&kernel.program, &kernel.launch, &turing, &options);
    assert_ne!(
        cuasmrl::arch_key(&ampere.arch),
        cuasmrl::arch_key(&turing.arch)
    );
    assert_ne!(key_ampere, key_turing, "arch profile must key the cache");

    let cache = EvalCache::new();
    let a = cache.get_or_insert_with(key_ampere, || {
        measure(&ampere, &kernel.program, &kernel.launch, &options)
    });
    let t = cache.get_or_insert_with(key_turing, || {
        measure(&turing, &kernel.program, &kernel.launch, &options)
    });
    assert_eq!(cache.len(), 2, "one entry per architecture profile");
    assert_ne!(a.run.sm.cycles, t.run.sm.cycles);
    // Each arch's subsequent lookups hit its own entry bit for bit.
    let a2 = cache.get_or_insert_with(key_ampere, || unreachable!("must hit"));
    assert_eq!(a, a2);
}

#[test]
fn episode_replays_hit_the_shared_cache() {
    let cache = Arc::new(EvalCache::new());
    let mut game = game_with(0, cache.clone());
    let play = |game: &mut AssemblyGame| -> Vec<u32> {
        let _ = game.reset();
        let mut rewards = Vec::new();
        for _ in 0..6 {
            let mask = game.action_mask();
            let Some(action) = mask.iter().position(|&m| m) else {
                break;
            };
            let step = game.step(action);
            rewards.push(step.reward.to_bits());
            if step.done {
                break;
            }
        }
        rewards
    };
    let first = play(&mut game);
    let misses_after_first = cache.stats().misses;
    let second = play(&mut game);
    assert_eq!(first, second, "replayed episode must observe equal rewards");
    assert_eq!(
        cache.stats().misses,
        misses_after_first,
        "a replayed episode must be answered entirely from the cache"
    );
    assert!(cache.stats().hits > 0);

    // A clone of the game (as an independent replay would take) shares the
    // same cache.
    let clone = game.clone();
    assert!(Arc::ptr_eq(clone.eval_cache(), game.eval_cache()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Random masked move sequences observe bit-identical rewards whether
    /// the games share one evaluation cache, use private caches, or replay
    /// over a pre-warmed cache.
    #[test]
    fn random_move_sequences_are_cache_transparent(seed in 0u64..1000) {
        let shared = Arc::new(EvalCache::new());
        let mut warm = game_with(3, shared.clone());
        let mut replay = game_with(3, shared.clone());
        let mut cold = game_with(3, Arc::new(EvalCache::new()));

        let play = |game: &mut AssemblyGame, seed: u64| -> (Vec<u32>, u64) {
            let _ = game.reset();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut rewards = Vec::new();
            for _ in 0..8 {
                let mask = game.action_mask();
                let legal: Vec<usize> = mask
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &m)| m.then_some(i))
                    .collect();
                if legal.is_empty() {
                    break;
                }
                let action = legal[rng.gen_range(0..legal.len())];
                let step = game.step(action);
                rewards.push(step.reward.to_bits());
                if step.done {
                    break;
                }
            }
            (rewards, game.best().1.to_bits())
        };

        let first = play(&mut warm, seed);
        let hot = play(&mut replay, seed); // same sequence, warmed cache
        let isolated = play(&mut cold, seed); // same sequence, private cache
        prop_assert_eq!(&first, &hot, "warm replay must match");
        prop_assert_eq!(&first, &isolated, "cache sharing must be invisible");
    }
}
