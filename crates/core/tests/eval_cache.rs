//! Integration tests of the schedule-evaluation cache: cached results must
//! be bit-identical to uncached simulation, each game keeps a cache of its
//! own that only its clones share, and random masked move sequences must
//! observe identical rewards with or without cache sharing.

use std::sync::Arc;

use cuasmrl::{program_key, AssemblyGame, EvalCache, GameConfig, StallTable};
use gpusim::{measure, GpuConfig, MeasureOptions};
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

fn game_on(gpu: GpuConfig, seed: u64) -> AssemblyGame {
    let kernel = small_kernel();
    AssemblyGame::new(
        gpu,
        kernel.program,
        kernel.launch,
        StallTable::builtin_a100(),
        GameConfig {
            episode_length: 8,
            measure: fast_measure(seed),
            ..GameConfig::default()
        },
    )
}

fn game_with(seed: u64) -> AssemblyGame {
    game_on(GpuConfig::small(), seed)
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
        let key = program_key(&kernel.program);
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
fn identical_listings_never_share_entries_across_arch_profiles() {
    // The same schedule listing played under two architecture backends (on
    // an otherwise identical chip, same name included) lands in two caches:
    // every game builds its own, so schedules never cross-contaminate
    // between archs even though the key is the listing digest alone.
    let ampere = GpuConfig::small();
    let mut turing = GpuConfig::small_with_arch(gpusim::ArchSpec::turing());
    turing.name = ampere.name.clone();
    let (a, t) = (game_with(0), game_on(turing, 0));
    assert!(!Arc::ptr_eq(a.eval_cache(), t.eval_cache()));
    assert_eq!((a.eval_cache().len(), t.eval_cache().len()), (1, 1));
    assert_ne!(
        a.initial_runtime_us().to_bits(),
        t.initial_runtime_us().to_bits(),
        "the two backends time the schedule differently"
    );
    // Each game's lookups of the shared listing hit its own entry.
    let kernel = small_kernel();
    assert_eq!(
        a.cached_measurement(&kernel.program).mean_us.to_bits(),
        a.initial_runtime_us().to_bits()
    );
    assert_eq!(
        t.cached_measurement(&kernel.program).mean_us.to_bits(),
        t.initial_runtime_us().to_bits()
    );
    assert_eq!(a.eval_cache().stats().misses, 1);
    assert_eq!(t.eval_cache().stats().misses, 1);
}

#[test]
fn episode_replays_hit_the_shared_cache() {
    let mut game = game_with(0);
    let cache = Arc::clone(game.eval_cache());
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
    // same cache; a new game of the same kernel starts its own.
    let clone = game.clone();
    assert!(Arc::ptr_eq(clone.eval_cache(), game.eval_cache()));
    assert!(!Arc::ptr_eq(game_with(0).eval_cache(), game.eval_cache()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Random masked move sequences observe bit-identical rewards whether
    /// a game replays them over the cache a warm game's clone shares or
    /// over a private one.
    #[test]
    fn random_move_sequences_are_cache_transparent(seed in 0u64..1000) {
        let mut warm = game_with(3);
        let mut cold = game_with(3);

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
        let mut replay = warm.clone();
        let misses = replay.eval_cache().stats().misses;
        let hot = play(&mut replay, seed); // same sequence, warmed cache
        prop_assert_eq!(replay.eval_cache().stats().misses, misses, "a warm replay only hits");
        let isolated = play(&mut cold, seed); // same sequence, private cache
        prop_assert_eq!(&first, &hot, "warm replay must match");
        prop_assert_eq!(&first, &isolated, "cache sharing must be invisible");
    }
}
