//! A deterministic work counter for the assembly game's replay path: heap
//! allocations per episode reset and per eval-cache-hit step, counted by a
//! thread-local counting `#[global_allocator]`.
//!
//! The (1+1) evolutionary search resets the game and replays its best move
//! sequence every generation, so almost every step of a Figure 6 pass is a
//! cache hit on a schedule already seen. Once the game's buffers have grown
//! to the sizes the replay cycles through, a reset must allocate only the
//! observation it returns, and a hit step only its observation and the
//! recorded move's text. A reset that copies the listing or its lowering
//! instead of undoing the episode's edits, a digest re-rendered per step or
//! a mask cloned per step shows up here as a count, on any machine. CI also
//! runs it on the release build the benchmark times: `cargo test --release
//! --test replay_allocations`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cuasmrl::{ActionSpace, AssemblyGame, GameConfig, StallTable};
use gpusim::GpuConfig;
use kernels::{find_suite, generate, KernelConfig, ScheduleStyle};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rl::Env;

/// Counts every allocation and reallocation made by the current thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; counting
// touches only a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the current thread made while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// The table2 GEMMs at the Figure 6 harness's scale and block configuration,
/// in the adjacent-swap space `search-swap` searches.
fn table2_gemm_games() -> Vec<(String, AssemblyGame)> {
    let gpu = GpuConfig::by_name("ampere").expect("ampere profile");
    let config = KernelConfig {
        block_m: 64,
        block_n: 64,
        block_k: 32,
        num_warps: 4,
        num_stages: 2,
    };
    find_suite("table2")
        .expect("table2 suite")
        .entries
        .iter()
        .filter(|entry| entry.kind.is_compute_bound())
        .map(|entry| {
            let kernel = generate(&entry.spec(8), &config, ScheduleStyle::Baseline);
            let game = AssemblyGame::new(
                gpu.clone(),
                kernel.program,
                kernel.launch,
                StallTable::for_arch(&gpu.arch),
                GameConfig {
                    episode_length: 64,
                    action_space: ActionSpace::AdjacentSwap,
                    ..GameConfig::default()
                },
            );
            (kernel.name, game)
        })
        .collect()
}

/// A seeded walk of `moves` legal actions from the initial schedule.
fn random_walk(game: &mut AssemblyGame, moves: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let _ = game.reset();
    let mut actions = Vec::new();
    for _ in 0..moves {
        let legal: Vec<usize> = game
            .action_mask()
            .iter()
            .enumerate()
            .filter_map(|(id, &m)| m.then_some(id))
            .collect();
        if legal.is_empty() {
            break;
        }
        let action = legal[rng.gen_range(0..legal.len())];
        let _ = game.step(action);
        actions.push(action);
    }
    actions
}

/// Resets and replays `actions`; returns the allocations of the reset and
/// the largest allocation count of one step.
fn replay(game: &mut AssemblyGame, actions: &[usize]) -> (u64, u64) {
    let (_, reset) = allocations(|| game.reset());
    let mut worst_step = 0;
    for &action in actions {
        let (_, step) = allocations(|| game.step(action));
        worst_step = worst_step.max(step);
    }
    (reset, worst_step)
}

#[test]
fn a_replayed_generation_allocates_only_its_outputs() {
    let games = table2_gemm_games();
    assert!(!games.is_empty(), "table2 has GEMMs");
    for (name, mut game) in games {
        let actions = random_walk(&mut game, 40, 7);
        assert!(actions.len() >= 20, "{name}: the walk found legal moves");
        // Two warm-up replays let every buffer grow to the sizes the replay
        // cycles through.
        for _ in 0..2 {
            let _ = replay(&mut game, &actions);
        }
        let misses = game.eval_cache().stats().misses;
        for round in 0..3 {
            let hits = game.eval_cache().stats().hits;
            let (reset, worst_step) = replay(&mut game, &actions);
            let stats = game.eval_cache().stats();
            assert_eq!(stats.misses, misses, "{name}: a replay only hits");
            assert_eq!(stats.hits, hits + actions.len() as u64, "{name}");
            assert!(
                reset <= 1,
                "{name} round {round}: a reset allocated {reset} times (only the observation may)"
            );
            assert!(
                worst_step <= 2,
                "{name} round {round}: a hit step allocated {worst_step} times \
                 (only the observation and the move text may)"
            );
        }
    }
}
