//! The moves an answer reports are the path to its schedule (§5.7): for
//! every search strategy and both action spaces, replaying
//! `OptimizationReport::moves` on a fresh game over the compiled `-O3`
//! schedule earns every recorded reward bit for bit, ends on
//! `optimized_listing` at `optimized_us`, and reaches that runtime only with
//! its last move — a trace that runs past the best schedule, or one that
//! never reaches it, fails.

use cuasmrl::{ActionSpace, AssemblyGame, GameConfig, StallTable, Strategy, SuiteOptimizer};
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{Autotuner, ConfigSpace, KernelKind, KernelSpec, TritonPipeline};
use rl::{Env, PpoConfig};

fn fast_measure() -> MeasureOptions {
    MeasureOptions {
        warmup: 0,
        repeats: 2,
        noise_std: 0.0,
        seed: 0,
    }
}

fn game_config(space: ActionSpace) -> GameConfig {
    GameConfig {
        episode_length: 16,
        measure: fast_measure(),
        action_space: space,
    }
}

/// The suite `tests/default_space_pin.rs` pins, under `space`.
fn suite(strategy: Strategy, space: ActionSpace) -> SuiteOptimizer {
    SuiteOptimizer::new(GpuConfig::small(), strategy)
        .with_jobs(1)
        .with_seed(42)
        .with_tune_options(fast_measure())
        .with_config_space(ConfigSpace::small())
        .with_game_config(game_config(space))
}

/// Why `strategy`'s answer on `kind` in `space` does not replay, if it
/// does not.
fn replay_failure(strategy: &Strategy, kind: KernelKind, space: ActionSpace) -> Option<String> {
    let suite = suite(strategy.clone(), space);
    let spec = KernelSpec::scaled(kind, 16);
    let config_space = suite.config_space_for(&spec);
    let (report, _cubin) =
        suite
            .optimizer_for(&spec)
            .optimize_spec(&spec, &config_space, suite.tune_options());

    let gpu = suite.gpu().clone();
    let tuned = Autotuner::new(gpu.clone())
        .with_options(suite.tune_options().clone())
        .tune(&spec, &config_space);
    let compiled = TritonPipeline::new(gpu.clone()).compile(&spec, &tuned.best);
    let program = compiled
        .cubin
        .kernel_program(&compiled.name)
        .expect("compiled cubin must contain the kernel");
    let stalls = StallTable::for_arch(&gpu.arch);
    let mut game = AssemblyGame::new(gpu, program, compiled.launch, stalls, game_config(space));
    let _ = game.reset();

    let label = format!("{} on {} ({space:?})", strategy.name(), kind.name());
    for (i, recorded) in report.moves.iter().enumerate() {
        if i + 1 == report.moves.len() && game.best().1 <= report.optimized_us {
            return Some(format!(
                "{label}: move {i} of {} runs past the best schedule, already reached",
                report.moves.len()
            ));
        }
        let movable = game.analysis().movable_memory_indices();
        let Some(slot) = movable.iter().position(|&m| m == recorded.instruction) else {
            return Some(format!(
                "{label}: move {i} selects instruction {}, which is not movable",
                recorded.instruction
            ));
        };
        let action = space
            .encode(slot, recorded.kind)
            .expect("a recorded kind belongs to its space");
        let reward = game.step(action).reward;
        if reward.to_bits() != recorded.reward.to_bits() {
            return Some(format!(
                "{label}: move {i} earns {reward}, the report records {}",
                recorded.reward
            ));
        }
    }
    let (best, runtime) = game.best();
    if best.to_string() != report.optimized_listing
        || runtime.to_bits() != report.optimized_us.to_bits()
    {
        return Some(format!(
            "{label}: {} moves end at {runtime} us, the report answers {} us",
            report.moves.len(),
            report.optimized_us
        ));
    }
    None
}

fn assert_moves_replay(strategy: &Strategy) {
    let failures: Vec<String> = [KernelKind::MatmulLeakyRelu, KernelKind::FlashAttention]
        .into_iter()
        .flat_map(|kind| {
            [ActionSpace::AdjacentSwap, ActionSpace::Rich]
                .into_iter()
                .filter_map(move |space| replay_failure(strategy, kind, space))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn greedy_moves_replay_to_the_reported_schedule() {
    assert_moves_replay(&Strategy::Greedy { max_moves: 6 });
}

#[test]
fn random_moves_replay_to_the_reported_schedule() {
    assert_moves_replay(&Strategy::Random { steps: 48, seed: 3 });
}

#[test]
fn evolutionary_moves_replay_to_the_reported_schedule() {
    assert_moves_replay(&Strategy::Evolutionary {
        generations: 6,
        mutation_length: 8,
        seed: 0,
    });
}

#[test]
fn ppo_moves_replay_to_the_reported_schedule() {
    assert_moves_replay(&Strategy::Rl(PpoConfig {
        rollout_steps: 32,
        total_steps: 128,
        ..PpoConfig::tiny()
    }));
}
