//! End-to-end checkpoint/resume over the real assembly game: killing an RL
//! training run at an update boundary and resuming it from the checkpoint
//! must produce bit-identical final policy weights **and** bit-identical
//! optimized schedules versus the run that was never interrupted. This is
//! the cross-crate counterpart of `crates/rl/tests/checkpoint.rs` (which
//! proves the same contract on a synthetic env).

use cuasmrl::{ActionSpace, AssemblyGame, GameConfig, StallTable};
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{generate, KernelConfig, KernelKind, KernelSpec, ScheduleStyle};
use rl::{Env, PpoConfig, PpoTrainer};

fn fast_measure() -> MeasureOptions {
    MeasureOptions {
        warmup: 0,
        repeats: 2,
        noise_std: 0.0,
        seed: 0,
    }
}

fn game_in(space: ActionSpace) -> AssemblyGame {
    let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
    let config = KernelConfig {
        block_m: 32,
        block_n: 32,
        block_k: 32,
        num_warps: 4,
        num_stages: 2,
    };
    let kernel = generate(&spec, &config, ScheduleStyle::Baseline);
    AssemblyGame::new(
        GpuConfig::small(),
        kernel.program,
        kernel.launch,
        StallTable::builtin_a100(),
        GameConfig {
            episode_length: 8,
            measure: fast_measure(),
            action_space: space,
        },
    )
}

fn game() -> AssemblyGame {
    game_in(ActionSpace::default())
}

fn ppo() -> PpoConfig {
    PpoConfig {
        total_steps: 96,
        rollout_steps: 32,
        learning_rate: 1e-2,
        ..PpoConfig::tiny()
    }
}

/// The checkpoint bytes of a trainer and its game: they store every
/// weight, Adam moment, RNG word, statistic and the game's own state, so
/// two runs compare equal here only if they are bit-identical.
fn checkpoint_bytes(trainer: &PpoTrainer, game: &AssemblyGame) -> Vec<u8> {
    trainer
        .checkpoint(game)
        .expect("the game snapshots")
        .to_bytes()
}

#[test]
fn killed_and_resumed_rl_training_yields_bit_identical_schedules() {
    // The uninterrupted control run.
    let mut control_game = game();
    let mut control = PpoTrainer::new(
        ppo(),
        control_game.observation_features(),
        control_game.action_count(),
    );
    control.train(&mut control_game);
    let control_bytes = checkpoint_bytes(&control, &control_game);
    let (control_best, control_best_us) = control_game.best();
    let control_listing = control_best.to_string();
    let total_updates = control.total_updates();
    assert!(total_updates >= 3);

    for interrupt_after in 1..total_updates {
        let path = std::env::temp_dir().join(format!(
            "cuasmrl-game-ckpt-{}-{interrupt_after}.ckpt",
            std::process::id()
        ));
        // Phase 1: train to the boundary, checkpoint, "kill the process"
        // (drop trainer and game).
        {
            let mut interrupted_game = game();
            let mut trainer = PpoTrainer::new(
                ppo(),
                interrupted_game.observation_features(),
                interrupted_game.action_count(),
            );
            assert!(!trainer.train_updates(&mut interrupted_game, interrupt_after));
            trainer
                .save_checkpoint(&interrupted_game, &path)
                .expect("checkpoint the run");
        }
        // Phase 2: a fresh process reconstructs the game from the same
        // kernel and resumes from the checkpoint file.
        let mut resumed_game = game();
        let mut resumed =
            PpoTrainer::resume_from(&path, &mut resumed_game).expect("resume from file");
        assert_eq!(resumed.completed_updates(), interrupt_after);
        resumed.train(&mut resumed_game);

        assert!(
            checkpoint_bytes(&resumed, &resumed_game) == control_bytes,
            "training diverged when killed after update {interrupt_after}"
        );
        let (resumed_best, resumed_best_us) = resumed_game.best();
        assert_eq!(
            resumed_best.to_string(),
            control_listing,
            "optimized schedule diverged when killed after update {interrupt_after}"
        );
        assert_eq!(resumed_best_us.to_bits(), control_best_us.to_bits());
        let _ = std::fs::remove_file(&path);
    }
}

/// The interrupt/resume contract holds unchanged under the rich action
/// space: a run killed at any update boundary and resumed from its
/// checkpoint — with the full edit set of swaps, block moves, reuse
/// toggles, stall retunes and barrier edits in play — finishes with
/// bit-identical policy weights and a byte-identical best schedule.
#[test]
fn killed_and_resumed_rich_training_yields_bit_identical_schedules() {
    let mut control_game = game_in(ActionSpace::Rich);
    let mut control = PpoTrainer::new(
        ppo(),
        control_game.observation_features(),
        control_game.action_count(),
    );
    control.train(&mut control_game);
    let control_bytes = checkpoint_bytes(&control, &control_game);
    let (control_best, control_best_us) = control_game.best();
    let control_listing = control_best.to_string();
    let total_updates = control.total_updates();
    assert!(total_updates >= 3);

    for interrupt_after in 1..total_updates {
        let path = std::env::temp_dir().join(format!(
            "cuasmrl-rich-ckpt-{}-{interrupt_after}.ckpt",
            std::process::id()
        ));
        {
            let mut interrupted_game = game_in(ActionSpace::Rich);
            let mut trainer = PpoTrainer::new(
                ppo(),
                interrupted_game.observation_features(),
                interrupted_game.action_count(),
            );
            assert!(!trainer.train_updates(&mut interrupted_game, interrupt_after));
            trainer
                .save_checkpoint(&interrupted_game, &path)
                .expect("checkpoint the run");
        }
        let mut resumed_game = game_in(ActionSpace::Rich);
        let mut resumed =
            PpoTrainer::resume_from(&path, &mut resumed_game).expect("resume from file");
        assert_eq!(resumed.completed_updates(), interrupt_after);
        resumed.train(&mut resumed_game);

        assert!(
            checkpoint_bytes(&resumed, &resumed_game) == control_bytes,
            "rich training diverged when killed after update {interrupt_after}"
        );
        let (resumed_best, resumed_best_us) = resumed_game.best();
        assert_eq!(
            resumed_best.to_string(),
            control_listing,
            "rich optimized schedule diverged when killed after update {interrupt_after}"
        );
        assert_eq!(resumed_best_us.to_bits(), control_best_us.to_bits());
        let _ = std::fs::remove_file(&path);
    }
}

/// A checkpoint taken under one action space must not silently resume into
/// a game configured for another: the edit table, the action ids and the
/// policy head widths all differ.
#[test]
fn resume_rejects_a_checkpoint_for_a_different_action_space() {
    let path = std::env::temp_dir().join(format!(
        "cuasmrl-space-mismatch-{}.ckpt",
        std::process::id()
    ));
    let mut rich = game_in(ActionSpace::Rich);
    let mut trainer = PpoTrainer::new(ppo(), rich.observation_features(), rich.action_count());
    trainer.train_updates(&mut rich, 1);
    trainer.save_checkpoint(&rich, &path).expect("save");

    let mut swap_game = game();
    assert!(matches!(
        PpoTrainer::resume_from(&path, &mut swap_game),
        Err(rl::CheckpointError::EnvRejectedState)
    ));
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint recording an action-space version this build does not know
/// (for example, written by a future release) is rejected with the typed
/// [`rl::CheckpointError::EnvRejectedState`] instead of being misread.
#[test]
fn resume_rejects_a_checkpoint_with_an_unknown_action_space_version() {
    let path =
        std::env::temp_dir().join(format!("cuasmrl-unknown-space-{}.ckpt", std::process::id()));
    let mut rich = game_in(ActionSpace::Rich);
    let mut trainer = PpoTrainer::new(ppo(), rich.observation_features(), rich.action_count());
    trainer.train_updates(&mut rich, 1);
    let mut checkpoint = trainer.checkpoint(&rich).expect("snapshot");

    // Rewrite the env snapshot as if a future build had written an
    // action-space variant this one has never heard of.
    let state = String::from_utf8(checkpoint.env_state.clone()).expect("snapshots are JSON");
    assert!(state.contains("\"Rich\""), "snapshot must record its space");
    checkpoint.env_state = state.replace("\"Rich\"", "\"Quantum\"").into_bytes();
    checkpoint
        .write(&artifact::UnsyncedIo, &path)
        .expect("write tampered checkpoint");

    let mut resumed_game = game_in(ActionSpace::Rich);
    assert!(matches!(
        PpoTrainer::resume_from(&path, &mut resumed_game),
        Err(rl::CheckpointError::EnvRejectedState)
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_rejects_a_game_for_a_different_kernel() {
    let path = std::env::temp_dir().join(format!(
        "cuasmrl-game-ckpt-mismatch-{}.ckpt",
        std::process::id()
    ));
    let mut original = game();
    let mut trainer = PpoTrainer::new(
        ppo(),
        original.observation_features(),
        original.action_count(),
    );
    trainer.train_updates(&mut original, 1);
    trainer.save_checkpoint(&original, &path).expect("save");

    // A game built from a different kernel (different schedule length)
    // refuses the checkpointed state instead of silently adopting it.
    let spec = KernelSpec::scaled(KernelKind::Softmax, 16);
    let config = KernelConfig {
        block_m: 1,
        block_n: 256,
        block_k: 1,
        num_warps: 4,
        num_stages: 1,
    };
    let kernel = generate(&spec, &config, ScheduleStyle::Baseline);
    let mut wrong_game = AssemblyGame::new(
        GpuConfig::small(),
        kernel.program,
        kernel.launch,
        StallTable::builtin_a100(),
        GameConfig {
            episode_length: 8,
            measure: fast_measure(),
            ..GameConfig::default()
        },
    );
    assert!(matches!(
        PpoTrainer::resume_from(&path, &mut wrong_game),
        Err(rl::CheckpointError::EnvRejectedState)
    ));
    let _ = std::fs::remove_file(&path);
}
