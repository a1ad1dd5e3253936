//! A real training run with a mid-run kill and resume, self-checked against
//! an uninterrupted control run — the driver the nightly CI workflow
//! executes to prove the checkpoint contract on the actual assembly game,
//! publishing the checkpoint and telemetry artifacts it produces.
//!
//! ```text
//! cargo run --release --example checkpointed_training -- [ARTIFACT_DIR]
//! ```
//!
//! Exits nonzero (assertion failure) if the resumed run diverges from the
//! uninterrupted one by a single bit, in either the policy weights or the
//! optimized schedule.

use cuasmrl::{AssemblyGame, GameConfig, StallTable};
use gpusim::GpuConfig;
use kernels::{generate, KernelConfig, KernelKind, KernelSpec, ScheduleStyle};
use rl::{Env, PpoConfig, PpoTrainer};

fn game() -> AssemblyGame {
    let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 8);
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
        GameConfig::default(),
    )
}

fn ppo() -> PpoConfig {
    PpoConfig {
        total_steps: 512,
        rollout_steps: 64,
        learning_rate: 1e-3,
        ..PpoConfig::tiny()
    }
}

fn main() {
    let artifact_dir = std::env::args()
        .nth(1)
        .map_or_else(|| std::path::PathBuf::from("nightly-artifacts"), Into::into);
    std::fs::create_dir_all(&artifact_dir).expect("create the artifact directory");
    let checkpoint_path = artifact_dir.join("training_run.ckpt");

    // Uninterrupted control run.
    let mut control_game = game();
    let mut control = PpoTrainer::new(
        ppo(),
        control_game.observation_features(),
        control_game.action_count(),
    );
    let control_stats = control.train(&mut control_game);
    let total_updates = control.total_updates();
    println!(
        "control: {} updates, {} steps, final return {:.3}, best {:.2} us",
        total_updates,
        control_stats.steps,
        control_stats.final_return(5),
        control_game.best().1
    );

    // Interrupted run: train halfway, checkpoint, drop everything.
    let interrupt_after = (total_updates / 2).max(1);
    {
        let mut interrupted_game = game();
        let mut trainer = PpoTrainer::new(
            ppo(),
            interrupted_game.observation_features(),
            interrupted_game.action_count(),
        );
        trainer.train_updates(&mut interrupted_game, interrupt_after);
        trainer
            .save_checkpoint(&interrupted_game, &checkpoint_path)
            .expect("write the mid-run checkpoint");
        println!(
            "interrupted after update {interrupt_after}/{total_updates}; checkpoint at {}",
            checkpoint_path.display()
        );
    }

    // Fresh "process": reconstruct the game, resume, finish.
    let mut resumed_game = game();
    let mut resumed = PpoTrainer::resume_from(&checkpoint_path, &mut resumed_game).expect("resume");
    let resumed_stats = resumed.train(&mut resumed_game);

    // The resumed run must be bit-identical to the control: its checkpoint
    // bytes store every weight, Adam moment, RNG word and statistic.
    let snapshot = |trainer: &PpoTrainer, game: &AssemblyGame| {
        trainer
            .checkpoint(game)
            .expect("the game snapshots")
            .to_bytes()
    };
    assert!(
        snapshot(&resumed, &resumed_game) == snapshot(&control, &control_game),
        "resumed training diverged from the uninterrupted run"
    );
    assert_eq!(
        resumed_game.best().0.to_string(),
        control_game.best().0.to_string(),
        "resumed optimized schedule diverged from the uninterrupted run"
    );
    assert_eq!(
        resumed_game.best().1.to_bits(),
        control_game.best().1.to_bits()
    );
    assert_eq!(resumed_stats.steps, control_stats.steps);
    println!("resume check passed: policy weights and optimized schedule are bit-identical");

    // Publish the training telemetry of the (resumed) run.
    let telemetry_path = artifact_dir.join("training_telemetry.json");
    let json = serde_json::to_string_pretty(&resumed_stats).expect("serialize telemetry");
    std::fs::write(&telemetry_path, json + "\n").expect("write telemetry");
    println!("training telemetry at {}", telemetry_path.display());
}
