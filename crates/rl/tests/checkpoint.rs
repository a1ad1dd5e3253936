//! The checkpoint contract: interrupting a training run at an update
//! boundary and resuming from its checkpoint is bit-identical to never
//! having stopped — the training-side mirror of the suite optimizer's
//! `jobs=N ≡ jobs=1` determinism contract.

use rl::test_envs::BanditEnv;
use rl::{Checkpoint, CheckpointError, PolicyState, PpoConfig, PpoTrainer, TrainingStats};

fn config() -> PpoConfig {
    PpoConfig {
        total_steps: 256,
        rollout_steps: 32,
        learning_rate: 1e-2,
        ..PpoConfig::tiny()
    }
}

/// Every float of the policy state as raw bits: two states compare equal
/// here only if they are bit-identical.
fn policy_bits(state: &PolicyState) -> Vec<u64> {
    let mut bits: Vec<u64> = Vec::new();
    let mut push_f32s = |values: &[f32]| {
        bits.extend(values.iter().map(|v| u64::from(v.to_bits())));
    };
    push_f32s(&state.encoder_weight);
    push_f32s(&state.encoder_bias);
    push_f32s(&state.actor_weight);
    push_f32s(&state.actor_bias);
    push_f32s(&state.critic_weight);
    push_f32s(&state.critic_bias);
    for opt in [&state.encoder_opt, &state.actor_opt, &state.critic_opt] {
        bits.push(u64::from(opt.learning_rate.to_bits()));
        bits.push(opt.step);
        bits.extend(opt.first_moment.iter().map(|v| u64::from(v.to_bits())));
        bits.extend(opt.second_moment.iter().map(|v| u64::from(v.to_bits())));
    }
    bits.extend(state.rng.key.iter().map(|&w| u64::from(w)));
    bits.push(state.rng.counter);
    bits.extend(state.rng.nonce.iter().map(|&w| u64::from(w)));
    bits.extend(state.rng.buffer.iter().map(|&w| u64::from(w)));
    bits.push(u64::from(state.rng.index));
    bits
}

fn stats_bits(stats: &TrainingStats) -> Vec<u64> {
    let mut bits = vec![stats.steps as u64];
    for series in [
        &stats.episodic_returns,
        &stats.approx_kl,
        &stats.entropy,
        &stats.policy_loss,
        &stats.value_loss,
    ] {
        bits.push(series.len() as u64);
        bits.extend(series.iter().map(|v| u64::from(v.to_bits())));
    }
    bits
}

fn temp_path(label: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "cuasmrl-rl-ckpt-{label}-{}-{:?}.ckpt",
        std::process::id(),
        std::thread::current().id()
    ))
}

#[test]
fn resume_at_every_update_boundary_matches_the_uninterrupted_run() {
    // The uninterrupted control run.
    let mut control_env = BanditEnv::new(8);
    let mut control = PpoTrainer::new(config(), 3, 3);
    let control_stats = control.train(&mut control_env);
    let control_policy = policy_bits(&control.policy().state());
    let total_updates = control.total_updates();
    assert!(
        total_updates >= 4,
        "need several boundaries to interrupt at"
    );

    for interrupt_after in 1..total_updates {
        let path = temp_path(&format!("seq-{interrupt_after}"));
        // Phase 1: train to the boundary, checkpoint, and drop everything.
        {
            let mut env = BanditEnv::new(8);
            let mut trainer = PpoTrainer::new(config(), 3, 3);
            let finished = trainer.train_updates(&mut env, interrupt_after);
            assert!(!finished);
            assert_eq!(trainer.completed_updates(), interrupt_after);
            trainer.save_checkpoint(&env, &path).expect("save");
        }
        // Phase 2: a fresh process would reconstruct the env and resume.
        let mut env = BanditEnv::new(8);
        let mut resumed = PpoTrainer::resume_from(&path, &mut env).expect("resume");
        assert_eq!(resumed.completed_updates(), interrupt_after);
        let resumed_stats = resumed.train(&mut env);
        assert_eq!(
            policy_bits(&resumed.policy().state()),
            control_policy,
            "policy diverged when interrupted after update {interrupt_after}"
        );
        assert_eq!(stats_bits(&resumed_stats), stats_bits(&control_stats));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn resume_from_or_new_cold_starts_resumes_and_propagates_corruption() {
    let path = temp_path("or-new");
    let _ = std::fs::remove_file(&path);

    // No checkpoint on disk: a fresh trainer, flagged as not resumed.
    let mut env = BanditEnv::new(8);
    let (mut trainer, resumed) =
        PpoTrainer::resume_from_or_new(&path, &mut env, config(), 3, 3).expect("cold start");
    assert!(!resumed);
    assert_eq!(trainer.completed_updates(), 0);

    // Train past a boundary, checkpoint, and warm-restart from it.
    trainer.train_updates(&mut env, 2);
    trainer.save_checkpoint(&env, &path).expect("save");
    let mut env2 = BanditEnv::new(8);
    let (warm, resumed) =
        PpoTrainer::resume_from_or_new(&path, &mut env2, config(), 3, 3).expect("warm restart");
    assert!(resumed);
    assert_eq!(warm.completed_updates(), 2);

    // A present-but-damaged checkpoint is a typed error, not a silent
    // cold start: the caller decides whether to discard it.
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupt checkpoint");
    let mut env3 = BanditEnv::new(8);
    let err = PpoTrainer::resume_from_or_new(&path, &mut env3, config(), 3, 3)
        .expect_err("corruption must surface");
    assert!(matches!(
        err,
        CheckpointError::Artifact(artifact::ArtifactError::ChecksumMismatch { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_file_round_trips_policy_and_optimizer_state_bit_identically() {
    let mut env = BanditEnv::new(8);
    let mut trainer = PpoTrainer::new(config(), 3, 3);
    trainer.train_updates(&mut env, 3);
    let checkpoint = trainer.checkpoint(&env).expect("snapshot");
    let decoded = Checkpoint::from_bytes(&checkpoint.to_bytes()).expect("round trip");
    assert_eq!(decoded, checkpoint);
    assert_eq!(
        policy_bits(&decoded.policy),
        policy_bits(&trainer.policy().state())
    );
    assert_eq!(decoded.completed_updates, 3);
    assert_eq!(decoded.envs.len(), 1);
    assert!(decoded.envs[0].observation.is_some());
}

#[test]
fn hostile_checkpoints_are_rejected_with_typed_errors_not_panics() {
    let mut env = BanditEnv::new(8);
    let mut trainer = PpoTrainer::new(config(), 3, 3);
    trainer.train_updates(&mut env, 1);
    let good = trainer.checkpoint(&env).expect("snapshot").to_bytes();

    // Garbage bytes of assorted lengths.
    for len in [0usize, 1, 7, 8, 64, 4096] {
        let garbage: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
        assert!(Checkpoint::from_bytes(&garbage).is_err(), "len {len}");
    }
    // Not-a-checkpoint magic.
    assert!(matches!(
        Checkpoint::from_bytes(b"definitely not a checkpoint file"),
        Err(artifact::ArtifactError::Corrupt { .. })
    ));
    // Every possible truncation of a real checkpoint.
    for len in 0..good.len() {
        assert!(
            Checkpoint::from_bytes(&good[..len]).is_err(),
            "prefix {len}"
        );
    }
    // Bit flips anywhere in the content fail the checksum.
    for position in (9..good.len() - 8).step_by(97) {
        let mut damaged = good.clone();
        damaged[position] ^= 0x10;
        assert!(matches!(
            Checkpoint::from_bytes(&damaged),
            Err(artifact::ArtifactError::ChecksumMismatch { .. })
        ));
    }
    // A wrong version is named in the error.
    let mut wrong_version = good.clone();
    wrong_version[8] = 42;
    let content_len = wrong_version.len() - 8;
    let hash = artifact::fnv1a64(&wrong_version[..content_len]);
    wrong_version[content_len..].copy_from_slice(&hash.to_le_bytes());
    assert!(matches!(
        Checkpoint::from_bytes(&wrong_version),
        Err(artifact::ArtifactError::UnsupportedVersion { found: 42, .. })
    ));
}

#[test]
fn resume_refuses_mismatched_environments() {
    let path = temp_path("mismatch");
    let mut env = BanditEnv::new(8);
    let mut trainer = PpoTrainer::new(config(), 3, 3);
    trainer.train_updates(&mut env, 1);
    trainer.save_checkpoint(&env, &path).expect("save");
    // An env constructed for a different problem instance rejects the state.
    let mut wrong_env = BanditEnv::new(17);
    assert!(matches!(
        PpoTrainer::resume_from::<BanditEnv>(&path, &mut wrong_env),
        Err(CheckpointError::EnvRejectedState)
    ));
    // A checkpoint holding anything but exactly one env is refused too.
    let mut two_envs = Checkpoint::read(&path).expect("read");
    two_envs.envs.push(two_envs.envs[0].clone());
    assert!(matches!(
        PpoTrainer::resume_from_checkpoint(&two_envs, &mut BanditEnv::new(8)),
        Err(CheckpointError::Artifact(
            artifact::ArtifactError::Corrupt { .. }
        ))
    ));
    let _ = std::fs::remove_file(&path);
}
