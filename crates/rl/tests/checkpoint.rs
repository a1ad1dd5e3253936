//! The checkpoint contract: interrupting a training run at an update
//! boundary and resuming from its checkpoint is bit-identical to never
//! having stopped — the training-side mirror of the suite optimizer's
//! `jobs=N ≡ jobs=1` determinism contract.

use artifact::ArtifactError;
use rl::test_envs::BanditEnv;
use rl::{Checkpoint, CheckpointError, Env, PpoConfig, PpoTrainer, CHECKPOINT_MAGIC};

fn config() -> PpoConfig {
    PpoConfig {
        total_steps: 256,
        rollout_steps: 32,
        learning_rate: 1e-2,
        ..PpoConfig::tiny()
    }
}

/// The checkpoint bytes of a trainer and its env: they store every weight,
/// Adam moment, RNG word and statistic bit for bit, so two runs compare
/// equal here only if they are bit-identical.
fn checkpoint_bytes(trainer: &PpoTrainer, env: &BanditEnv) -> Vec<u8> {
    trainer
        .checkpoint(env)
        .expect("bandit snapshots")
        .to_bytes()
}

/// Recomputes the FNV trailer so that only a body edit is wrong.
fn reseal(bytes: &mut [u8]) {
    let content_len = bytes.len() - 8;
    let checksum = artifact::fnv1a64(&bytes[..content_len]);
    bytes[content_len..].copy_from_slice(&checksum.to_le_bytes());
}

/// The offset of the encoder's `kernel` in a checkpoint of a
/// `config()` policy on a bandit: the third of the four `u64` dimensions
/// (features, channels, kernel, actions) that open the policy.
fn kernel_offset(bytes: &[u8]) -> usize {
    let dims: Vec<u8> = [3u64, 8, 3, 3]
        .iter()
        .flat_map(|d| d.to_le_bytes())
        .collect();
    let policy = bytes
        .windows(dims.len())
        .position(|window| window == dims.as_slice())
        .expect("the policy's dimensions");
    policy + 16
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
    control.train(&mut control_env);
    let control_bytes = checkpoint_bytes(&control, &control_env);
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
        resumed.train(&mut env);
        assert!(
            checkpoint_bytes(&resumed, &env) == control_bytes,
            "training diverged when interrupted after update {interrupt_after}"
        );
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
    let bytes = checkpoint_bytes(&trainer, &env);
    let decoded = Checkpoint::from_bytes(&bytes).expect("round trip");
    assert_eq!(decoded.to_bytes(), bytes);
    assert_eq!(decoded.trainer.completed_updates(), 3);
    assert_eq!(Some(decoded.env_state), env.state_bytes());
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
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint whose checksum verifies but whose encoder `kernel` makes
/// the weight count overflow is `Corrupt`, and resuming from it is a typed
/// error, not an "attempt to multiply with overflow".
#[test]
fn a_kernel_whose_weight_count_overflows_is_corrupt_not_a_panic() {
    let path = temp_path("overflow");
    let mut env = BanditEnv::new(8);
    let mut trainer = PpoTrainer::new(config(), 3, 3);
    trainer.train_updates(&mut env, 1);
    let mut forged = checkpoint_bytes(&trainer, &env);
    let at = kernel_offset(&forged);
    forged[at..at + 8].copy_from_slice(&(usize::MAX as u64 / 2 + 1).to_le_bytes());
    reseal(&mut forged);
    assert!(matches!(
        Checkpoint::from_bytes(&forged),
        Err(ArtifactError::Corrupt { .. })
    ));
    std::fs::write(&path, &forged).expect("plant the forged checkpoint");
    assert!(matches!(
        PpoTrainer::resume_from(&path, &mut BanditEnv::new(8)),
        Err(CheckpointError::Artifact(ArtifactError::Corrupt { .. }))
    ));
    let _ = std::fs::remove_file(&path);
}

/// The offsets at which `pattern` occurs in `bytes`.
fn offsets_of(bytes: &[u8], pattern: &[u8]) -> Vec<usize> {
    (0..=bytes.len() - pattern.len())
        .filter(|&at| bytes[at..].starts_with(pattern))
        .collect()
}

/// A step counter forged to its type's maximum behind a re-sealed trailer
/// is `Corrupt`: each of the three Adam step counts, and the env step count.
/// Otherwise the first update after resuming would overflow it.
#[test]
fn a_forged_step_counter_is_corrupt_not_an_overflow() {
    let mut env = BanditEnv::new(8);
    let mut trainer = PpoTrainer::new(config(), 3, 3);
    trainer.train_updates(&mut env, 1);
    let good = checkpoint_bytes(&trainer, &env);
    // One update of `config()`: 32 env steps, then 4 epochs of 4
    // minibatches of 8 samples, one Adam step each.
    assert_eq!(trainer.stats().steps, 32);
    let adam: Vec<u8> = [1e-2f32.to_le_bytes().as_slice(), &16u64.to_le_bytes()].concat();
    let adams: Vec<usize> = offsets_of(&good, &adam).iter().map(|at| at + 4).collect();
    assert_eq!(adams.len(), 3, "encoder, actor and critic");
    let counters: Vec<u8> = [1u64, 32].iter().flat_map(|c| c.to_le_bytes()).collect();
    let env_steps = offsets_of(&good, &counters);
    assert_eq!(env_steps.len(), 1, "completed updates, then env steps");
    for at in adams.into_iter().chain(env_steps.iter().map(|at| at + 8)) {
        let mut forged = good.clone();
        forged[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut forged);
        assert!(
            matches!(
                Checkpoint::from_bytes(&forged),
                Err(ArtifactError::Corrupt { .. })
            ),
            "a counter at byte {at}"
        );
    }
}

/// Every body byte of a real checkpoint, flipped by `0x01`, `0x80` and
/// `0xFF` behind a re-sealed trailer, decodes or fails typed, and a
/// decoded one resumes or fails typed: the parser behind a valid checksum
/// never panics.
#[test]
fn every_body_byte_flip_behind_a_valid_checksum_errors_or_resumes_without_panicking() {
    let mut env = BanditEnv::new(8);
    let mut trainer = PpoTrainer::new(config(), 3, 3);
    trainer.train_updates(&mut env, 2);
    let good = checkpoint_bytes(&trainer, &env);
    let body = CHECKPOINT_MAGIC.len() + 4..good.len() - 8;
    let mut decoded = 0;
    for position in body {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut forged = good.clone();
            forged[position] ^= flip;
            reseal(&mut forged);
            let outcome = std::panic::catch_unwind(|| -> Result<(), ArtifactError> {
                let checkpoint = Checkpoint::from_bytes(&forged)?;
                let _ = PpoTrainer::resume_from_checkpoint(&checkpoint, &mut BanditEnv::new(8));
                Ok(())
            });
            match outcome {
                Err(_) => panic!("flipping byte {position} by {flip:#04x} panicked"),
                Ok(Ok(())) => decoded += 1,
                Ok(Err(ArtifactError::Torn { .. } | ArtifactError::Corrupt { .. })) => {}
                Ok(Err(err)) => panic!("flipping byte {position} by {flip:#04x}: {err}"),
            }
        }
    }
    // Flips inside floats decode: the sweep reached the parser's far side.
    assert!(decoded > 0);
}
