//! The checkpoint contract: interrupting a training run at an update
//! boundary and resuming from its checkpoint is bit-identical to never
//! having stopped — the training-side mirror of the suite optimizer's
//! `jobs=N ≡ jobs=1` determinism contract.

use artifact::ArtifactError;
use rl::test_envs::BanditEnv;
use std::path::Path;

use rl::{Checkpoint, CheckpointError, Env, PpoConfig, PpoTrainer, CHECKPOINT_VERSION};

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

/// The body of sealed checkpoint `bytes`.
fn body_of(bytes: &[u8]) -> Vec<u8> {
    artifact::open(Path::new("checkpoint"), bytes, CHECKPOINT_VERSION)
        .expect("a sealed checkpoint")
        .to_vec()
}

/// `bytes` with its body edited by `edit` and sealed again, so that only
/// the body edit is wrong.
fn forged(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut body = body_of(bytes);
    edit(&mut body);
    artifact::sealed(CHECKPOINT_VERSION, &body)
}

/// Body offsets of the `u64` fields of the config, which opens the body
/// after the learning rate, the anneal flag and five `f32`s (25 bytes),
/// and of `completed_updates`, which follows it.
const ROLLOUT_STEPS: usize = 25;
const MINIBATCHES: usize = 33;
const UPDATE_EPOCHS: usize = 41;
const TOTAL_STEPS: usize = 49;
const KERNEL: usize = 65;
const COMPLETED_UPDATES: usize = 81;

/// Writes `value` into the `u64` field of `body` at `at`.
fn put_u64(body: &mut [u8], at: usize, value: u64) {
    body[at..at + 8].copy_from_slice(&value.to_le_bytes());
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
    // The body's last byte: the seal's `}` and newline follow it.
    let last = bytes.len() - 3;
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
    // Bytes that are not sealed are version 0.
    assert!(matches!(
        Checkpoint::from_bytes(b"definitely not a checkpoint file"),
        Err(ArtifactError::UnsupportedVersion { found: 0, .. })
    ));
    // Every possible truncation of a real checkpoint is torn.
    for len in 0..good.len() {
        assert!(
            matches!(
                Checkpoint::from_bytes(&good[..len]),
                Err(ArtifactError::Torn { .. })
            ),
            "prefix {len}"
        );
    }
    // Bit flips anywhere in the body fail the checksum.
    let body_start = good.len() - body_of(&good).len() - 2;
    for position in (body_start..good.len() - 2).step_by(97) {
        let mut damaged = good.clone();
        damaged[position] ^= 0x10;
        assert!(matches!(
            Checkpoint::from_bytes(&damaged),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }
    // A wrong version is named in the error.
    let wrong_version = artifact::sealed(42, &body_of(&good));
    assert!(matches!(
        Checkpoint::from_bytes(&wrong_version),
        Err(ArtifactError::UnsupportedVersion { found: 42, .. })
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

/// A checkpoint whose checksum verifies but whose config's encoder `kernel`
/// makes the weight count overflow is `Corrupt`, and resuming from it is a typed
/// error, not an "attempt to multiply with overflow".
#[test]
fn a_kernel_whose_weight_count_overflows_is_corrupt_not_a_panic() {
    let path = temp_path("overflow");
    let mut env = BanditEnv::new(8);
    let mut trainer = PpoTrainer::new(config(), 3, 3);
    trainer.train_updates(&mut env, 1);
    let forged = forged(&checkpoint_bytes(&trainer, &env), |body| {
        assert_eq!(
            body[KERNEL..KERNEL + 8],
            3u64.to_le_bytes(),
            "the encoder window"
        );
        put_u64(body, KERNEL, usize::MAX as u64 / 2 + 1);
    });
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

/// A checkpoint whose update count or config makes a derived step counter
/// overflow is `Corrupt`, not a resume whose next update overflows: an
/// update count whose env steps overflow, and a config whose scheduled run
/// would take the Adam step counts past `u64::MAX` in its next update
/// (one env step and four Adam steps per update, `u64::MAX / 4` updates
/// behind it, `usize::MAX` env steps scheduled).
#[test]
fn a_forged_update_count_whose_counters_overflow_is_corrupt() {
    let mut env = BanditEnv::new(8);
    let mut trainer = PpoTrainer::new(config(), 3, 3);
    trainer.train_updates(&mut env, 1);
    let good = checkpoint_bytes(&trainer, &env);
    assert_eq!(
        body_of(&good)[COMPLETED_UPDATES..COMPLETED_UPDATES + 8],
        1u64.to_le_bytes()
    );
    let forgeries: [fn(&mut Vec<u8>); 2] = [
        |body| put_u64(body, COMPLETED_UPDATES, u64::MAX),
        |body| {
            put_u64(body, ROLLOUT_STEPS, 1);
            put_u64(body, MINIBATCHES, 1);
            put_u64(body, UPDATE_EPOCHS, 4);
            put_u64(body, TOTAL_STEPS, u64::MAX);
            put_u64(body, COMPLETED_UPDATES, u64::MAX / 4);
        },
    ];
    for (index, forgery) in forgeries.into_iter().enumerate() {
        assert!(
            matches!(
                Checkpoint::from_bytes(&forged(&good, forgery)),
                Err(ArtifactError::Corrupt { .. })
            ),
            "forgery {index}"
        );
    }
}

/// Every body byte of a real checkpoint, flipped by `0x01`, `0x80` and
/// `0xFF` and sealed again, decodes or fails typed, and a
/// decoded one resumes or fails typed: the parser behind a valid checksum
/// never panics.
#[test]
fn every_body_byte_flip_behind_a_valid_checksum_errors_or_resumes_without_panicking() {
    let mut env = BanditEnv::new(8);
    let mut trainer = PpoTrainer::new(config(), 3, 3);
    trainer.train_updates(&mut env, 2);
    let good = checkpoint_bytes(&trainer, &env);
    let mut decoded = 0;
    for position in 0..body_of(&good).len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let forged = forged(&good, |body| body[position] ^= flip);
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
