//! Versioned binary checkpoints for PPO training runs.
//!
//! A [`Checkpoint`] is the [`PpoTrainer`] itself plus the environment's
//! opaque state bytes: everything a training run needs to continue
//! *bit-identically* after a process restart. The trainer part is the
//! [`crate::PpoConfig`], the update counter, the per-update
//! [`crate::TrainingStats`] series, the policy's `ConvEncoder`/`Linear`
//! weights, the moments of its three Adam optimizers, its action-sampling
//! RNG, and the observation the next action would be conditioned on.
//! Decoding builds those types directly, so every shape check runs inside
//! [`Checkpoint::from_bytes`]. The resume-equals-uninterrupted contract is
//! enforced by `crates/rl/tests/checkpoint.rs`, mirroring the
//! `jobs=N ≡ jobs=1` determinism contract of the suite optimizer.
//!
//! # On-disk format (version 3)
//!
//! The file is the [`artifact::sealed`] envelope every rebuildable family
//! shares (version [`CHECKPOINT_VERSION`], body length, FNV-1a-64 of the
//! body), so a cut anywhere reads [`ArtifactError::Torn`] and damage inside
//! the body fails the checksum. The body is binary: little-endian
//! throughout, `f32` values stored as their IEEE-754 bit patterns so
//! round-trips are exact, vectors a `u64` length followed by the elements
//! (lengths are validated against the remaining input before any
//! allocation).
//!
//! ```text
//! body     PpoConfig, completed_updates, the five TrainingStats series,
//!          policy, pending observation, env state bytes
//! ```
//!
//! The body stores only what training cannot recompute. The env step
//! count, each Adam's step count and learning rate, and the encoder's
//! channels and window follow from the config and `completed_updates`
//! ([`PpoConfig::step_counts`], [`PpoConfig::learning_rate_of`]) and are
//! derived on decode. A config or update count whose counters would
//! overflow before the scheduled run ends is [`ArtifactError::Corrupt`], as
//! is every shape lie behind a valid checksum: nothing a decoded trainer
//! does next can overflow or panic.

use std::fmt;
use std::path::Path;

use artifact::{ArtifactError, StoreIo};
use nn::{Adam, ConvEncoder, Linear, Matrix};
use rand_chacha::{ChaCha8Rng, ChaChaState};

use crate::policy::ActorCritic;
use crate::ppo::{PpoConfig, PpoTrainer, TrainingStats};

/// The current checkpoint format version (the seal's family version).
pub const CHECKPOINT_VERSION: u32 = 3;

/// Why a checkpoint could not be taken, saved, resumed from or applied:
/// file damage is an [`ArtifactError`], the rest is about the environment.
#[derive(Debug)]
pub enum CheckpointError {
    /// The checkpoint file could not be read or written, or is damaged.
    Artifact(ArtifactError),
    /// The environment does not support state snapshots
    /// ([`crate::Env::state_bytes`] returned `None`), so a resumable
    /// checkpoint cannot be taken or applied.
    EnvSnapshotUnsupported,
    /// The environment rejected the checkpointed state
    /// ([`crate::Env::restore_state`] returned `false`), or the checkpointed
    /// policy takes another observation width or action count than the
    /// environment has — it was likely constructed for a different problem
    /// instance.
    EnvRejectedState,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Artifact(err) => write!(f, "checkpoint: {err}"),
            CheckpointError::EnvSnapshotUnsupported => {
                write!(f, "environment does not support state snapshots")
            }
            CheckpointError::EnvRejectedState => {
                write!(f, "environment rejected the checkpointed state")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Artifact(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ArtifactError> for CheckpointError {
    fn from(err: ArtifactError) -> Self {
        CheckpointError::Artifact(err)
    }
}

/// The name damage found in an in-memory checkpoint is reported under
/// (a file read names its path).
const IN_MEMORY: &str = "checkpoint";

/// A complete, versioned snapshot of a PPO training run at an update
/// boundary. See the module docs for the serialized layout.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The trainer: config, update counter, statistics, policy and the
    /// pending observation.
    pub trainer: PpoTrainer,
    /// Opaque environment state, produced and consumed by the env itself
    /// ([`crate::Env::state_bytes`]).
    pub env_state: Vec<u8>,
}

impl Checkpoint {
    /// Serializes the checkpoint: its version-3 body, sealed.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        artifact::sealed(CHECKPOINT_VERSION, &encode(&self.trainer, &self.env_state))
    }

    /// Decodes a checkpoint from bytes; errors name the file
    /// `checkpoint`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ArtifactError`]: every error of [`artifact::open`]
    /// (`Torn` for a cut anywhere, `UnsupportedVersion` for another version
    /// or bytes that are not sealed, such as a version-2 file), then
    /// `Corrupt` for any structural inconsistency of the body (a weight,
    /// moment or observation whose length disagrees with the declared
    /// shape, or counters that overflow). Never panics on hostile input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        Self::decode(Path::new(IN_MEMORY), bytes)
    }

    fn decode(path: &Path, bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = Reader::new(path, artifact::open(path, bytes, CHECKPOINT_VERSION)?);
        let config = decode_config(&mut r)?;
        let completed_updates = r.usize()?;
        // The counters must fit up to the last update of the scheduled run,
        // not only those of the updates behind it; fitting there, they fit
        // here.
        let (steps, adam_steps) = config
            .step_counts(completed_updates.max(config.total_updates()))
            .and(config.step_counts(completed_updates))
            .ok_or_else(|| {
                r.corrupt(format!(
                    "{completed_updates} updates overflow a step counter"
                ))
            })?;
        let stats = TrainingStats {
            steps,
            episodic_returns: r.f32_vec()?,
            approx_kl: r.f32_vec()?,
            entropy: r.f32_vec()?,
            policy_loss: r.f32_vec()?,
            value_loss: r.f32_vec()?,
        };
        let learning_rate = config.learning_rate_of(completed_updates.saturating_sub(1));
        let policy = decode_policy(&mut r, &config, learning_rate, adam_steps)?;
        let pending_observation = match r.u8()? {
            0 => None,
            1 => Some(decode_observation(&mut r, policy.encoder.input_features())?),
            other => return Err(r.corrupt(format!("bad observation flag {other}"))),
        };
        let env_state = r.byte_vec()?;
        if r.remaining() != 0 {
            return Err(r.corrupt(format!("{} trailing bytes after content", r.remaining())));
        }
        Ok(Checkpoint {
            trainer: PpoTrainer {
                config,
                policy,
                completed_updates,
                stats,
                pending_observation,
            },
            env_state,
        })
    }

    /// Writes the checkpoint to a file through `io`, atomically
    /// ([`artifact::seal_bytes`]): a kill mid-save leaves the previous
    /// checkpoint, and concurrent saves of one path each stage their own
    /// file.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] when the file cannot be written.
    pub fn write(&self, io: &dyn StoreIo, path: &Path) -> Result<(), ArtifactError> {
        write(io, path, &self.trainer, &self.env_state)
    }

    /// Reads and decodes a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] when the file cannot be read, or any
    /// decoding error of [`Checkpoint::from_bytes`], naming `path`.
    pub fn read(path: &Path) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)?;
        Self::decode(path, &bytes)
    }
}

/// Publishes the checkpoint of `trainer` and `env_state` at `path` (see
/// [`Checkpoint::write`]), reading the trainer in place:
/// [`PpoTrainer::save_checkpoint`] copies nothing but the bytes.
pub(crate) fn write(
    io: &dyn StoreIo,
    path: &Path,
    trainer: &PpoTrainer,
    env_state: &[u8],
) -> Result<(), ArtifactError> {
    let body = encode(trainer, env_state);
    artifact::seal_bytes(io, path, CHECKPOINT_VERSION, &body).map_err(ArtifactError::Io)
}

/// The version-3 body of `trainer` and `env_state`.
fn encode(trainer: &PpoTrainer, env_state: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    encode_config(&mut w, &trainer.config);
    w.u64(trainer.completed_updates as u64);
    let stats = &trainer.stats;
    for series in [
        &stats.episodic_returns,
        &stats.approx_kl,
        &stats.entropy,
        &stats.policy_loss,
        &stats.value_loss,
    ] {
        w.f32_vec(series);
    }
    encode_policy(&mut w, &trainer.policy);
    match &trainer.pending_observation {
        Some(obs) => {
            w.u8(1);
            w.u64(obs.rows() as u64);
            w.u64(obs.cols() as u64);
            w.f32_vec(obs.data());
        }
        None => w.u8(0),
    }
    w.byte_vec(env_state);
    w.buf
}

fn encode_config(w: &mut Writer, config: &PpoConfig) {
    w.f32(config.learning_rate);
    w.u8(u8::from(config.anneal_lr));
    w.f32(config.gamma);
    w.f32(config.gae_lambda);
    w.f32(config.clip_coef);
    w.f32(config.ent_coef);
    w.f32(config.vf_coef);
    w.u64(config.rollout_steps as u64);
    w.u64(config.minibatches as u64);
    w.u64(config.update_epochs as u64);
    w.u64(config.total_steps as u64);
    w.u64(config.channels as u64);
    w.u64(config.kernel as u64);
    w.u64(config.seed);
}

fn decode_config(r: &mut Reader<'_>) -> Result<PpoConfig, ArtifactError> {
    let config = PpoConfig {
        learning_rate: r.f32()?,
        anneal_lr: r.u8()? != 0,
        gamma: r.f32()?,
        gae_lambda: r.f32()?,
        clip_coef: r.f32()?,
        ent_coef: r.f32()?,
        vf_coef: r.f32()?,
        rollout_steps: r.usize()?,
        minibatches: r.usize()?,
        update_epochs: r.usize()?,
        total_steps: r.usize()?,
        channels: r.usize()?,
        kernel: r.usize()?,
        seed: r.u64()?,
    };
    if config.rollout_steps == 0 {
        // The update count divides by it.
        return Err(r.corrupt("zero rollout steps".into()));
    }
    Ok(config)
}

fn encode_policy(w: &mut Writer, policy: &ActorCritic) {
    w.u64(policy.encoder.input_features() as u64);
    w.u64(policy.actor.out_features() as u64);
    for layer in [
        (policy.encoder.weight_values(), policy.encoder.bias_values()),
        (policy.actor.weight_values(), policy.actor.bias_values()),
        (policy.critic.weight_values(), policy.critic.bias_values()),
    ] {
        w.f32_vec(layer.0);
        w.f32_vec(layer.1);
    }
    for opt in [&policy.encoder_opt, &policy.actor_opt, &policy.critic_opt] {
        w.f32_vec(opt.first_moment());
        w.f32_vec(opt.second_moment());
    }
    let rng = policy.rng.state();
    for word in rng.key {
        w.u32(word);
    }
    w.u64(rng.counter);
    for word in rng.nonce {
        w.u32(word);
    }
    for word in rng.buffer {
        w.u32(word);
    }
    w.u32(u32::try_from(rng.index).unwrap_or(u32::MAX));
}

/// Decodes the policy `config` shapes, whose three optimizers each hold
/// `learning_rate` and have taken `adam_steps` steps.
fn decode_policy(
    r: &mut Reader<'_>,
    config: &PpoConfig,
    learning_rate: f32,
    adam_steps: u64,
) -> Result<ActorCritic, ArtifactError> {
    let (channels, kernel) = (config.channels, config.kernel);
    let features = r.usize()?;
    let n_actions = r.usize()?;
    let encoder = ConvEncoder::from_parts(channels, kernel, features, r.f32_vec()?, r.f32_vec()?)
        .ok_or_else(|| r.corrupt("encoder weight shape mismatch".into()))?;
    let actor = Linear::from_parts(channels, n_actions, r.f32_vec()?, r.f32_vec()?)
        .ok_or_else(|| r.corrupt("actor weight shape mismatch".into()))?;
    let critic = Linear::from_parts(channels, 1, r.f32_vec()?, r.f32_vec()?)
        .ok_or_else(|| r.corrupt("critic weight shape mismatch".into()))?;
    let mut adam = |params: usize, layer: &str| -> Result<Adam, ArtifactError> {
        let first_moment = r.f32_vec()?;
        if first_moment.len() != params {
            return Err(r.corrupt(format!("{layer} optimizer moment length mismatch")));
        }
        Adam::from_state(learning_rate, adam_steps, first_moment, r.f32_vec()?)
            .ok_or_else(|| r.corrupt(format!("{layer} optimizer moment vectors disagree")))
    };
    let encoder_opt = adam(encoder.parameter_count(), "encoder")?;
    let actor_opt = adam(actor.parameter_count(), "actor")?;
    let critic_opt = adam(critic.parameter_count(), "critic")?;
    let mut key = [0u32; 8];
    for word in &mut key {
        *word = r.u32()?;
    }
    let counter = r.u64()?;
    let mut nonce = [0u32; 2];
    for word in &mut nonce {
        *word = r.u32()?;
    }
    let mut buffer = [0u32; 16];
    for word in &mut buffer {
        *word = r.u32()?;
    }
    let index = r.u32()? as usize;
    Ok(ActorCritic {
        encoder,
        actor,
        critic,
        encoder_opt,
        actor_opt,
        critic_opt,
        rng: ChaCha8Rng::from_state(ChaChaState {
            key,
            counter,
            nonce,
            buffer,
            index,
        }),
    })
}

/// Decodes a pending observation, which must be `features` wide.
fn decode_observation(r: &mut Reader<'_>, features: usize) -> Result<Matrix, ArtifactError> {
    let rows = r.usize()?;
    let cols = r.usize()?;
    let data = r.f32_vec()?;
    if cols != features || Some(data.len()) != rows.checked_mul(cols) {
        return Err(r.corrupt(format!(
            "observation is {rows}x{cols} of a {features}-feature policy but carries {} values",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    fn f32_vec(&mut self, values: &[f32]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.f32(v);
        }
    }

    fn byte_vec(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }
}

struct Reader<'a> {
    path: &'a Path,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(path: &'a Path, buf: &'a [u8]) -> Self {
        Reader { path, buf, pos: 0 }
    }

    fn corrupt(&self, detail: String) -> ArtifactError {
        ArtifactError::Corrupt {
            path: self.path.to_path_buf(),
            detail,
        }
    }

    /// The seal fixed the body's length, so a body that ends early is
    /// malformed, not cut.
    fn short(&self) -> ArtifactError {
        self.corrupt(format!("the body ends at offset {}", self.pos))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(self.short());
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(bytes))
    }

    fn usize(&mut self) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("length {v} overflows")))
    }

    fn f32(&mut self) -> Result<f32, ArtifactError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a length-prefixed `f32` vector, validating the declared length
    /// against the remaining input before allocating.
    fn f32_vec(&mut self) -> Result<Vec<f32>, ArtifactError> {
        let len = self.usize()?;
        if len > self.remaining() / 4 {
            return Err(self.short());
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(self.f32()?);
        }
        Ok(values)
    }

    fn byte_vec(&mut self) -> Result<Vec<u8>, ArtifactError> {
        let len = self.usize()?;
        Ok(self.take(len)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_envs::BanditEnv;
    use artifact::UnsyncedIo;

    /// A bandit run two updates in: statistics, Adam moments, RNG and the
    /// pending observation are all mid-stream.
    fn sample_checkpoint() -> Checkpoint {
        let mut env = BanditEnv::new(8);
        let mut trainer = PpoTrainer::new(PpoConfig::tiny(), 3, 3);
        trainer.train_updates(&mut env, 2);
        trainer.checkpoint(&env).expect("bandit snapshots")
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let bytes = sample_checkpoint().to_bytes();
        let decoded = Checkpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(decoded.to_bytes(), bytes);
        assert_eq!(decoded.trainer.completed_updates(), 2);
        assert!(decoded.trainer.pending_observation.is_some());
    }

    /// Lies a checksum cannot catch are `Corrupt`: an observation another
    /// width than the policy reads, and a config whose update count would
    /// divide by zero.
    #[test]
    fn an_untrainable_checkpoint_is_corrupt() {
        let env = BanditEnv::new(8);
        let mut wide = PpoTrainer::new(PpoConfig::tiny(), 3, 3);
        wide.pending_observation = Some(Matrix::zeros(2, 5));
        let no_rollout = PpoTrainer::new(
            PpoConfig {
                rollout_steps: 0,
                ..PpoConfig::tiny()
            },
            3,
            3,
        );
        for trainer in [wide, no_rollout] {
            let bytes = trainer.checkpoint(&env).expect("snapshot").to_bytes();
            let err = Checkpoint::from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}");
        }
    }

    /// The version-2 layout (magic, version, body, FNV trailer), like any
    /// other bytes that do not begin as a seal, is version 0.
    #[test]
    fn bad_magic_is_rejected() {
        let mut v2 = b"CASRLCKP".to_vec();
        v2.extend(2u32.to_le_bytes());
        v2.extend([0u8; 64]);
        for bytes in [v2.as_slice(), b"not a checkpoint at all, sorry"] {
            let err = Checkpoint::from_bytes(bytes).unwrap_err();
            assert!(
                matches!(err, ArtifactError::UnsupportedVersion { found: 0, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let bytes = sample_checkpoint().to_bytes();
        let body = artifact::open(Path::new(IN_MEMORY), &bytes, CHECKPOINT_VERSION).unwrap();
        let err = Checkpoint::from_bytes(&artifact::sealed(99, body)).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::UnsupportedVersion {
                    found: 99,
                    supported: CHECKPOINT_VERSION,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn every_truncation_point_errors_without_panicking() {
        let bytes = sample_checkpoint().to_bytes();
        for len in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, ArtifactError::Torn { .. }),
                "prefix of {len} bytes gave {err}"
            );
        }
    }

    #[test]
    fn flipped_bits_fail_the_checksum() {
        let bytes = sample_checkpoint().to_bytes();
        let header = bytes.iter().position(|b| *b == b'\n').unwrap() + 1;
        for position in [header, bytes.len() / 2, bytes.len() - 3] {
            let mut damaged = bytes.clone();
            damaged[position] ^= 0x40;
            let err = Checkpoint::from_bytes(&damaged).unwrap_err();
            assert!(
                matches!(err, ArtifactError::ChecksumMismatch { .. }),
                "flip at {position} gave {err}"
            );
        }
    }

    /// The counters and learning rates a checkpoint does not store decode
    /// to the values training left, annealed or not.
    #[test]
    fn derived_counters_and_learning_rates_are_the_trained_ones() {
        for anneal_lr in [false, true] {
            let mut env = BanditEnv::new(8);
            let config = PpoConfig {
                anneal_lr,
                ..PpoConfig::tiny()
            };
            let mut trainer = PpoTrainer::new(config, 3, 3);
            for _ in 0..3 {
                let decoded = Checkpoint::from_bytes(&trainer.checkpoint(&env).unwrap().to_bytes())
                    .unwrap()
                    .trainer;
                assert_eq!(decoded.stats.steps, trainer.stats.steps);
                for (ours, theirs) in [
                    (&decoded.policy.encoder_opt, &trainer.policy.encoder_opt),
                    (&decoded.policy.actor_opt, &trainer.policy.actor_opt),
                    (&decoded.policy.critic_opt, &trainer.policy.critic_opt),
                ] {
                    assert_eq!(ours.step_count(), theirs.step_count());
                    assert_eq!(
                        ours.learning_rate().to_bits(),
                        theirs.learning_rate().to_bits()
                    );
                }
                trainer.train_updates(&mut env, 1);
            }
        }
    }

    #[test]
    fn garbage_bytes_error_cleanly() {
        let mut garbage = artifact::sealed(CHECKPOINT_VERSION, b"");
        assert!(Checkpoint::from_bytes(&garbage).is_err());
        garbage = artifact::sealed(
            CHECKPOINT_VERSION,
            &(0u16..4096).map(|i| (i % 251) as u8).collect::<Vec<_>>(),
        );
        assert!(Checkpoint::from_bytes(&garbage).is_err());
        assert!(Checkpoint::from_bytes(&[]).is_err());
        assert!(Checkpoint::from_bytes(&[0xFF; 64]).is_err());
    }

    #[test]
    fn file_round_trip_and_missing_file_error() {
        let dir = std::env::temp_dir().join(format!(
            "cuasmrl-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("run.ckpt");
        let checkpoint = sample_checkpoint();
        checkpoint.write(&UnsyncedIo, &path).expect("write");
        assert_eq!(
            Checkpoint::read(&path).expect("read").to_bytes(),
            checkpoint.to_bytes()
        );
        let missing = Checkpoint::read(&dir.join("absent.ckpt")).unwrap_err();
        assert!(matches!(missing, ArtifactError::Io(_)), "{missing}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
