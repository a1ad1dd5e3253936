//! Proximal policy optimization (§3.7).
//!
//! The default hyperparameters follow the large-scale PPO implementation
//! study the paper cites (Huang et al., "The 37 Implementation Details of
//! Proximal Policy Optimization"): learning rate 2.5e-4 with annealing,
//! γ = 0.99, GAE-λ = 0.95, clip 0.2, 4 update epochs over 4 minibatches,
//! entropy coefficient 0.01 and value coefficient 0.5. The same setting is
//! used for all kernels (§3.7), and §5.5 sweeps the learning rate and batch
//! size around it.

use std::path::Path;

use artifact::{ArtifactError, UnsyncedIo};
use nn::Matrix;
use serde::{Deserialize, Serialize};

use crate::buffer::{Advantages, RolloutBuffer, Transition};
use crate::cancel::CancelToken;
use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::env::Env;
use crate::policy::{ActorCritic, Sample, UpdateConfig};

/// PPO hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Linearly anneal the learning rate to zero over training.
    pub anneal_lr: bool,
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub gae_lambda: f32,
    /// PPO clipping coefficient ε.
    pub clip_coef: f32,
    /// Entropy bonus coefficient.
    pub ent_coef: f32,
    /// Value loss coefficient.
    pub vf_coef: f32,
    /// Environment steps collected per policy update (the training batch
    /// size swept in Figure 8).
    pub rollout_steps: usize,
    /// Number of minibatches per epoch.
    pub minibatches: usize,
    /// Number of epochs over each rollout.
    pub update_epochs: usize,
    /// Total environment steps to train for.
    pub total_steps: usize,
    /// Convolutional encoder output channels.
    pub channels: usize,
    /// Convolutional encoder window (instructions).
    pub kernel: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            learning_rate: 2.5e-4,
            anneal_lr: true,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_coef: 0.2,
            ent_coef: 0.01,
            vf_coef: 0.5,
            rollout_steps: 64,
            minibatches: 4,
            update_epochs: 4,
            total_steps: 15_000,
            channels: 32,
            kernel: 5,
            seed: 0,
        }
    }
}

impl PpoConfig {
    /// A configuration small enough for unit tests and examples.
    #[must_use]
    pub fn tiny() -> Self {
        PpoConfig {
            learning_rate: 1e-2,
            anneal_lr: false,
            rollout_steps: 32,
            total_steps: 512,
            channels: 8,
            kernel: 3,
            ..PpoConfig::default()
        }
    }

    /// Number of policy updates the configuration schedules in total.
    pub(crate) fn total_updates(&self) -> usize {
        (self.total_steps / self.rollout_steps).max(1)
    }

    /// The learning rate of update `update` (counted from 0): linearly
    /// annealed to a 5 % floor over the run when `anneal_lr` is set,
    /// `learning_rate` otherwise.
    pub(crate) fn learning_rate_of(&self, update: usize) -> f32 {
        if !self.anneal_lr {
            return self.learning_rate;
        }
        let frac = 1.0 - update as f32 / self.total_updates() as f32;
        self.learning_rate * frac.max(0.05)
    }

    /// The env steps and the Adam steps of each optimizer that `updates`
    /// completed updates leave, or `None` when one overflows: an update
    /// steps the env `rollout_steps` times, then makes `update_epochs`
    /// passes over the rollout in minibatches of `max(rollout_steps /
    /// minibatches, 1)` samples, one Adam step each
    /// ([`PpoTrainer::train_updates_until`]).
    pub(crate) fn step_counts(&self, updates: usize) -> Option<(usize, u64)> {
        let minibatch = (self.rollout_steps / self.minibatches.max(1)).max(1);
        let per_update = self
            .rollout_steps
            .div_ceil(minibatch)
            .checked_mul(self.update_epochs)?;
        let adam_steps = u64::try_from(updates.checked_mul(per_update)?).ok()?;
        Some((updates.checked_mul(self.rollout_steps)?, adam_steps))
    }
}

/// Per-update training statistics, the time series plotted in Figures 8
/// and 12 of the paper.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingStats {
    /// Environment steps completed.
    pub steps: usize,
    /// Episodic returns in completion order.
    pub episodic_returns: Vec<f32>,
    /// Approximate KL divergence per update.
    pub approx_kl: Vec<f32>,
    /// Mean policy entropy per update.
    pub entropy: Vec<f32>,
    /// Mean policy loss per update.
    pub policy_loss: Vec<f32>,
    /// Mean value loss per update.
    pub value_loss: Vec<f32>,
}

impl TrainingStats {
    /// Mean of the last `n` episodic returns (the "converged" return).
    #[must_use]
    pub fn final_return(&self, n: usize) -> f32 {
        if self.episodic_returns.is_empty() {
            return 0.0;
        }
        let tail = &self.episodic_returns[self.episodic_returns.len().saturating_sub(n)..];
        tail.iter().sum::<f32>() / tail.len() as f32
    }
}

/// The PPO trainer: owns the policy and runs collect/update cycles against
/// an environment.
///
/// Training is resumable: the trainer tracks how many updates it has
/// completed and accumulates its [`TrainingStats`] internally, so a run can
/// be advanced in slices with [`PpoTrainer::train_updates`], checkpointed
/// at any update boundary with [`PpoTrainer::save_checkpoint`] and continued
/// in a fresh process via [`PpoTrainer::resume_from`] — bit-identically to a
/// run that was never interrupted.
///
/// Its fields are exactly what a [`Checkpoint`] stores.
#[derive(Debug, Clone)]
pub struct PpoTrainer {
    pub(crate) config: PpoConfig,
    pub(crate) policy: ActorCritic,
    /// Policy updates completed so far (the resume point).
    pub(crate) completed_updates: usize,
    /// Statistics accumulated over the completed updates.
    pub(crate) stats: TrainingStats,
    /// The observation the next action will be conditioned on, carried
    /// across update boundaries (and into checkpoints) so pausing never
    /// perturbs the trajectory.
    pub(crate) pending_observation: Option<Matrix>,
}

impl PpoTrainer {
    /// Creates a trainer for an environment with `features` observation
    /// columns and `n_actions` actions.
    #[must_use]
    pub fn new(config: PpoConfig, features: usize, n_actions: usize) -> Self {
        let policy = ActorCritic::new(
            config.seed,
            features,
            config.channels,
            config.kernel,
            n_actions,
            config.learning_rate,
        );
        PpoTrainer {
            config,
            policy,
            completed_updates: 0,
            stats: TrainingStats::default(),
            pending_observation: None,
        }
    }

    /// The training configuration.
    #[must_use]
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// The current policy.
    #[must_use]
    pub fn policy(&self) -> &ActorCritic {
        &self.policy
    }

    /// Mutable access to the policy.
    pub fn policy_mut(&mut self) -> &mut ActorCritic {
        &mut self.policy
    }

    /// Number of policy updates the configuration schedules in total.
    #[must_use]
    pub fn total_updates(&self) -> usize {
        self.config.total_updates()
    }

    /// Number of policy updates completed so far.
    #[must_use]
    pub fn completed_updates(&self) -> usize {
        self.completed_updates
    }

    /// Whether the scheduled training run has completed.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.completed_updates >= self.total_updates()
    }

    /// The statistics accumulated over the completed updates.
    #[must_use]
    pub fn stats(&self) -> &TrainingStats {
        &self.stats
    }

    /// Trains against `env` until `total_steps` environment steps have been
    /// collected, returning the training statistics. Resumes from wherever
    /// the trainer left off (a fresh trainer starts at update 0).
    pub fn train<E: Env>(&mut self, env: &mut E) -> TrainingStats {
        self.train_updates(env, usize::MAX);
        self.stats.clone()
    }

    /// Runs at most `max_updates` more policy updates against `env` and
    /// returns whether the scheduled run is now complete. This is the
    /// checkpointing entry point: between calls the trainer is at an update
    /// boundary, and a checkpoint taken there resumes bit-identically.
    pub fn train_updates<E: Env>(&mut self, env: &mut E, max_updates: usize) -> bool {
        self.train_updates_until(env, max_updates, &CancelToken::new())
    }

    /// [`PpoTrainer::train_updates`] with cooperative preemption: the token
    /// is polled at every update boundary, and a fired token makes the loop
    /// return early with the trainer still at a valid boundary — checkpoint
    /// it and the run resumes bit-identically to one that was never
    /// preempted. Updates are never abandoned mid-way; a cancel observed
    /// during an update takes effect once that update completes.
    pub fn train_updates_until<E: Env>(
        &mut self,
        env: &mut E,
        max_updates: usize,
        cancel: &CancelToken,
    ) -> bool {
        let total_updates = self.total_updates();
        if self.completed_updates >= total_updates || max_updates == 0 || cancel.is_cancelled() {
            return self.completed_updates >= total_updates;
        }
        let mut observation = match self.pending_observation.take() {
            Some(observation) => observation,
            None => env.reset(),
        };
        let mut ran = 0;
        while self.completed_updates < total_updates && ran < max_updates && !cancel.is_cancelled()
        {
            let learning_rate = self.config.learning_rate_of(self.completed_updates);
            self.policy.set_learning_rate(learning_rate);
            let mut buffer = RolloutBuffer::new();
            while buffer.len() < self.config.rollout_steps {
                let mask = env.action_mask();
                let sample = self.policy.act(&observation, &mask);
                let Some(action) = sample.action else {
                    // No valid action: the episode terminates immediately
                    // (§3.5: "if no actions are available, the episode is
                    // terminated immediately").
                    observation = env.reset();
                    continue;
                };
                let step = env.step(action);
                buffer.push(Transition {
                    observation: observation.clone(),
                    mask,
                    action,
                    log_prob: sample.log_prob,
                    value: sample.value,
                    reward: step.reward,
                    done: step.done,
                });
                observation = if step.done {
                    env.reset()
                } else {
                    step.observation
                };
                self.stats.steps += 1;
            }
            self.stats
                .episodic_returns
                .extend(buffer.episodic_returns().iter().copied());

            let last_value = self.policy.value(&observation);
            let adv =
                buffer.compute_advantages(self.config.gamma, self.config.gae_lambda, last_value);
            self.update_policy(&buffer, &adv);
            self.completed_updates += 1;
            ran += 1;
        }
        self.pending_observation = Some(observation);
        self.completed_updates >= total_updates
    }

    /// Normalizes advantages and runs the clipped-PPO epochs over
    /// minibatches, recording the per-update statistics into `self.stats`.
    fn update_policy(&mut self, buffer: &RolloutBuffer, adv: &Advantages) {
        if buffer.is_empty() {
            return;
        }
        // Normalize advantages over the rollout.
        let mean = adv.advantages.iter().sum::<f32>() / adv.advantages.len() as f32;
        let var = adv
            .advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f32>()
            / adv.advantages.len() as f32;
        let std = var.sqrt().max(1e-6);
        let normalized: Vec<f32> = adv.advantages.iter().map(|a| (a - mean) / std).collect();

        let update_config = UpdateConfig {
            clip_coef: self.config.clip_coef,
            ent_coef: self.config.ent_coef,
            vf_coef: self.config.vf_coef,
        };
        let batch = buffer.transitions();
        let minibatch_size = (batch.len() / self.config.minibatches.max(1)).max(1);
        let mut kl_acc = 0.0;
        let mut entropy_acc = 0.0;
        let mut policy_loss_acc = 0.0;
        let mut value_loss_acc = 0.0;
        let mut update_count = 0.0;
        for _epoch in 0..self.config.update_epochs {
            for chunk_start in (0..batch.len()).step_by(minibatch_size) {
                let chunk_end = (chunk_start + minibatch_size).min(batch.len());
                let samples: Vec<Sample<'_>> = (chunk_start..chunk_end)
                    .map(|i| Sample {
                        observation: &batch[i].observation,
                        mask: &batch[i].mask,
                        action: batch[i].action,
                        old_log_prob: batch[i].log_prob,
                        advantage: normalized[i],
                        ret: adv.returns[i],
                    })
                    .collect();
                let update_stats = self.policy.update_minibatch(&samples, &update_config);
                kl_acc += update_stats.approx_kl;
                entropy_acc += update_stats.entropy;
                policy_loss_acc += update_stats.policy_loss;
                value_loss_acc += update_stats.value_loss;
                update_count += 1.0;
            }
        }
        if update_count > 0.0 {
            self.stats.approx_kl.push(kl_acc / update_count);
            self.stats.entropy.push(entropy_acc / update_count);
            self.stats.policy_loss.push(policy_loss_acc / update_count);
            self.stats.value_loss.push(value_loss_acc / update_count);
        }
    }

    /// Captures a resumable [`Checkpoint`] of this trainer and the
    /// environment it is training against. Must be called at an update
    /// boundary — i.e. between [`PpoTrainer::train_updates`] calls — for the
    /// resume-equals-uninterrupted guarantee to hold.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::EnvSnapshotUnsupported`] when the env does
    /// not implement [`Env::state_bytes`].
    pub fn checkpoint<E: Env>(&self, env: &E) -> Result<Checkpoint, CheckpointError> {
        Ok(Checkpoint {
            trainer: self.clone(),
            env_state: env_state(env)?,
        })
    }

    /// Writes a [`PpoTrainer::checkpoint`] to `path` — unsynced: a damaged
    /// checkpoint costs a cold restart of one search, never an answer. The
    /// bytes are encoded from this trainer in place, with no copy of it.
    ///
    /// # Errors
    ///
    /// Propagates snapshot and I/O errors as [`CheckpointError`].
    pub fn save_checkpoint<E: Env>(&self, env: &E, path: &Path) -> Result<(), CheckpointError> {
        checkpoint::write(&UnsyncedIo, path, self, &env_state(env)?)
            .map_err(CheckpointError::Artifact)
    }

    /// Rebuilds a trainer from a checkpoint and restores the environment's
    /// state, so that continuing with [`PpoTrainer::train`] /
    /// [`PpoTrainer::train_updates`] is bit-identical to the run the
    /// checkpoint was taken from. `env` must be constructed for the same
    /// problem instance the checkpointed run was training on.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::EnvRejectedState`] when the checkpointed
    /// policy was built for another observation width or action count than
    /// `env`'s (checked before `env` is touched) or the env refuses the
    /// state bytes.
    pub fn resume_from_checkpoint<E: Env>(
        checkpoint: &Checkpoint,
        env: &mut E,
    ) -> Result<Self, CheckpointError> {
        let policy = &checkpoint.trainer.policy;
        if (policy.encoder.input_features(), policy.action_count())
            != (env.observation_features(), env.action_count())
            || !env.restore_state(&checkpoint.env_state)
        {
            return Err(CheckpointError::EnvRejectedState);
        }
        Ok(checkpoint.trainer.clone())
    }

    /// Reads a checkpoint file and resumes from it (see
    /// [`PpoTrainer::resume_from_checkpoint`]).
    ///
    /// # Errors
    ///
    /// Propagates read, decode and restore errors as [`CheckpointError`].
    pub fn resume_from<E: Env>(path: &Path, env: &mut E) -> Result<Self, CheckpointError> {
        let checkpoint = Checkpoint::read(path)?;
        Self::resume_from_checkpoint(&checkpoint, env)
    }

    /// Warm-restart entry point: resumes from the checkpoint at `path` when
    /// one exists, otherwise starts a fresh trainer with `config`. Returns
    /// the trainer and whether it was resumed. A long-running service uses
    /// this to pick an interrupted training run back up after a process
    /// restart without special-casing the first run.
    ///
    /// A missing checkpoint file is the normal cold-start case, not an
    /// error. Anything else — a present-but-corrupt file, a wrong-version
    /// file, an env that refuses the state — is surfaced as the typed
    /// [`CheckpointError`] so the caller can decide whether to discard the
    /// checkpoint and start over.
    ///
    /// # Errors
    ///
    /// Propagates every [`CheckpointError`] except "file not found".
    pub fn resume_from_or_new<E: Env>(
        path: &Path,
        env: &mut E,
        config: PpoConfig,
        features: usize,
        n_actions: usize,
    ) -> Result<(Self, bool), CheckpointError> {
        match Self::resume_from(path, env) {
            Ok(trainer) => Ok((trainer, true)),
            Err(CheckpointError::Artifact(ArtifactError::Io(e)))
                if e.kind() == std::io::ErrorKind::NotFound =>
            {
                Ok((PpoTrainer::new(config, features, n_actions), false))
            }
            Err(e) => Err(e),
        }
    }
}

/// The env's opaque snapshot, which a checkpoint stores beside the trainer.
fn env_state<E: Env>(env: &E) -> Result<Vec<u8>, CheckpointError> {
    env.state_bytes()
        .ok_or(CheckpointError::EnvSnapshotUnsupported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::BanditEnv;

    #[test]
    fn ppo_learns_the_rewarding_action_on_a_bandit() {
        let mut env = BanditEnv::new(8);
        let config = PpoConfig {
            total_steps: 2048,
            rollout_steps: 64,
            learning_rate: 2e-2,
            ent_coef: 0.001,
            ..PpoConfig::tiny()
        };
        let mut trainer = PpoTrainer::new(config, env.observation_features(), env.action_count());
        let stats = trainer.train(&mut env);
        assert!(stats.steps >= 2048);
        assert!(!stats.episodic_returns.is_empty());
        // Early episodes are near 0 on average (random ±1); after training
        // the agent should consistently pick the +1 action (return ≈ 8).
        let last = stats.final_return(5);
        assert!(
            last > 4.0,
            "expected the trained policy to prefer the rewarding action, got {last}"
        );
        // The greedy policy picks the rewarding action.
        let obs = env.reset();
        let greedy = trainer.policy().act_greedy(&obs, &env.action_mask());
        assert_eq!(greedy, Some(1));
    }

    #[test]
    fn training_statistics_are_recorded_per_update() {
        let mut env = BanditEnv::new(4);
        let config = PpoConfig {
            total_steps: 256,
            rollout_steps: 64,
            ..PpoConfig::tiny()
        };
        let mut trainer = PpoTrainer::new(config, env.observation_features(), env.action_count());
        let stats = trainer.train(&mut env);
        assert_eq!(stats.approx_kl.len(), 256 / 64);
        assert_eq!(stats.entropy.len(), stats.approx_kl.len());
        assert!(stats.entropy.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn default_hyperparameters_match_the_study() {
        let config = PpoConfig::default();
        assert_eq!(config.learning_rate, 2.5e-4);
        assert_eq!(config.clip_coef, 0.2);
        assert_eq!(config.gamma, 0.99);
        assert_eq!(config.gae_lambda, 0.95);
        assert_eq!(config.update_epochs, 4);
        assert_eq!(config.minibatches, 4);
    }

    #[test]
    fn final_return_handles_empty_history() {
        assert_eq!(TrainingStats::default().final_return(5), 0.0);
    }

    #[test]
    fn a_checkpoint_for_another_env_shape_is_refused_before_the_env_is_touched() {
        let bandit = BanditEnv::new(8);
        let (features, actions) = (bandit.observation_features(), bandit.action_count());
        for (other_features, other_actions) in [(5, actions), (features, 4)] {
            let mut env = BanditEnv::new(8);
            let trainer = PpoTrainer::new(PpoConfig::tiny(), other_features, other_actions);
            let checkpoint = trainer.checkpoint(&bandit).expect("bandit snapshots");
            env.t = 5;
            assert!(
                matches!(
                    PpoTrainer::resume_from_checkpoint(&checkpoint, &mut env),
                    Err(CheckpointError::EnvRejectedState)
                ),
                "a {other_features}-feature, {other_actions}-action policy resumed on a bandit"
            );
            assert_eq!(env.t, 5, "the env was touched");
        }
    }

    #[test]
    fn a_cancelled_trainer_stays_at_a_boundary_and_resumes_identically() {
        let config = PpoConfig {
            total_steps: 256,
            rollout_steps: 64,
            ..PpoConfig::tiny()
        };

        let mut env = BanditEnv::new(8);
        let mut uninterrupted = PpoTrainer::new(config.clone(), 3, 3);
        let reference = uninterrupted.train(&mut env);

        // A pre-fired token runs zero updates and leaves the trainer
        // untouched.
        let mut env = BanditEnv::new(8);
        let mut trainer = PpoTrainer::new(config, 3, 3);
        let fired = CancelToken::new();
        fired.cancel();
        assert!(!trainer.train_updates_until(&mut env, usize::MAX, &fired));
        assert_eq!(trainer.completed_updates(), 0);

        // Preempt after one update, then finish: the spliced run matches the
        // uninterrupted one bit for bit.
        assert!(!trainer.train_updates_until(&mut env, 1, &CancelToken::new()));
        assert_eq!(trainer.completed_updates(), 1);
        assert!(trainer.train_updates_until(&mut env, usize::MAX, &CancelToken::new()));
        assert_eq!(trainer.stats().episodic_returns, reference.episodic_returns);
        assert_eq!(trainer.stats().approx_kl, reference.approx_kl);
    }
}
