//! The actor-critic policy network.
//!
//! As described in §3.5 of the paper, the agent encodes the embedded SASS
//! schedule with a convolutional network and produces per-action
//! probabilities with an MLP head; a value head shares the encoder. Invalid
//! actions are masked out of the categorical distribution.

use nn::{Adam, ConvEncoder, Linear, MaskedCategorical, Matrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A sampled action with the quantities PPO needs to store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionSample {
    /// The selected action, or `None` when every action was masked.
    pub action: Option<usize>,
    /// Log-probability of the selected action under the current policy.
    pub log_prob: f32,
    /// Value estimate of the observation.
    pub value: f32,
}

/// Hyperparameters of one PPO update step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateConfig {
    /// Clipping coefficient ε.
    pub clip_coef: f32,
    /// Entropy bonus coefficient.
    pub ent_coef: f32,
    /// Value-loss coefficient.
    pub vf_coef: f32,
}

/// Statistics of one minibatch update.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateStats {
    /// Mean clipped surrogate loss.
    pub policy_loss: f32,
    /// Mean value loss.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Approximate KL divergence between the old and updated policy.
    pub approx_kl: f32,
    /// Fraction of samples whose ratio was clipped.
    pub clip_fraction: f32,
}

/// One minibatch sample handed to [`ActorCritic::update_minibatch`].
#[derive(Debug, Clone)]
pub struct Sample<'a> {
    /// Observation.
    pub observation: &'a Matrix,
    /// Action mask at the time of the action.
    pub mask: &'a [bool],
    /// The action taken.
    pub action: usize,
    /// Log-probability under the behaviour policy.
    pub old_log_prob: f32,
    /// Normalized advantage.
    pub advantage: f32,
    /// Bootstrapped return.
    pub ret: f32,
}

/// The actor-critic network: shared convolutional encoder, actor head and
/// critic head, each with its own Adam state, and the action-sampling RNG.
/// A checkpoint stores these parts as they are (see `checkpoint.rs`).
#[derive(Debug, Clone)]
pub struct ActorCritic {
    pub(crate) encoder: ConvEncoder,
    pub(crate) actor: Linear,
    pub(crate) critic: Linear,
    pub(crate) encoder_opt: Adam,
    pub(crate) actor_opt: Adam,
    pub(crate) critic_opt: Adam,
    pub(crate) rng: ChaCha8Rng,
}

impl ActorCritic {
    /// Builds a policy for observations with `features` columns and
    /// `n_actions` discrete actions.
    #[must_use]
    pub fn new(
        seed: u64,
        features: usize,
        channels: usize,
        kernel: usize,
        n_actions: usize,
        learning_rate: f32,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let encoder = ConvEncoder::new(&mut rng, channels, kernel, features);
        let actor = Linear::new(&mut rng, channels, n_actions);
        let critic = Linear::new(&mut rng, channels, 1);
        let encoder_params = encoder.parameter_count();
        let actor_params = actor.parameter_count();
        let critic_params = critic.parameter_count();
        ActorCritic {
            encoder,
            actor,
            critic,
            encoder_opt: Adam::new(encoder_params, learning_rate),
            actor_opt: Adam::new(actor_params, learning_rate),
            critic_opt: Adam::new(critic_params, learning_rate),
            rng,
        }
    }

    /// Number of discrete actions this policy outputs.
    #[must_use]
    pub fn action_count(&self) -> usize {
        self.actor.out_features()
    }

    /// Replaces the learning rate of all three optimizers (annealing).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.encoder_opt.set_learning_rate(lr);
        self.actor_opt.set_learning_rate(lr);
        self.critic_opt.set_learning_rate(lr);
    }

    fn forward(&self, observation: &Matrix) -> (Vec<f32>, Vec<f32>, f32, Matrix) {
        let (pooled, activations) = self.encoder.forward(observation);
        let logits = self.actor.forward(&pooled);
        let value = self.critic.forward(&pooled)[0];
        (pooled, logits, value, activations)
    }

    /// The action distribution for an observation.
    #[must_use]
    pub fn distribution(&self, observation: &Matrix, mask: &[bool]) -> MaskedCategorical {
        let (_, logits, _, _) = self.forward(observation);
        MaskedCategorical::from_logits(&logits, mask)
    }

    /// Value estimate of an observation.
    #[must_use]
    pub fn value(&self, observation: &Matrix) -> f32 {
        self.forward(observation).2
    }

    /// Samples an action for rollout collection.
    pub fn act(&mut self, observation: &Matrix, mask: &[bool]) -> ActionSample {
        let (_, logits, value, _) = self.forward(observation);
        let dist = MaskedCategorical::from_logits(&logits, mask);
        let action = dist.sample(&mut self.rng);
        ActionSample {
            action,
            log_prob: action.map_or(0.0, |a| dist.log_prob(a)),
            value,
        }
    }

    /// Greedy (deterministic) action, used in inference mode (§5.7).
    #[must_use]
    pub fn act_greedy(&self, observation: &Matrix, mask: &[bool]) -> Option<usize> {
        self.distribution(observation, mask).argmax()
    }

    /// Performs one clipped-PPO gradient step on a minibatch and returns the
    /// update statistics.
    pub fn update_minibatch(
        &mut self,
        samples: &[Sample<'_>],
        config: &UpdateConfig,
    ) -> UpdateStats {
        if samples.is_empty() {
            return UpdateStats::default();
        }
        self.encoder.zero_grad();
        self.actor.zero_grad();
        self.critic.zero_grad();
        let scale = 1.0 / samples.len() as f32;
        let mut stats = UpdateStats::default();
        for sample in samples {
            let (pooled, logits, value, activations) = self.forward(sample.observation);
            let dist = MaskedCategorical::from_logits(&logits, sample.mask);
            let new_log_prob = dist.log_prob(sample.action);
            let entropy = dist.entropy();
            let log_ratio = (new_log_prob - sample.old_log_prob).clamp(-20.0, 20.0);
            let ratio = log_ratio.exp();
            let adv = sample.advantage;
            let unclipped = ratio * adv;
            let clipped = ratio.clamp(1.0 - config.clip_coef, 1.0 + config.clip_coef) * adv;
            let surrogate = unclipped.min(clipped);
            let clipped_active = unclipped > clipped + 1e-8;

            stats.policy_loss += -surrogate * scale;
            stats.value_loss += 0.5 * (value - sample.ret).powi(2) * scale;
            stats.entropy += entropy * scale;
            stats.approx_kl += ((ratio - 1.0) - log_ratio) * scale;
            if clipped_active {
                stats.clip_fraction += scale;
            }

            // Gradient of the loss with respect to the logits.
            let mut grad_logits = vec![0.0; logits.len()];
            if !clipped_active && new_log_prob.is_finite() {
                let logp_grad = dist.log_prob_grad(sample.action);
                for (g, lp) in grad_logits.iter_mut().zip(&logp_grad) {
                    *g += -adv * ratio * lp;
                }
            }
            let ent_grad = dist.entropy_grad();
            for (g, eg) in grad_logits.iter_mut().zip(&ent_grad) {
                *g += -config.ent_coef * eg;
            }
            for g in &mut grad_logits {
                *g *= scale;
            }
            // Gradient of the value loss with respect to the value output.
            let grad_value = vec![config.vf_coef * (value - sample.ret) * scale];

            let grad_pooled_actor = self.actor.backward(&pooled, &grad_logits);
            let grad_pooled_critic = self.critic.backward(&pooled, &grad_value);
            let grad_pooled: Vec<f32> = grad_pooled_actor
                .iter()
                .zip(&grad_pooled_critic)
                .map(|(a, c)| a + c)
                .collect();
            self.encoder
                .backward(sample.observation, &activations, &grad_pooled);
        }
        let encoder_grads = self.encoder.gradients();
        self.encoder_opt
            .step(&mut self.encoder.parameters_mut(), &encoder_grads);
        let actor_grads = self.actor.gradients();
        self.actor_opt
            .step(&mut self.actor.parameters_mut(), &actor_grads);
        let critic_grads = self.critic.gradients();
        self.critic_opt
            .step(&mut self.critic.parameters_mut(), &critic_grads);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Checkpoint, PpoConfig, PpoTrainer};

    fn observation() -> Matrix {
        Matrix::from_vec(6, 4, (0..24).map(|i| (i as f32) * 0.05).collect())
    }

    /// The checkpoint bytes of a trainer holding `policy`: they store every
    /// weight, Adam moment and RNG word bit for bit. Decoding derives the
    /// Adam step counts from the update count, so the trainer's agrees with
    /// the policy's: one one-sample update per Adam step.
    fn checkpoint_of(policy: &ActorCritic) -> Vec<u8> {
        let config = PpoConfig {
            rollout_steps: 1,
            minibatches: 1,
            update_epochs: 1,
            ..PpoConfig::tiny()
        };
        let mut trainer = PpoTrainer::new(config, 1, 1);
        *trainer.policy_mut() = policy.clone();
        trainer.completed_updates = policy.encoder_opt.step_count() as usize;
        Checkpoint {
            trainer,
            env_state: Vec::new(),
        }
        .to_bytes()
    }

    #[test]
    fn act_respects_the_mask() {
        let mut policy = ActorCritic::new(0, 4, 8, 3, 5, 1e-3);
        let mask = vec![false, true, false, true, false];
        for _ in 0..50 {
            let sample = policy.act(&observation(), &mask);
            let action = sample.action.unwrap();
            assert!(mask[action]);
        }
    }

    #[test]
    fn fully_masked_state_yields_no_action() {
        let mut policy = ActorCritic::new(0, 4, 8, 3, 5, 1e-3);
        let sample = policy.act(&observation(), &[false; 5]);
        assert_eq!(sample.action, None);
    }

    #[test]
    fn update_moves_the_policy_toward_positive_advantage_actions() {
        let mut policy = ActorCritic::new(1, 4, 8, 3, 3, 5e-2);
        let obs = observation();
        let mask = vec![true, true, true];
        let config = UpdateConfig {
            clip_coef: 0.2,
            ent_coef: 0.0,
            vf_coef: 0.5,
        };
        let before = policy.distribution(&obs, &mask).probs()[1];
        for _ in 0..30 {
            let dist = policy.distribution(&obs, &mask);
            let old_log_prob = dist.log_prob(1);
            let samples = vec![Sample {
                observation: &obs,
                mask: &mask,
                action: 1,
                old_log_prob,
                advantage: 1.0,
                ret: 1.0,
            }];
            policy.update_minibatch(&samples, &config);
        }
        let after = policy.distribution(&obs, &mask).probs()[1];
        assert!(
            after > before,
            "probability of the rewarded action should increase: {before} -> {after}"
        );
    }

    #[test]
    fn update_reports_finite_statistics() {
        let mut policy = ActorCritic::new(2, 4, 8, 3, 4, 1e-3);
        let obs = observation();
        let mask = vec![true; 4];
        let old = policy.act(&obs, &mask);
        let samples = vec![Sample {
            observation: &obs,
            mask: &mask,
            action: old.action.unwrap(),
            old_log_prob: old.log_prob,
            advantage: -0.5,
            ret: 0.2,
        }];
        let stats = policy.update_minibatch(
            &samples,
            &UpdateConfig {
                clip_coef: 0.2,
                ent_coef: 0.01,
                vf_coef: 0.5,
            },
        );
        assert!(stats.policy_loss.is_finite());
        assert!(stats.value_loss.is_finite());
        assert!(stats.entropy > 0.0);
        assert!(stats.approx_kl.is_finite());
        assert!(stats.clip_fraction >= 0.0);
    }

    #[test]
    fn value_head_regresses_toward_returns() {
        let mut policy = ActorCritic::new(3, 4, 8, 3, 3, 5e-2);
        let obs = observation();
        let mask = vec![true; 3];
        let target = 4.0;
        for _ in 0..200 {
            let dist = policy.distribution(&obs, &mask);
            let samples = vec![Sample {
                observation: &obs,
                mask: &mask,
                action: 0,
                old_log_prob: dist.log_prob(0),
                advantage: 0.0,
                ret: target,
            }];
            policy.update_minibatch(
                &samples,
                &UpdateConfig {
                    clip_coef: 0.2,
                    ent_coef: 0.0,
                    vf_coef: 1.0,
                },
            );
        }
        assert!((policy.value(&obs) - target).abs() < 1.0);
    }

    #[test]
    fn state_round_trip_continues_sampling_and_updates_bit_identically() {
        let mut policy = ActorCritic::new(5, 4, 8, 3, 4, 1e-2);
        let obs = observation();
        let mask = vec![true; 4];
        // Burn in: a few samples and one update so RNG and Adam moments are
        // mid-stream.
        for _ in 0..3 {
            let _ = policy.act(&obs, &mask);
        }
        let sample = policy.act(&obs, &mask);
        policy.update_minibatch(
            &[Sample {
                observation: &obs,
                mask: &mask,
                action: sample.action.unwrap(),
                old_log_prob: sample.log_prob,
                advantage: 1.0,
                ret: 0.5,
            }],
            &UpdateConfig {
                clip_coef: 0.2,
                ent_coef: 0.01,
                vf_coef: 0.5,
            },
        );
        let bytes = checkpoint_of(&policy);
        let decoded = Checkpoint::from_bytes(&bytes).expect("faithful checkpoint");
        assert_eq!(decoded.to_bytes(), bytes);
        let mut restored = decoded.trainer.policy().clone();
        for _ in 0..10 {
            let a = policy.act(&obs, &mask);
            let b = restored.act(&obs, &mask);
            assert_eq!(a.action, b.action);
            assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        let update = [Sample {
            observation: &obs,
            mask: &mask,
            action: sample.action.unwrap(),
            old_log_prob: sample.log_prob,
            advantage: -0.5,
            ret: 0.25,
        }];
        let config = UpdateConfig {
            clip_coef: 0.2,
            ent_coef: 0.01,
            vf_coef: 0.5,
        };
        policy.update_minibatch(&update, &config);
        restored.update_minibatch(&update, &config);
        assert_eq!(checkpoint_of(&policy), checkpoint_of(&restored));
    }

    #[test]
    fn greedy_action_is_deterministic_and_random_action_respects_mask() {
        let mut policy = ActorCritic::new(4, 4, 8, 3, 4, 1e-3);
        let obs = observation();
        let mask = vec![true, false, true, false];
        let a = policy.act_greedy(&obs, &mask).unwrap();
        let b = policy.act_greedy(&obs, &mask).unwrap();
        assert_eq!(a, b);
        assert!(mask[a]);
        for _ in 0..20 {
            let r = policy.act(&obs, &mask).action.unwrap();
            assert!(mask[r]);
        }
        assert_eq!(policy.act(&obs, &[false; 4]).action, None);
    }
}
