//! Rollout storage and generalized advantage estimation.

use nn::Matrix;

/// One stored transition.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Observation at the time of the action.
    pub observation: Matrix,
    /// Validity mask at the time of the action.
    pub mask: Vec<bool>,
    /// The sampled action.
    pub action: usize,
    /// Log-probability of the action under the behaviour policy.
    pub log_prob: f32,
    /// Value estimate of the observation.
    pub value: f32,
    /// Reward received.
    pub reward: f32,
    /// Episode-termination flag after this step.
    pub done: bool,
}

/// A rollout buffer with GAE-λ advantage computation.
#[derive(Debug, Clone, Default)]
pub struct RolloutBuffer {
    transitions: Vec<Transition>,
}

/// Advantages and returns computed from a rollout.
#[derive(Debug, Clone, PartialEq)]
pub struct Advantages {
    /// GAE-λ advantages (normalized by the PPO update, not here).
    pub advantages: Vec<f32>,
    /// Bootstrapped returns (`advantage + value`).
    pub returns: Vec<f32>,
}

impl RolloutBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        RolloutBuffer {
            transitions: Vec::new(),
        }
    }

    /// Appends a transition.
    pub fn push(&mut self, transition: Transition) {
        self.transitions.push(transition);
    }

    /// Number of stored transitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// True if no transitions are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Stored transitions in insertion order.
    #[must_use]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Discards all transitions.
    pub fn clear(&mut self) {
        self.transitions.clear();
    }

    /// Computes GAE-λ advantages and returns. `last_value` is the value
    /// estimate of the state following the final stored transition (zero if
    /// that transition ended an episode).
    #[must_use]
    pub fn compute_advantages(&self, gamma: f32, lambda: f32, last_value: f32) -> Advantages {
        let n = self.transitions.len();
        let mut advantages = vec![0.0; n];
        let mut gae = 0.0;
        for i in (0..n).rev() {
            let t = &self.transitions[i];
            let next_nonterminal = if t.done { 0.0 } else { 1.0 };
            let next_value = if i + 1 < n {
                self.transitions[i + 1].value
            } else {
                last_value
            };
            let delta = t.reward + gamma * next_value * next_nonterminal - t.value;
            gae = delta + gamma * lambda * next_nonterminal * gae;
            advantages[i] = gae;
        }
        let returns = advantages
            .iter()
            .zip(&self.transitions)
            .map(|(a, t)| a + t.value)
            .collect();
        Advantages {
            advantages,
            returns,
        }
    }

    /// Sum of rewards of each completed episode in the buffer.
    #[must_use]
    pub fn episodic_returns(&self) -> Vec<f32> {
        let mut totals = Vec::new();
        let mut acc = 0.0;
        for t in &self.transitions {
            acc += t.reward;
            if t.done {
                totals.push(acc);
                acc = 0.0;
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transition(reward: f32, value: f32, done: bool) -> Transition {
        Transition {
            observation: Matrix::zeros(1, 1),
            mask: vec![true],
            action: 0,
            log_prob: 0.0,
            value,
            reward,
            done,
        }
    }

    #[test]
    fn single_step_episode_advantage_is_reward_minus_value() {
        let mut buffer = RolloutBuffer::new();
        buffer.push(transition(2.0, 0.5, true));
        let adv = buffer.compute_advantages(0.99, 0.95, 123.0);
        assert!((adv.advantages[0] - 1.5).abs() < 1e-6);
        assert!((adv.returns[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn gae_with_lambda_one_matches_discounted_returns() {
        let mut buffer = RolloutBuffer::new();
        buffer.push(transition(1.0, 0.0, false));
        buffer.push(transition(1.0, 0.0, false));
        buffer.push(transition(1.0, 0.0, true));
        let gamma = 0.9;
        let adv = buffer.compute_advantages(gamma, 1.0, 0.0);
        let expected0 = 1.0 + gamma * (1.0 + gamma);
        assert!((adv.advantages[0] - expected0).abs() < 1e-5);
        assert!((adv.advantages[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bootstrap_uses_last_value_when_episode_is_unfinished() {
        let mut buffer = RolloutBuffer::new();
        buffer.push(transition(0.0, 0.0, false));
        let adv = buffer.compute_advantages(1.0, 1.0, 10.0);
        assert!((adv.advantages[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn advantages_match_the_restated_recursion_bit_for_bit() {
        // Three episodes, the last one unfinished so the bootstrap is live.
        let steps = [
            (1.0, 0.5, false),
            (-0.5, 0.2, true),
            (0.25, 0.1, false),
            (2.0, -0.3, false),
            (0.75, 0.6, true),
            (-1.0, 0.4, false),
            (0.5, 0.9, false),
        ];
        let mut buffer = RolloutBuffer::new();
        for &(reward, value, done) in &steps {
            buffer.push(transition(reward, value, done));
        }
        let (gamma, lambda, last_value) = (0.9_f32, 0.8_f32, 1.5_f32);
        let adv = buffer.compute_advantages(gamma, lambda, last_value);

        let mut expected = vec![0.0_f32; steps.len()];
        let mut gae = 0.0_f32;
        for i in (0..steps.len()).rev() {
            let (reward, value, done) = steps[i];
            let live = if done { 0.0 } else { 1.0 };
            let next_value = steps.get(i + 1).map_or(last_value, |s| s.1);
            gae = (reward + gamma * next_value * live - value) + gamma * lambda * live * gae;
            expected[i] = gae;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&adv.advantages), bits(&expected));
        let expected_returns: Vec<f32> =
            expected.iter().zip(&steps).map(|(a, s)| a + s.1).collect();
        assert_eq!(bits(&adv.returns), bits(&expected_returns));
    }

    #[test]
    fn episodic_returns_split_on_done() {
        let mut buffer = RolloutBuffer::new();
        buffer.push(transition(1.0, 0.0, false));
        buffer.push(transition(2.0, 0.0, true));
        buffer.push(transition(-1.0, 0.0, true));
        assert_eq!(buffer.episodic_returns(), vec![3.0, -1.0]);
        assert_eq!(buffer.len(), 3);
        assert!(!buffer.is_empty());
    }
}
