//! The Gym-like environment interface (§3.7: "the reordering process is
//! encapsulated in the environment transition, which followed the
//! standardized Gym interface").

use nn::Matrix;

/// The result of one environment step.
#[derive(Debug, Clone)]
pub struct Step {
    /// The next observation (the embedded SASS schedule).
    pub observation: Matrix,
    /// The scalar reward.
    pub reward: f32,
    /// True when the episode has terminated.
    pub done: bool,
}

/// A sequential decision-making environment with discrete, maskable actions.
pub trait Env {
    /// Resets the environment and returns the initial observation.
    fn reset(&mut self) -> Matrix;

    /// Applies an action and returns the transition.
    fn step(&mut self, action: usize) -> Step;

    /// Total number of (maskable) actions.
    fn action_count(&self) -> usize;

    /// Validity mask over actions for the *current* state; masked-out
    /// entries must never be selected.
    fn action_mask(&self) -> Vec<bool>;

    /// Number of embedding features per observation row.
    fn observation_features(&self) -> usize;

    /// Serializes the environment's complete internal state for
    /// checkpointing, or `None` when the environment does not support
    /// snapshots (the default). An env that returns `Some` here must accept
    /// the same bytes in [`Env::restore_state`] and then behave
    /// bit-identically to the env that produced them.
    fn state_bytes(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores internal state previously captured by [`Env::state_bytes`]
    /// on an env constructed for the same problem instance. Returns `false`
    /// (leaving the env usable but unchanged in the failure modes it can
    /// detect) when the bytes are not a state this env can adopt.
    ///
    /// Snapshots carry *logical* state only: implementations are free to
    /// keep derived acceleration state (caches, memoized views, lowered
    /// programs) out of the bytes and rebuild or re-adopt it here, as long
    /// as the restored env then behaves bit-identically — the assembly
    /// game, for instance, re-lowers its schedule on restore while its
    /// snapshot stays schedule-only.
    fn restore_state(&mut self, _state: &[u8]) -> bool {
        false
    }
}

/// Tiny deterministic environments used by unit, contract and determinism
/// tests — both this crate's own and downstream consumers'.
pub mod test_envs {
    use super::*;

    /// A tiny deterministic environment used by tests: the observation is a
    /// constant matrix, action 1 yields +1 reward, every other action
    /// yields -1, and episodes last `horizon` steps. Action 2 is always
    /// masked.
    #[derive(Debug, Clone)]
    pub struct BanditEnv {
        /// Episode length.
        pub horizon: usize,
        /// Steps taken in the current episode.
        pub t: usize,
    }

    impl BanditEnv {
        /// Creates a bandit with `horizon` steps per episode.
        #[must_use]
        pub fn new(horizon: usize) -> Self {
            BanditEnv { horizon, t: 0 }
        }

        fn observation(&self) -> Matrix {
            Matrix::from_vec(4, 3, vec![0.5; 12])
        }
    }

    impl Env for BanditEnv {
        fn reset(&mut self) -> Matrix {
            self.t = 0;
            self.observation()
        }

        fn step(&mut self, action: usize) -> Step {
            assert_ne!(action, 2, "masked action must never be selected");
            self.t += 1;
            Step {
                observation: self.observation(),
                reward: if action == 1 { 1.0 } else { -1.0 },
                done: self.t >= self.horizon,
            }
        }

        fn action_count(&self) -> usize {
            3
        }

        fn action_mask(&self) -> Vec<bool> {
            vec![true, true, false]
        }

        fn observation_features(&self) -> usize {
            3
        }

        fn state_bytes(&self) -> Option<Vec<u8>> {
            let mut bytes = Vec::with_capacity(16);
            bytes.extend_from_slice(&(self.horizon as u64).to_le_bytes());
            bytes.extend_from_slice(&(self.t as u64).to_le_bytes());
            Some(bytes)
        }

        fn restore_state(&mut self, state: &[u8]) -> bool {
            if state.len() != 16 {
                return false;
            }
            let mut word = [0u8; 8];
            word.copy_from_slice(&state[..8]);
            let horizon = u64::from_le_bytes(word) as usize;
            word.copy_from_slice(&state[8..]);
            let t = u64::from_le_bytes(word) as usize;
            if horizon != self.horizon {
                return false; // Constructed for a different instance.
            }
            self.t = t;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_envs::BanditEnv;
    use super::*;

    #[test]
    fn bandit_env_follows_the_contract() {
        let mut env = BanditEnv::new(3);
        let obs = env.reset();
        assert_eq!(obs.cols(), env.observation_features());
        assert_eq!(env.action_mask().len(), env.action_count());
        let step = env.step(1);
        assert_eq!(step.reward, 1.0);
        assert!(!step.done);
        env.step(0);
        let last = env.step(1);
        assert!(last.done);
    }

    #[test]
    fn bandit_state_round_trips_and_rejects_foreign_state() {
        let mut env = BanditEnv::new(5);
        let _ = env.reset();
        env.step(1);
        env.step(0);
        let state = env.state_bytes().expect("bandit snapshots");
        let mut fresh = BanditEnv::new(5);
        assert!(fresh.restore_state(&state));
        assert_eq!(fresh.t, 2);
        // Different horizon or malformed bytes are refused.
        assert!(!BanditEnv::new(7).restore_state(&state));
        assert!(!fresh.restore_state(&state[..9]));
    }
}
