//! Proximal policy optimization with invalid-action masking.
//!
//! This crate implements the RL machinery of the CuAsmRL paper (§3.7): a
//! Gym-like [`Env`] trait that the assembly game implements, a rollout
//! buffer with GAE-λ advantage estimation, a masked actor-critic policy
//! built on the [`nn`] crate, and the clipped-PPO trainer with the default
//! hyperparameters the paper takes from the "37 implementation details"
//! study.
//!
//! There is one rollout path, as in the paper: one environment per learner
//! (the reward is a kernel timed alone on the GPU, one schedule at a time),
//! stepped by [`PpoTrainer::train_updates_until`], which every other
//! `train*` entry point wraps.
//!
//! Training runs are checkpointable: [`PpoTrainer::save_checkpoint`]
//! serializes the trainer itself (policy weights, Adam moments, RNG stream,
//! statistics) and the environment snapshot into a versioned binary
//! [`Checkpoint`] sealed like every other artifact, and
//! [`PpoTrainer::resume_from`] continues the run bit-identically to one
//! that was never interrupted — enforced by `tests/checkpoint.rs`.
//!
//! The policy is shape-agnostic: [`Env::observation_features`] defines the
//! row width, and the assembly game uses that freedom to append normalized
//! GPU-architecture features to every observation row, so one agent can
//! condition on which `gpusim::ArchSpec` backend it is optimizing for.
//!
//! # Example
//!
//! Train on any environment implementing [`Env`]:
//!
//! ```no_run
//! use rl::{Env, PpoConfig, PpoTrainer};
//!
//! fn train<E: Env>(env: &mut E) {
//!     let config = PpoConfig::default();
//!     let mut trainer = PpoTrainer::new(config, env.observation_features(), env.action_count());
//!     let stats = trainer.train(env);
//!     println!("final return: {}", stats.final_return(10));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod cancel;
mod checkpoint;
mod env;
mod policy;
mod ppo;

pub use buffer::{Advantages, RolloutBuffer, Transition};
pub use cancel::CancelToken;
pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use env::{test_envs, Env, Step};
pub use policy::{ActionSample, ActorCritic, Sample, UpdateConfig, UpdateStats};
pub use ppo::{PpoConfig, PpoTrainer, TrainingStats};
