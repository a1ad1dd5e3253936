//! The CuAsmRL optimizer: hierarchical search (§3.1), Triton-pipeline
//! integration (§4.1), the offline-search / deploy-time-lookup workflow
//! (§4.2), probabilistic verification, and the non-RL search baselines the
//! paper discusses in §7.

use std::path::{Path, PathBuf};

use artifact::UnsyncedIo;
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{kernel_name, Autotuner, ConfigSpace, KernelSpec, TritonPipeline};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rl::{CancelToken, CheckpointError, Env, PpoConfig, PpoTrainer};
use sass::{Cubin, Program};
use serde::{Deserialize, Serialize};

use crate::deploy_cache::DeployKey;
use crate::game::{AssemblyGame, GameConfig, Move};
use crate::stall_table::StallTable;
use crate::telemetry::{duration_ms, CacheTelemetry, KernelTelemetry};

/// The search strategy used to play the assembly game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Proximal policy optimization (the paper's default).
    Rl(PpoConfig),
    /// Greedy hill climbing: repeatedly apply the best immediately-improving
    /// action.
    Greedy {
        /// Maximum number of moves.
        max_moves: usize,
    },
    /// Uniform random search over legal actions.
    Random {
        /// Number of random actions to try.
        steps: usize,
        /// Random seed.
        seed: u64,
    },
    /// (1+1) evolutionary search (§7): each generation replays the last
    /// candidate sequence that set a new best runtime (skipping moves the
    /// mask no longer allows), appends a short random action sequence, and
    /// keeps the whole result as the next parent if the game's best runtime
    /// improved along the way. The parent is that sequence's end state, not
    /// the best schedule itself, which can sit several moves earlier
    /// (ROADMAP item 1).
    Evolutionary {
        /// Number of generations.
        generations: usize,
        /// Moves per mutation.
        mutation_length: usize,
        /// Random seed.
        seed: u64,
    },
}

impl Strategy {
    /// A short label for reports and telemetry manifests.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Rl(_) => "rl",
            Strategy::Greedy { .. } => "greedy",
            Strategy::Random { .. } => "random",
            Strategy::Evolutionary { .. } => "evolutionary",
        }
    }
}

/// Result of optimizing one kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizationReport {
    /// Kernel name (cubin symbol).
    pub kernel: String,
    /// Runtime of the `-O3` (Triton) schedule, in microseconds.
    pub baseline_us: f64,
    /// Runtime of the best schedule found, in microseconds.
    pub optimized_us: f64,
    /// `baseline_us / optimized_us`.
    pub speedup: f64,
    /// Whether the optimized schedule passed probabilistic verification.
    pub verified: bool,
    /// The optimized schedule (text form).
    pub optimized_listing: String,
    /// The moves that reach the best schedule from the `-O3` one
    /// ([`AssemblyGame::best_trace`]): replayed in order they reproduce
    /// `optimized_listing`.
    pub moves: Vec<Move>,
}

/// The CuAsmRL optimizer.
#[derive(Debug, Clone)]
pub struct CuAsmRl {
    gpu: GpuConfig,
    stalls: StallTable,
    game_config: GameConfig,
    strategy: Strategy,
    cache_dir: Option<PathBuf>,
    /// PPO checkpoint file (see [`CuAsmRl::with_checkpoint`]).
    checkpoint: Option<PathBuf>,
}

impl CuAsmRl {
    /// Creates an optimizer with the stall table of the device's
    /// architecture backend and default game settings.
    #[must_use]
    pub fn new(gpu: GpuConfig, strategy: Strategy) -> Self {
        let stalls = StallTable::for_arch(&gpu.arch);
        CuAsmRl {
            gpu,
            stalls,
            game_config: GameConfig::default(),
            strategy,
            cache_dir: None,
            checkpoint: None,
        }
    }

    /// Overrides the game configuration.
    #[must_use]
    pub fn with_game_config(mut self, config: GameConfig) -> Self {
        self.game_config = config;
        self
    }

    /// Enables the deploy-time lookup cache in the given directory (§4.2):
    /// one record per answer, `{gpu}_{fnv1a64_hex(key)}.json`, keyed by
    /// every input of the answer (see [`CuAsmRl::deploy_key`]).
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Makes a [`Strategy::Rl`] search survive a process restart (other
    /// strategies ignore this): PPO training warm-restarts from the
    /// checkpoint at `path` when one exists, saves there at every update
    /// boundary, keeps the file while the search is unfinished and removes
    /// it once the search completes. A search interrupted at any update
    /// boundary and re-run — in this process or the next — produces a report
    /// bit-identical to the uninterrupted run. A checkpoint that cannot be resumed from
    /// (corruption, version skew, a different kernel) is logged, discarded
    /// and the search cold-starts.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// The deploy-cache key of the answer to `(spec, space, tune)` under
    /// this optimizer, `tune` being the autotune measurement options: where
    /// its record lives in the cache directory and what the record must
    /// carry. `None` without a cache directory.
    #[must_use]
    pub fn deploy_key(
        &self,
        spec: &KernelSpec,
        space: &ConfigSpace,
        tune: &MeasureOptions,
    ) -> Option<DeployKey> {
        let dir = self.cache_dir.as_deref()?;
        let (gpu, strategy, game) = (&self.gpu, &self.strategy, &self.game_config);
        Some(DeployKey::new(dir, gpu, spec, space, tune, strategy, game))
    }

    /// Full hierarchical optimization (§3.1): autotune the kernel
    /// configuration, compile with the Triton-like pipeline, intercept the
    /// cubin, play the assembly game, and write the optimized kernel section
    /// back into the cubin.
    ///
    /// # Panics
    ///
    /// As [`CuAsmRl::optimize_spec_instrumented`].
    pub fn optimize_spec(
        &self,
        spec: &KernelSpec,
        space: &ConfigSpace,
        tune_options: &MeasureOptions,
    ) -> (OptimizationReport, Cubin) {
        let (report, cubin, _telemetry) =
            self.optimize_spec_instrumented(spec, space, tune_options);
        (report, cubin)
    }

    /// [`CuAsmRl::optimize_spec`] plus the structured telemetry of the run:
    /// wall-clock per phase (autotune / compile / search / verify), the
    /// winning reward curve, eval-cache hit rates and — when the strategy is
    /// [`Strategy::Rl`] — the full PPO training series.
    ///
    /// # Panics
    ///
    /// Panics if the compiled cubin does not contain the expected kernel
    /// (which would be a pipeline bug), or if a checkpoint configured with
    /// [`CuAsmRl::with_checkpoint`] cannot be written — callers that want
    /// the typed error use [`CuAsmRl::optimize_spec_instrumented_with`].
    pub fn optimize_spec_instrumented(
        &self,
        spec: &KernelSpec,
        space: &ConfigSpace,
        tune_options: &MeasureOptions,
    ) -> (OptimizationReport, Cubin, KernelTelemetry) {
        let (report, cubin, telemetry, _preempted) = self
            .optimize_spec_instrumented_with(spec, space, tune_options, &CancelToken::new())
            .expect("the training checkpoint must be writable");
        (report, cubin, telemetry)
    }

    /// The one place the pipeline from a kernel spec to its answer is
    /// sequenced — deploy-cache lookup → autotune → compile → assembly game
    /// → search → verify → cubin write-back → deploy-cache publish; every
    /// other `optimize_*` entry point, the suite fan-out and the daemon
    /// delegate here. With a deploy cache configured, a record under this
    /// call's [`CuAsmRl::deploy_key`] answers it: the cubin is built from
    /// the record's schedule, so a repeat lookup generates, compiles and
    /// simulates nothing. A record that does not match exactly, whose
    /// schedule is not the record's winner's kernel or does not parse, or
    /// that is damaged (logged) is a miss that searches and republishes.
    ///
    /// Preemption is cooperative: the search polls `cancel` at its
    /// step/update boundaries and, once the token fires, stops early and
    /// reports its best-schedule-so-far. The returned flag says whether the
    /// run was preempted; a preempted report is **not** written to the
    /// deploy cache (it is a degraded partial answer, not the converged
    /// one), and with [`CuAsmRl::with_checkpoint`] the training checkpoint
    /// stays on disk so re-asking resumes and converges to the full answer.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CheckpointError`] when a configured training
    /// checkpoint cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the compiled cubin does not contain the expected kernel
    /// (which would be a pipeline bug).
    pub fn optimize_spec_instrumented_with(
        &self,
        spec: &KernelSpec,
        space: &ConfigSpace,
        tune_options: &MeasureOptions,
        cancel: &CancelToken,
    ) -> Result<(OptimizationReport, Cubin, KernelTelemetry, bool), CheckpointError> {
        let run_start = std::time::Instant::now();
        let key = self.deploy_key(spec, space, tune_options);
        let cached = key.as_ref().map_or(Ok(None), |key| key.read(space));
        if let Err(err) = &cached {
            eprintln!("cuasmrl: damaged deploy-cache record, searching again: {err}");
        }
        if let Ok(Some((best, report))) = cached {
            let autotune_ms = duration_ms(run_start.elapsed());
            let compile_start = std::time::Instant::now();
            // A record whose schedule is not its winner's kernel, or does
            // not parse, is a miss.
            let program = (report.kernel == kernel_name(spec, &best))
                .then(|| report.optimized_listing.parse::<Program>().ok())
                .flatten();
            if let Some(program) = program {
                let cubin = Cubin::from_kernel(self.gpu.arch.class, &report.kernel, &program);
                let mut telemetry = KernelTelemetry::cached(&report);
                telemetry.phases.autotune_ms = autotune_ms;
                telemetry.phases.compile_ms = duration_ms(compile_start.elapsed());
                telemetry.phases.total_ms = duration_ms(run_start.elapsed());
                return Ok((report, cubin, telemetry, false));
            }
        }
        let tuning = Autotuner::new(self.gpu.clone())
            .with_options(tune_options.clone())
            .tune(spec, space);
        let autotune_ms = duration_ms(run_start.elapsed());
        let compile_start = std::time::Instant::now();
        let compiled = TritonPipeline::new(self.gpu.clone()).compile(spec, &tuning.best);
        let compile_ms = duration_ms(compile_start.elapsed());
        let program = compiled
            .cubin
            .kernel_program(&compiled.name)
            .expect("compiled cubin must contain the kernel");
        let (report, best, mut telemetry, preempted) =
            self.search(&compiled.name, program, compiled.launch, cancel)?;
        let mut cubin = compiled.cubin;
        cubin
            .replace_kernel_section(&compiled.name, &best)
            .expect("compiled cubin must contain the kernel");
        if let Some(key) = key.filter(|_| !preempted) {
            if let Err(err) = key.publish(&UnsyncedIo, tuning.best, &report) {
                eprintln!("cuasmrl: failed to persist deploy-cache record: {err}");
            }
        }
        telemetry.phases.autotune_ms = autotune_ms;
        telemetry.phases.compile_ms = compile_ms;
        telemetry.phases.total_ms = duration_ms(run_start.elapsed());
        Ok((report, cubin, telemetry, preempted))
    }

    /// Optimizes an already-compiled SASS schedule.
    ///
    /// # Panics
    ///
    /// As [`CuAsmRl::optimize_program_instrumented`].
    pub fn optimize_program(
        &self,
        kernel: &str,
        program: Program,
        launch: gpusim::LaunchConfig,
    ) -> OptimizationReport {
        self.optimize_program_instrumented(kernel, program, launch)
            .0
    }

    /// [`CuAsmRl::optimize_program`] plus the structured telemetry of the
    /// search (search/verify wall clock, reward curve, eval-cache counters,
    /// PPO training series when applicable). The autotune/compile/total
    /// phase timings are zero here — [`CuAsmRl::optimize_spec_instrumented`]
    /// fills them in when the full hierarchical pipeline runs.
    ///
    /// # Panics
    ///
    /// Panics if a checkpoint configured with [`CuAsmRl::with_checkpoint`]
    /// cannot be written.
    pub fn optimize_program_instrumented(
        &self,
        kernel: &str,
        program: Program,
        launch: gpusim::LaunchConfig,
    ) -> (OptimizationReport, KernelTelemetry) {
        let (report, _, telemetry, _preempted) = self
            .search(kernel, program, launch, &CancelToken::new())
            .expect("the training checkpoint must be writable");
        (report, telemetry)
    }

    /// The search stage of the pipeline: builds the assembly game for one
    /// compiled program, plays it with the configured strategy and verifies
    /// the best schedule, which it returns beside the report. Every strategy
    /// polls the token at its natural boundary — a PPO update, a greedy
    /// move, a random step, an evolutionary generation — and a fired token
    /// makes the search finalize its best-schedule-so-far; the returned flag
    /// says whether that happened.
    fn search(
        &self,
        kernel: &str,
        program: Program,
        launch: gpusim::LaunchConfig,
        cancel: &CancelToken,
    ) -> Result<(OptimizationReport, Program, KernelTelemetry, bool), CheckpointError> {
        let search_start = std::time::Instant::now();
        let mut game = AssemblyGame::new(
            self.gpu.clone(),
            program,
            launch,
            self.stalls.clone(),
            self.game_config.clone(),
        );
        let mut training = None;
        let preempted = match &self.strategy {
            Strategy::Rl(config) => {
                let (stats, preempted) = run_rl(
                    &mut game,
                    config.clone(),
                    self.checkpoint.as_deref(),
                    cancel,
                )?;
                training = Some(stats);
                preempted
            }
            Strategy::Greedy { max_moves } => run_greedy(&mut game, *max_moves, cancel),
            Strategy::Random { steps, seed } => run_random(&mut game, *steps, *seed, cancel),
            Strategy::Evolutionary {
                generations,
                mutation_length,
                seed,
            } => run_evolutionary(&mut game, *generations, *mutation_length, *seed, cancel),
        };
        let search_ms = duration_ms(search_start.elapsed());
        let (report, best, verify_ms) = finalize_search(kernel, &game);
        let mut telemetry = KernelTelemetry {
            from_deploy_cache: false,
            cache: CacheTelemetry::from_stats(game.eval_cache().stats()),
            training,
            ..KernelTelemetry::cached(&report)
        };
        telemetry.phases.search_ms = search_ms;
        telemetry.phases.verify_ms = verify_ms;
        Ok((report, best, telemetry, preempted))
    }
}

/// Builds the [`OptimizationReport`] of a finished search: reads the game's
/// best schedule, its runtime and the moves that reached it, runs
/// probabilistic verification (§4.1 — the optimized schedule must produce
/// the same outputs as the original and run without hazards; the best
/// schedule was measured during the search, so this answers from the game's
/// evaluation cache) and returns the report, the best schedule and the
/// verification wall-clock.
fn finalize_search(kernel: &str, game: &AssemblyGame) -> (OptimizationReport, Program, f64) {
    let baseline_us = game.initial_runtime_us();
    let (best, optimized_us) = game.best();
    let best = best.clone();
    let verify_start = std::time::Instant::now();
    let verification = game.cached_measurement(&best);
    let verified = verification.run.sm.hazards == 0
        && verification.run.sm.output_digest == game.initial_digest();
    let verify_ms = duration_ms(verify_start.elapsed());
    let report = OptimizationReport {
        kernel: kernel.to_string(),
        baseline_us,
        optimized_us,
        speedup: baseline_us / optimized_us.max(1e-9),
        verified,
        optimized_listing: best.to_string(),
        moves: game.best_trace().to_vec(),
    };
    (report, best, verify_ms)
}

/// The PPO arm of the search. With a checkpoint configured
/// ([`CuAsmRl::with_checkpoint`]) training opens from the file when it
/// exists, saves at every update boundary it stops on and removes the file
/// once the schedule has been trained to completion — so however often the
/// run is cut, the game ends in the state of the uninterrupted run.
fn run_rl(
    game: &mut AssemblyGame,
    config: PpoConfig,
    checkpoint: Option<&Path>,
    cancel: &CancelToken,
) -> Result<(rl::TrainingStats, bool), CheckpointError> {
    let features = game.observation_features();
    let actions = game.action_count();
    let mut trainer = match checkpoint {
        None => PpoTrainer::new(config, features, actions),
        Some(path) => {
            match PpoTrainer::resume_from_or_new(path, game, config.clone(), features, actions) {
                Ok((trainer, _resumed)) => trainer,
                Err(err) => {
                    // A damaged or version-skewed checkpoint must not wedge
                    // the kernel forever: discard it and cold-start once (a
                    // refused resume leaves the game untouched).
                    eprintln!(
                        "cuasmrl: discarding unusable checkpoint {}: {err}",
                        path.display()
                    );
                    let _ = std::fs::remove_file(path);
                    PpoTrainer::new(config, features, actions)
                }
            }
        }
    };
    while !trainer.train_updates_until(game, 1, cancel) {
        if let Some(path) = checkpoint {
            trainer.save_checkpoint(game, path)?;
        }
        if cancel.is_cancelled() {
            break;
        }
    }
    inference_episode(game, trainer.policy());
    let preempted = !trainer.is_finished();
    if let Some(path) = checkpoint.filter(|_| !preempted) {
        let _ = std::fs::remove_file(path);
    }
    Ok((trainer.stats().clone(), preempted))
}

/// Deterministic greedy inference pass (§5.7): the (possibly partially)
/// trained policy plays one episode, whose schedules compete for the game's
/// best like every training step's.
fn inference_episode(game: &mut AssemblyGame, policy: &rl::ActorCritic) {
    let mut observation = game.reset();
    while let Some(action) = policy.act_greedy(&observation, game.mask()) {
        let step = game.step(action);
        if step.done {
            break;
        }
        observation = step.observation;
    }
}

fn run_greedy(game: &mut AssemblyGame, max_moves: usize, cancel: &CancelToken) -> bool {
    let mut legal = Vec::new();
    let _ = game.reset();
    for _ in 0..max_moves {
        if cancel.is_cancelled() {
            return true;
        }
        // Price each legal action in place, keep the best improvement; only
        // the winner is stepped (a cache hit: its price was just stored).
        legal_actions(game, &mut legal);
        let mut best: Option<(usize, f32)> = None;
        for &action in &legal {
            let reward = game.peek_reward(action);
            if reward > best.map_or(0.0, |(_, r)| r) {
                best = Some((action, reward));
            }
        }
        let Some((action, _)) = best else { break };
        if game.step(action).done {
            break;
        }
    }
    false
}

fn run_random(game: &mut AssemblyGame, steps: usize, seed: u64, cancel: &CancelToken) -> bool {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut legal = Vec::new();
    let _ = game.reset();
    for _ in 0..steps {
        if cancel.is_cancelled() {
            return true;
        }
        legal_actions(game, &mut legal);
        if legal.is_empty() {
            let _ = game.reset();
            continue;
        }
        let action = legal[rng.gen_range(0..legal.len())];
        if game.step(action).done {
            let _ = game.reset();
        }
    }
    false
}

/// Overwrites `legal` with the ids the game's current mask admits, in id
/// order.
fn legal_actions(game: &AssemblyGame, legal: &mut Vec<usize>) {
    legal.clear();
    legal.extend(
        game.mask()
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(i)),
    );
}

fn run_evolutionary(
    game: &mut AssemblyGame,
    generations: usize,
    mutation_length: usize,
    seed: u64,
    cancel: &CancelToken,
) -> bool {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut best_sequence: Vec<usize> = Vec::new();
    let mut legal = Vec::new();
    for _ in 0..generations {
        if cancel.is_cancelled() {
            return true;
        }
        // Mutate: replay the last improving candidate, then add random moves.
        let parent_runtime = game.best().1;
        let _ = game.reset();
        let mut candidate = Vec::new();
        for &action in &best_sequence {
            if *game.mask().get(action).unwrap_or(&false) {
                let _ = game.step(action);
                candidate.push(action);
            }
        }
        for _ in 0..mutation_length {
            legal_actions(game, &mut legal);
            if legal.is_empty() {
                break;
            }
            let action = legal[rng.gen_range(0..legal.len())];
            let _ = game.step(action);
            candidate.push(action);
        }
        if game.best().1 < parent_runtime {
            best_sequence = candidate;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::{generate, Autotuner, KernelConfig, KernelKind, ScheduleStyle};

    fn small_kernel() -> (String, Program, gpusim::LaunchConfig) {
        let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
        let config = KernelConfig {
            block_m: 32,
            block_n: 32,
            block_k: 32,
            num_warps: 4,
            num_stages: 2,
        };
        let k = generate(&spec, &config, ScheduleStyle::Baseline);
        (k.name, k.program, k.launch)
    }

    #[test]
    fn greedy_search_finds_a_verified_speedup() {
        let (name, program, launch) = small_kernel();
        let optimizer = CuAsmRl::new(GpuConfig::small(), Strategy::Greedy { max_moves: 12 });
        let report = optimizer.optimize_program(&name, program, launch);
        assert!(report.verified, "optimized schedule must verify");
        assert!(
            report.speedup >= 1.0,
            "greedy search must not regress: {}",
            report.speedup
        );
        assert!(report.speedup > 1.01, "expected a measurable speedup");
        assert!(!report.moves.is_empty());
        assert!(!report.optimized_listing.is_empty());
    }

    #[test]
    fn evolutionary_and_random_search_never_regress() {
        let (name, program, launch) = small_kernel();
        for strategy in [
            Strategy::Random { steps: 16, seed: 1 },
            Strategy::Evolutionary {
                generations: 4,
                mutation_length: 4,
                seed: 1,
            },
        ] {
            let optimizer = CuAsmRl::new(GpuConfig::small(), strategy);
            let report = optimizer.optimize_program(&name, program.clone(), launch.clone());
            assert!(report.speedup >= 1.0);
            assert!(report.verified);
        }
    }

    #[test]
    fn cache_round_trips_reports() {
        let dir = std::env::temp_dir().join(format!("cuasmrl-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (spec, space, tune, _) = tiny_rl_setup();
        let optimizer = CuAsmRl::new(GpuConfig::small(), Strategy::Greedy { max_moves: 4 })
            .with_cache_dir(&dir);
        let key = optimizer
            .deploy_key(&spec, &space, &tune)
            .expect("a cache dir");
        assert!(key.read(&space).unwrap().is_none());
        let (name, program, launch) = small_kernel();
        let report = optimizer.optimize_program(&name, program, launch);
        let best = space.candidates[0];
        key.publish(&UnsyncedIo, best, &report).expect("publish");
        let (hit_best, hit) = key.read(&space).unwrap().expect("cache hit after publish");
        assert_eq!(hit_best, best);
        assert_eq!(
            serde_json::to_string(&hit).unwrap(),
            serde_json::to_string(&report).unwrap()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// PPO updates in [`tiny_rl_setup`]'s training schedule.
    const TINY_RL_UPDATES: usize = 4;

    fn tiny_rl_setup() -> (KernelSpec, ConfigSpace, MeasureOptions, CuAsmRl) {
        let tune = MeasureOptions {
            warmup: 0,
            repeats: 2,
            noise_std: 0.0,
            seed: 0,
        };
        let config = PpoConfig {
            total_steps: 24 * TINY_RL_UPDATES,
            rollout_steps: 24,
            seed: 11,
            ..PpoConfig::tiny()
        };
        let optimizer = CuAsmRl::new(GpuConfig::small(), Strategy::Rl(config));
        let spec = KernelSpec::scaled(KernelKind::Softmax, 16);
        (spec, ConfigSpace::small(), tune, optimizer)
    }

    fn temp_ckpt(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cuasmrl-optimizer-{label}-{}-{:?}.ckpt",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    /// Leaves at `path` what a process killed after `updates` PPO updates
    /// of this search leaves behind.
    fn plant_checkpoint(
        optimizer: &CuAsmRl,
        spec: &KernelSpec,
        space: &ConfigSpace,
        tune: &MeasureOptions,
        updates: usize,
        path: &Path,
    ) {
        let tuner = Autotuner::new(optimizer.gpu.clone()).with_options(tune.clone());
        let compiled =
            TritonPipeline::new(optimizer.gpu.clone()).compile(spec, &tuner.tune(spec, space).best);
        let mut game = AssemblyGame::new(
            optimizer.gpu.clone(),
            compiled.cubin.kernel_program(&compiled.name).unwrap(),
            compiled.launch,
            optimizer.stalls.clone(),
            optimizer.game_config.clone(),
        );
        let Strategy::Rl(config) = optimizer.strategy.clone() else {
            panic!("an RL optimizer");
        };
        let mut trainer = PpoTrainer::new(config, game.observation_features(), game.action_count());
        let _ = trainer.train_updates(&mut game, updates);
        assert_eq!(trainer.total_updates(), TINY_RL_UPDATES);
        trainer.save_checkpoint(&game, path).expect("plant");
    }

    fn fired() -> CancelToken {
        let token = CancelToken::new();
        token.cancel();
        token
    }

    #[test]
    fn a_search_cut_at_any_update_boundary_and_reopened_matches_the_uninterrupted_run() {
        let (spec, space, tune, optimizer) = tiny_rl_setup();
        let (control, _cubin, control_telemetry) =
            optimizer.optimize_spec_instrumented(&spec, &space, &tune);
        let path = temp_ckpt("restart");
        let checkpointed = optimizer.clone().with_checkpoint(&path);
        for boundary in 0..TINY_RL_UPDATES {
            // A process dies `boundary` updates in; the next one is stopped
            // before it trains at all, so the file it resumes from and
            // re-saves is the one the final run opens.
            plant_checkpoint(&optimizer, &spec, &space, &tune, boundary, &path);
            let (_, _, _, preempted) = checkpointed
                .optimize_spec_instrumented_with(&spec, &space, &tune, &fired())
                .expect("save");
            assert!(preempted);
            let kept = rl::Checkpoint::read(&path).expect("preemption keeps the checkpoint");
            assert_eq!(
                kept.trainer.completed_updates(),
                boundary,
                "resumed, not cold-started"
            );

            let (report, _cubin, telemetry) =
                checkpointed.optimize_spec_instrumented(&spec, &space, &tune);
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&control).unwrap(),
                "cut after update {boundary}: the reopened search must match the uninterrupted run"
            );
            assert_eq!(telemetry.training, control_telemetry.training);
            assert_eq!(telemetry.reward_curve, control_telemetry.reward_curve);
            assert!(!path.exists(), "a finished search removes its checkpoint");
        }
    }

    /// A checkpoint in the version-2 layout (magic, version, body, FNV-1a
    /// trailer) is not sealed, so it reads as version skew; the search
    /// discards it, cold-starts to the uninterrupted answer and removes it.
    #[test]
    fn a_version_2_checkpoint_is_discarded_and_the_search_cold_starts() {
        let (spec, space, tune, optimizer) = tiny_rl_setup();
        let (control, _cubin, _telemetry) =
            optimizer.optimize_spec_instrumented(&spec, &space, &tune);
        let path = temp_ckpt("v2");
        plant_checkpoint(&optimizer, &spec, &space, &tune, 1, &path);
        let sealed = std::fs::read(&path).unwrap();
        let body = artifact::open(&path, &sealed, rl::CHECKPOINT_VERSION).unwrap();
        let mut v2 = [b"CASRLCKP".as_slice(), &2u32.to_le_bytes(), body].concat();
        v2.extend(artifact::fnv1a64(&v2).to_le_bytes());
        std::fs::write(&path, &v2).unwrap();
        assert!(matches!(
            rl::Checkpoint::read(&path),
            Err(artifact::ArtifactError::UnsupportedVersion { found: 0, .. })
        ));
        let (report, _cubin, _telemetry) = optimizer
            .clone()
            .with_checkpoint(&path)
            .optimize_spec_instrumented(&spec, &space, &tune);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&control).unwrap()
        );
        assert!(!path.exists(), "a finished search removes its checkpoint");
    }

    #[test]
    fn a_preempted_search_degrades_then_resumes_to_the_full_answer() {
        let (spec, space, tune, optimizer) = tiny_rl_setup();
        let (control, _cubin, _telemetry) =
            optimizer.optimize_spec_instrumented(&spec, &space, &tune);

        let path = temp_ckpt("preempt");
        let cache_dir = std::env::temp_dir().join(format!(
            "cuasmrl-optimizer-preempt-cache-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let optimizer = optimizer.with_cache_dir(&cache_dir).with_checkpoint(&path);

        // One update in, a fired token preempts the search.
        plant_checkpoint(&optimizer, &spec, &space, &tune, 1, &path);
        let (degraded, _cubin, _telemetry, preempted) = optimizer
            .optimize_spec_instrumented_with(&spec, &space, &tune, &fired())
            .expect("save");
        assert!(preempted);
        // The degraded answer is still a valid verified schedule…
        assert!(degraded.verified);
        assert!(degraded.speedup >= 1.0);
        // …and the checkpoint survives for the warm restart.
        assert!(path.exists(), "preemption must keep the checkpoint");
        let key = optimizer.deploy_key(&spec, &space, &tune).unwrap();
        assert!(
            key.read(&space).unwrap().is_none(),
            "a degraded report must not enter the deploy cache"
        );

        // Re-asking resumes from the checkpoint and converges to the
        // byte-identical full answer.
        let (report, _cubin, _telemetry) =
            optimizer.optimize_spec_instrumented(&spec, &space, &tune);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&control).unwrap(),
            "resumed run must match the uninterrupted one"
        );
        assert!(!path.exists());
        assert!(
            key.read(&space).unwrap().is_some(),
            "the converged answer does enter the deploy cache"
        );
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
}
