//! The assembly game (§3.3–§3.6): the Gym-like environment the RL agent
//! plays to optimize a SASS schedule.

use std::sync::Arc;

use gpusim::{
    kernel_run_from_report, measure, measurement_from_run, GpuConfig, LaunchConfig, MeasureOptions,
    Measurement, SmReport,
};
use nn::Matrix;
use rl::{Env, Step};
use sass::Program;
use serde::{Deserialize, Serialize};

use crate::action::{ActionSpace, Direction, EditKind, IncrementalMasker, ScheduleEdit};
use crate::analysis::{analyze, Analysis};
use crate::embed::{embed_program, embed_rows_into, feature_count};
use crate::eval_cache::{instruction_key, labels_key, program_key, schedule_key, EvalCache};
use crate::lowered::LoweredSchedule;
use crate::stall_table::StallTable;

/// Game configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GameConfig {
    /// Episode length (number of actions per episode); 32 in the paper.
    pub episode_length: usize,
    /// Measurement protocol for the reward signal.
    pub measure: MeasureOptions,
    /// The action space offered to the agent. The default reproduces the
    /// paper's adjacent-swap space byte-identically; [`ActionSpace::Rich`]
    /// adds block moves, reuse toggles, stall retuning and barrier-wait
    /// edits.
    #[serde(default)]
    pub action_space: ActionSpace,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            episode_length: 32,
            measure: MeasureOptions {
                warmup: 0,
                repeats: 5,
                noise_std: 0.0,
                seed: 0,
            },
            action_space: ActionSpace::default(),
        }
    }
}

/// One recorded move of an episode, used for the optimization-move traces of
/// §5.7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Move {
    /// Index of the selected instruction (`movable[slot]`) before the edit
    /// was applied; in-place content edits leave it there.
    pub instruction: usize,
    /// Direction of the move (positional edits; in-place content edits
    /// record [`Direction::Down`] and are distinguished by `kind`).
    pub direction: Direction,
    /// The edit family applied (snapshots from before the richer action
    /// space default to [`EditKind::SwapUp`]).
    #[serde(default)]
    pub kind: EditKind,
    /// The selected instruction's text before the edit.
    pub text: String,
    /// Reward received for the move.
    pub reward: f32,
}

/// The assembly game environment.
#[derive(Debug, Clone)]
pub struct AssemblyGame {
    gpu: GpuConfig,
    launch: LaunchConfig,
    config: GameConfig,
    stalls: StallTable,
    initial: Program,
    initial_runtime: f64,
    initial_digest: u64,
    current: Program,
    current_runtime: f64,
    /// Schedule-pure derived state of `current` (analysis, action mask,
    /// legality context, observation), kept in the eval cache's entry of
    /// each schedule a step accepted: revisited schedules re-adopt their
    /// views with an `Arc` clone instead of re-analyzing.
    views: Arc<DerivedViews>,
    steps_in_episode: usize,
    best: Program,
    best_runtime: f64,
    /// The moves from the initial schedule to `best`: `trace` as it stood
    /// when `step` adopted `best`.
    best_trace: Vec<Move>,
    action_slots: usize,
    trace: Vec<Move>,
    /// The game's one per-schedule memo (measurements and derived views,
    /// keyed by schedule digest), shared (via `Arc`) across clones of this
    /// game — episode resets, greedy peeks and the winner's step after
    /// them, and evolutionary replays all hit the same cache.
    cache: Arc<EvalCache>,
    /// `current` in lowered form, advanced edit by edit: a cache miss
    /// simulates it without re-lowering the listing.
    lowered: LoweredSchedule,
    /// Digest of `current`'s labels and their anchors, which no edit moves
    /// (see [`crate::eval_cache::labels_key`]).
    labels_key: u64,
    /// Per-instruction digests of `current`, by instruction index (see
    /// [`crate::eval_cache::instruction_key`]): reordering instructions only
    /// swaps entries, so cache keys cost a fold over cached `u64`s instead
    /// of re-hashing the whole listing per measurement.
    instruction_keys: Vec<u64>,
    /// `Display` text of each instruction of `current`, by instruction
    /// index, advanced with `instruction_keys`: a recorded [`Move::text`] is
    /// a copy of one entry instead of a fresh rendering.
    texts: Vec<Arc<str>>,
    /// Views of the initial schedule, re-adopted by every episode reset
    /// (the initial schedule never changes, and resets happen once per
    /// episode).
    initial_views: Arc<DerivedViews>,
    /// The edits accepted since the last reset, in order: `reset` undoes
    /// them through their inverses. `None` after a state restore, whose
    /// path from the initial schedule is unknown; the next reset rebuilds.
    episode_edits: Option<Vec<ScheduleEdit>>,
}

/// Everything the game derives from the current listing alone: the static
/// analysis, the movable set, the resized action mask, the retained
/// legality context and the embedded observation. Pure function of the
/// schedule text (given the game's fixed stall table and device), hence
/// freely shareable and memoizable by schedule digest.
#[derive(Debug)]
pub(crate) struct DerivedViews {
    analysis: Analysis,
    movable: Vec<usize>,
    mask: Vec<bool>,
    /// Resolved legal edit per flat action id of the game's action space.
    /// `mask[id]` is exactly `edits[id].is_some()`, so legality and
    /// application can never disagree.
    edits: Vec<Option<ScheduleEdit>>,
    masker: IncrementalMasker,
    obs: Matrix,
}

/// The digest of every instruction of `program`, by instruction index.
fn instruction_keys(program: &Program) -> Vec<u64> {
    program.instructions().iter().map(instruction_key).collect()
}

/// The `Display` text of every instruction of `program`, by instruction
/// index.
fn instruction_texts(program: &Program) -> Vec<Arc<str>> {
    program
        .instructions()
        .iter()
        .map(|inst| Arc::from(inst.to_string()))
        .collect()
}

/// Builds the full derived views of one listing from a fresh analysis.
fn build_views(
    program: &Program,
    analysis: Analysis,
    stalls: &StallTable,
    gpu: &GpuConfig,
    action_slots: usize,
    space: ActionSpace,
) -> DerivedViews {
    let movable = analysis.movable_memory_indices();
    let mut masker = IncrementalMasker::new(program, &analysis, stalls);
    let edits = masker.full_edits(&movable, &analysis, space);
    let mut mask: Vec<bool> = edits.iter().map(Option::is_some).collect();
    mask.resize(space.action_count(action_slots), false);
    let obs = embed_program(program, &analysis, &gpu.arch);
    DerivedViews {
        analysis,
        movable,
        mask,
        edits,
        masker,
        obs,
    }
}

/// Scales one simulated report to the launch and applies the measurement
/// protocol — what [`measure`] does after its simulation.
fn measurement_of(
    gpu: &GpuConfig,
    launch: &LaunchConfig,
    options: &MeasureOptions,
    report: SmReport,
) -> Measurement {
    measurement_from_run(kernel_run_from_report(gpu, launch, report), options)
}

impl AssemblyGame {
    /// Creates a game from the `-O3` schedule the compiler produced.
    #[must_use]
    pub fn new(
        gpu: GpuConfig,
        program: Program,
        launch: LaunchConfig,
        stalls: StallTable,
        config: GameConfig,
    ) -> Self {
        let cache = EvalCache::new();
        let lowered = LoweredSchedule::new(&gpu, &launch, &program);
        let labels_key = labels_key(&program);
        let instruction_keys = instruction_keys(&program);
        let key = schedule_key(labels_key, instruction_keys.iter().copied());
        let measurement = cache.get_or_insert_with(key, || {
            measurement_of(&gpu, &launch, &config.measure, lowered.simulate())
        });
        let runtime = measurement.mean_us;
        let digest = measurement.run.sm.output_digest;
        let analysis = analyze(&program, &stalls);
        let action_slots = analysis.movable_memory_indices().len();
        let views = Arc::new(build_views(
            &program,
            analysis,
            &stalls,
            &gpu,
            action_slots,
            config.action_space,
        ));
        cache.remember_views(key, &views);
        let texts = instruction_texts(&program);
        AssemblyGame {
            gpu,
            launch,
            config,
            stalls,
            initial: program.clone(),
            initial_runtime: runtime,
            initial_digest: digest,
            current: program.clone(),
            current_runtime: runtime,
            initial_views: Arc::clone(&views),
            episode_edits: Some(Vec::new()),
            labels_key,
            instruction_keys,
            texts,
            views,
            steps_in_episode: 0,
            best: program,
            best_runtime: runtime,
            best_trace: Vec::new(),
            action_slots,
            trace: Vec::new(),
            cache: Arc::new(cache),
            lowered,
        }
    }

    /// The schedule-evaluation cache backing this game.
    #[must_use]
    pub fn eval_cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }

    /// Runtime of the unmodified `-O3` schedule in microseconds.
    #[must_use]
    pub fn initial_runtime_us(&self) -> f64 {
        self.initial_runtime
    }

    /// The best schedule found so far and its runtime in microseconds.
    #[must_use]
    pub fn best(&self) -> (&Program, f64) {
        (&self.best, self.best_runtime)
    }

    /// The moves that reach [`AssemblyGame::best`] from the initial schedule
    /// (§5.7's optimization moves): replayed on a fresh game they reproduce
    /// the best schedule, and no shorter prefix of them reaches its runtime.
    #[must_use]
    pub fn best_trace(&self) -> &[Move] {
        &self.best_trace
    }

    /// The output digest of the unmodified schedule (used by probabilistic
    /// testing).
    #[must_use]
    pub fn initial_digest(&self) -> u64 {
        self.initial_digest
    }

    /// The static analysis of the current schedule.
    #[must_use]
    pub fn analysis(&self) -> &Analysis {
        &self.views.analysis
    }

    /// The action mask of the current schedule, borrowed: what
    /// [`Env::action_mask`] copies.
    pub(crate) fn mask(&self) -> &[bool] {
        &self.views.mask
    }

    /// The moves applied since the last reset (inference-mode trace, §5.7).
    #[must_use]
    pub fn trace(&self) -> &[Move] {
        &self.trace
    }

    /// Measures the game's current schedule, answering revisits from the
    /// shared cache (with the views the entry carries, if any) and fresh
    /// schedules by simulating the lowered mirror (bit-identical to
    /// `measure` on the listing, so entries stay interchangeable with
    /// [`AssemblyGame::cached_measurement`]'s). `key` is
    /// [`AssemblyGame::current_schedule_key`].
    fn measure_current_schedule(&self, key: u64) -> (Measurement, Option<Arc<DerivedViews>>) {
        debug_assert_eq!(
            key,
            program_key(&self.current),
            "cached digests must track the current listing"
        );
        self.cache.lookup(key).unwrap_or_else(|| {
            let measurement = measurement_of(
                &self.gpu,
                &self.launch,
                &self.config.measure,
                self.lowered.simulate(),
            );
            self.cache.insert_computed(key, measurement.clone());
            (measurement, None)
        })
    }

    /// Whether a measured schedule is corrupted: the simulator reported
    /// hazards or the output digest moved off the initial schedule's.
    fn corrupts(&self, measured: &Measurement) -> bool {
        measured.run.sm.hazards > 0 || measured.run.sm.output_digest != self.initial_digest
    }

    /// The reward (equation 3) of moving from the current schedule to one
    /// measured at `runtime`: the relative improvement scaled by 100.
    fn reward_for(&self, runtime: f64) -> f32 {
        ((self.current_runtime - runtime) / self.initial_runtime * 100.0) as f32
    }

    /// The reward [`Env::step`] would pay for `action_id`, with the game left
    /// exactly as it was: the edit is applied to every mirror, priced by the
    /// same eval-cache lookup (or simulated insert) a step makes, and undone
    /// by its inverse. Greedy prices its candidates this way, so a scan
    /// neither clones the game nor derives views of schedules it does not
    /// keep. A masked or out-of-range id pays 0 and touches nothing.
    pub(crate) fn peek_reward(&mut self, action_id: usize) -> f32 {
        let Some(edit) = self.views.edits.get(action_id).copied().flatten() else {
            return 0.0;
        };
        if !self.apply_edit_everywhere(&edit) {
            return 0.0;
        }
        let (measured, _) = self.measure_current_schedule(self.current_schedule_key());
        let undone = self.apply_edit_everywhere(&edit.inverse());
        debug_assert!(undone, "inverse edit must apply");
        if self.corrupts(&measured) {
            -10.0
        } else {
            self.reward_for(measured.mean_us)
        }
    }

    /// The full cached measurement of a schedule under the game's protocol.
    pub fn cached_measurement(&self, program: &Program) -> Measurement {
        self.cache.get_or_insert_with(program_key(program), || {
            measure(&self.gpu, program, &self.launch, &self.config.measure)
        })
    }

    /// The schedule digest of `current`, folded from the cached digests (no
    /// re-hashing of the listing text).
    fn current_schedule_key(&self) -> u64 {
        schedule_key(self.labels_key, self.instruction_keys.iter().copied())
    }

    /// Rebuilds every derived view of `current` from scratch: static
    /// analysis, movable set, legality context, mask and observation. Used
    /// by checkpoint restore and as the fallback when an accepted edit
    /// invalidated an incremental precondition.
    fn refresh_full(&mut self) {
        let analysis = analyze(&self.current, &self.stalls);
        self.views = Arc::new(build_views(
            &self.current,
            analysis,
            &self.stalls,
            &self.gpu,
            self.action_slots,
            self.config.action_space,
        ));
    }

    /// Applies `edit` to every mirror of the current schedule: the source
    /// program and its lowered form through [`ScheduleEdit::apply`] and
    /// [`ScheduleEdit::apply_to_compiled`] (the pair `edit_equivalence`
    /// proves), and the instruction digests and texts here.
    /// Returns false (with everything unchanged) when the edit does not fit
    /// the program — mask-resolved edits always do.
    fn apply_edit_everywhere(&mut self, edit: &ScheduleEdit) -> bool {
        if !edit.apply(&mut self.current) {
            return false;
        }
        self.lowered.apply(edit, &self.current);
        match *edit {
            ScheduleEdit::Swap { .. } | ScheduleEdit::BlockMove { .. } => {
                for upper in edit.swap_uppers() {
                    self.instruction_keys.swap(upper, upper + 1);
                    self.texts.swap(upper, upper + 1);
                }
            }
            _ => {
                let index = edit.index();
                let inst = &self.current.instructions()[index];
                self.texts[index] = Arc::from(inst.to_string());
                self.instruction_keys[index] = instruction_key(inst);
            }
        }
        true
    }

    /// Makes `program` the current schedule and rebuilds its lowering,
    /// digests and instruction texts anew (a state restore, and the first
    /// reset after one). The derived views are the caller's.
    fn rebuild_mirrors(&mut self, program: Program) {
        self.current = program;
        self.lowered.relower(&self.current);
        self.labels_key = labels_key(&self.current);
        self.instruction_keys = instruction_keys(&self.current);
        self.texts = instruction_texts(&self.current);
    }

    /// Refreshes the derived views after an accepted edit: revisited
    /// schedules re-adopt the `memoized` views their cache entry carried,
    /// new ones take the incremental edit-table path when its preconditions
    /// verifiably hold against the fresh analysis, and everything else
    /// falls back to [`AssemblyGame::refresh_full`] (`masking_properties`
    /// pins incremental ≡ full for every edit kind in both spaces); either
    /// way the entry keeps the new views. `key` is
    /// [`AssemblyGame::current_schedule_key`].
    fn refresh_after_edit(
        &mut self,
        edit: &ScheduleEdit,
        key: u64,
        memoized: Option<Arc<DerivedViews>>,
    ) {
        if let Some(views) = memoized {
            self.views = views;
            return;
        }
        let analysis = analyze(&self.current, &self.stalls);
        let previous = Arc::clone(&self.views);
        // Incremental updates reuse out-of-block entries, which is only
        // valid when the edit left the global context inputs unchanged: the
        // (schedule-inferred) stall table and the denylist (up to the edit's
        // relabeling of instruction positions).
        let denylist_permuted = analysis.denylist.len() == previous.analysis.denylist.len()
            && analysis.denylist.iter().all(|&i| {
                previous
                    .analysis
                    .denylist
                    .contains(&edit.old_position_of(i))
            });
        let incremental = denylist_permuted
            && analysis.stalls == previous.analysis.stalls
            && previous.masker.edit_stays_incremental(edit);
        if !incremental {
            self.refresh_full();
            self.cache.remember_views(key, &self.views);
            return;
        }
        let movable = analysis.movable_memory_indices();
        let mut masker = previous.masker.clone();
        masker.apply_edit(edit);
        let edits = masker.edits_after_edit(
            edit,
            &movable,
            &analysis,
            self.config.action_space,
            &previous.movable,
            &previous.edits,
        );
        let mut mask: Vec<bool> = edits.iter().map(Option::is_some).collect();
        mask.resize(
            self.config.action_space.action_count(self.action_slots),
            false,
        );
        let mut obs = previous.obs.clone();
        if analysis.register_table == previous.analysis.register_table
            && analysis.max_operands == previous.analysis.max_operands
        {
            embed_rows_into(
                &mut obs,
                &self.current,
                &edit.touched_indices(),
                &analysis,
                &self.gpu.arch,
            );
        } else {
            obs = embed_program(&self.current, &analysis, &self.gpu.arch);
        }
        let views = Arc::new(DerivedViews {
            analysis,
            movable,
            mask,
            edits,
            masker,
            obs,
        });
        self.cache.remember_views(key, &views);
        self.views = views;
    }
}

/// The serialized form of an [`AssemblyGame`]'s mutable state (see
/// [`Env::state_bytes`]): everything `reset`/`step` mutate, with runtimes
/// stored as exact `f64` bit patterns. Static context (device, launch,
/// stall table, initial schedule) is *not* serialized — the snapshot must be
/// restored onto a game constructed for the same kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GameSnapshot {
    /// The action space the snapshot was taken under. Snapshots only restore
    /// onto a game configured for the same space (the reachable-state
    /// invariants differ), and an unknown space version fails decoding —
    /// both surface as the typed `rl::CheckpointError::EnvRejectedState`.
    #[serde(default)]
    action_space: ActionSpace,
    current: String,
    current_runtime_bits: u64,
    steps_in_episode: usize,
    best: String,
    best_runtime_bits: u64,
    best_trace: Vec<Move>,
    trace: Vec<Move>,
}

impl Env for AssemblyGame {
    /// Rewinds to the initial schedule by undoing the episode: the inverse
    /// of every accepted edit, in reverse, through the private
    /// `apply_edit_everywhere` (listing, lowering, digests and texts in
    /// O(accepted edits)), then the initial derived views by `Arc`. After a
    /// state restore the mirrors are rebuilt from the initial schedule
    /// instead. The returned observation is the only allocation of a reset
    /// after an adjacent-swap episode.
    fn reset(&mut self) -> Matrix {
        match self.episode_edits.take() {
            Some(mut edits) => {
                for edit in edits.drain(..).rev() {
                    let undone = self.apply_edit_everywhere(&edit.inverse());
                    debug_assert!(undone, "inverse edit must apply");
                }
                self.episode_edits = Some(edits);
            }
            None => {
                self.rebuild_mirrors(self.initial.clone());
                self.episode_edits = Some(Vec::new());
            }
        }
        self.current_runtime = self.initial_runtime;
        self.steps_in_episode = 0;
        self.trace.clear();
        self.views = Arc::clone(&self.initial_views);
        self.views.obs.clone()
    }

    /// One environment step: the flat id is looked up in the resolved edit
    /// table, so a masked or out-of-range id is a no-op (schedule, runtime,
    /// trace and eval cache untouched, reward 0). A legal edit is applied to
    /// every schedule mirror, priced by simulating it, and reverted
    /// via its O(1) inverse if the simulator reports hazards or an
    /// output-digest change.
    fn step(&mut self, action_id: usize) -> Step {
        self.steps_in_episode += 1;
        let mut reward = 0.0;
        if let Some(edit) = self.views.edits.get(action_id).copied().flatten() {
            let (slot, kind) = self.config.action_space.decode(action_id);
            let instruction = self.views.movable[slot];
            let text = Arc::clone(&self.texts[instruction]);
            if self.apply_edit_everywhere(&edit) {
                let key = self.current_schedule_key();
                let (measured, memoized) = self.measure_current_schedule(key);
                let runtime = measured.mean_us;
                reward = self.reward_for(runtime);
                if self.corrupts(&measured) {
                    // A corrupted schedule (should be prevented by masking):
                    // revert via the exact inverse edit and punish. The
                    // schedule is back to its pre-step state, so every
                    // derived view stays valid.
                    let undone = self.apply_edit_everywhere(&edit.inverse());
                    debug_assert!(undone, "inverse edit must apply");
                    reward = -10.0;
                } else {
                    self.current_runtime = runtime;
                    if let Some(edits) = &mut self.episode_edits {
                        edits.push(edit);
                    }
                    self.trace.push(Move {
                        instruction,
                        direction: match kind {
                            EditKind::SwapUp | EditKind::MoveUp => Direction::Up,
                            _ => Direction::Down,
                        },
                        kind,
                        text: text.to_string(),
                        reward,
                    });
                    if runtime < self.best_runtime {
                        self.best_runtime = runtime;
                        self.best = self.current.clone();
                        self.best_trace = self.trace.clone();
                    }
                    self.refresh_after_edit(&edit, key, memoized);
                }
            }
        }
        let done = self.steps_in_episode >= self.config.episode_length
            || !self.views.mask.iter().any(|&m| m);
        Step {
            observation: self.views.obs.clone(),
            reward,
            done,
        }
    }

    fn action_count(&self) -> usize {
        self.config.action_space.action_count(self.action_slots)
    }

    fn action_mask(&self) -> Vec<bool> {
        self.mask().to_vec()
    }

    fn observation_features(&self) -> usize {
        feature_count(&self.views.analysis)
    }

    /// Serializes the game's mutable state (current/best schedules, their
    /// runtimes as exact bit patterns, episode progress and both move traces) so
    /// an RL training run over this game can be checkpointed and resumed
    /// bit-identically.
    fn state_bytes(&self) -> Option<Vec<u8>> {
        let snapshot = GameSnapshot {
            action_space: self.config.action_space,
            current: self.current.to_string(),
            current_runtime_bits: self.current_runtime.to_bits(),
            steps_in_episode: self.steps_in_episode,
            best: self.best.to_string(),
            best_runtime_bits: self.best_runtime.to_bits(),
            best_trace: self.best_trace.clone(),
            trace: self.trace.clone(),
        };
        Some(serde_json::to_string(&snapshot).ok()?.into_bytes())
    }

    /// Restores a [`Env::state_bytes`] snapshot onto a game constructed for
    /// the same kernel (same program length, device, launch and protocol).
    /// Returns `false` — leaving the game unchanged — when the bytes do not
    /// decode or the schedules do not belong to this kernel.
    fn restore_state(&mut self, state: &[u8]) -> bool {
        let Ok(text) = std::str::from_utf8(state) else {
            return false;
        };
        let Ok(snapshot) = serde_json::from_str::<GameSnapshot>(text) else {
            return false;
        };
        if snapshot.action_space != self.config.action_space {
            return false;
        }
        let Ok(current) = snapshot.current.parse::<Program>() else {
            return false;
        };
        let Ok(best) = snapshot.best.parse::<Program>() else {
            return false;
        };
        // Any reachable state is a permutation of the initial schedule — in
        // the richer space additionally with retuned control codes and reuse
        // flags, which the canonical form strips — under the initial
        // listing's labels, which no edit moves. A snapshot from a
        // different kernel — even one with the same instruction count — or
        // one whose listing anchors a label elsewhere (its branches would
        // land on other instructions) fails these checks instead of being
        // silently adopted.
        let canonical = |inst: &sass::Instruction| match self.config.action_space {
            ActionSpace::AdjacentSwap => inst.to_string(),
            ActionSpace::Rich => {
                let mut inst = inst.clone();
                *inst.control_mut() = sass::ControlCode::default();
                for operand in 0..inst.operands().len() {
                    inst.set_operand_reuse(operand, false);
                }
                inst.to_string()
            }
        };
        let multiset = |program: &Program| {
            let mut texts: Vec<String> = program.instructions().iter().map(canonical).collect();
            texts.sort_unstable();
            texts
        };
        let initial = multiset(&self.initial);
        let belongs = |program: &Program| {
            program.labels() == self.initial.labels() && multiset(program) == initial
        };
        if !belongs(&current) || !belongs(&best) {
            return false;
        }
        self.rebuild_mirrors(current);
        self.refresh_full();
        self.episode_edits = None;
        self.current_runtime = f64::from_bits(snapshot.current_runtime_bits);
        self.steps_in_episode = snapshot.steps_in_episode;
        self.best = best;
        self.best_runtime = f64::from_bits(snapshot.best_runtime_bits);
        self.best_trace = snapshot.best_trace;
        self.trace = snapshot.trace;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::{generate, KernelConfig, KernelKind, KernelSpec, ScheduleStyle};

    /// A game of the scale-16 `kind` kernel on `gpu`: 32 × 32 × 32 tiles
    /// for the GEMM family, 256-wide rows otherwise, 4 warps.
    fn game_of(kind: KernelKind, gpu: GpuConfig, space: ActionSpace) -> AssemblyGame {
        let spec = KernelSpec::scaled(kind, 16);
        let config = match kind {
            KernelKind::Softmax | KernelKind::Rmsnorm => KernelConfig {
                block_m: 1,
                block_n: 256,
                block_k: 1,
                num_warps: 4,
                num_stages: 1,
            },
            _ => KernelConfig {
                block_m: 32,
                block_n: 32,
                block_k: 32,
                num_warps: 4,
                num_stages: 2,
            },
        };
        let kernel = generate(&spec, &config, ScheduleStyle::Baseline);
        AssemblyGame::new(
            gpu,
            kernel.program,
            kernel.launch,
            StallTable::builtin_a100(),
            GameConfig {
                action_space: space,
                ..GameConfig::default()
            },
        )
    }

    fn small_game_in(space: ActionSpace) -> AssemblyGame {
        game_of(KernelKind::MatmulLeakyRelu, GpuConfig::small(), space)
    }

    fn small_game() -> AssemblyGame {
        small_game_in(ActionSpace::default())
    }

    #[test]
    fn reset_produces_an_observation_matching_the_schedule() {
        let mut game = small_game();
        let obs = game.reset();
        assert_eq!(obs.cols(), game.observation_features());
        assert!(obs.rows() > 20);
        assert!(game.action_count() >= 2);
        assert_eq!(game.action_mask().len(), game.action_count());
    }

    #[test]
    fn greedy_exploration_improves_the_schedule_without_corruption() {
        let mut game = small_game();
        let _ = game.reset();
        let initial = game.initial_runtime_us();
        // Greedily take the first few legal actions that yield positive
        // reward; the game must never accept a corrupted schedule.
        let mut improved = 0;
        for _ in 0..12 {
            let mask = game.action_mask();
            let Some(action) = mask.iter().position(|&m| m) else {
                break;
            };
            let step = game.step(action);
            if step.reward > 0.0 {
                improved += 1;
            }
            if step.done {
                break;
            }
        }
        let (_, best_runtime) = game.best();
        assert!(best_runtime <= initial);
        assert!(!game.trace().is_empty() || improved == 0);
    }

    #[test]
    fn state_snapshot_round_trips_onto_a_fresh_game() {
        let mut game = small_game();
        let _ = game.reset();
        for _ in 0..4 {
            let mask = game.action_mask();
            let Some(action) = mask.iter().position(|&m| m) else {
                break;
            };
            game.step(action);
        }
        let state = game.state_bytes().expect("assembly game snapshots");
        let mut restored = small_game();
        assert!(restored.restore_state(&state));
        assert_eq!(restored.trace(), game.trace());
        assert_eq!(restored.best().1.to_bits(), game.best().1.to_bits());
        assert_eq!(restored.best().0.to_string(), game.best().0.to_string());
        assert_eq!(restored.best_trace(), game.best_trace());
        assert_eq!(restored.action_mask(), game.action_mask());
        // The two games continue identically.
        let mask = game.action_mask();
        if let Some(action) = mask.iter().position(|&m| m) {
            let a = game.step(action);
            let b = restored.step(action);
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
            assert_eq!(a.done, b.done);
            assert_eq!(a.observation, b.observation);
        }
        // Garbage and foreign states are refused without panicking.
        assert!(!restored.restore_state(b"\xFF\xFE not json"));
        assert!(!restored.restore_state(b"{}"));
    }

    /// A snapshot without the best trace (written before the game kept one)
    /// is refused, so a PPO checkpoint from before then cold-starts instead
    /// of resuming with an empty trace behind a non-initial best.
    #[test]
    fn a_snapshot_without_the_best_trace_is_refused() {
        let game = small_game();
        let state = String::from_utf8(game.state_bytes().unwrap()).unwrap();
        let legacy = state.replace("\"best_trace\":[],", "");
        assert_ne!(legacy, state, "the snapshot carries the best trace");
        let mut restored = small_game();
        assert!(restored.restore_state(state.as_bytes()));
        assert!(!restored.restore_state(legacy.as_bytes()));
    }

    /// The game never moves a label, so a snapshot whose current or best
    /// listing anchors `.L_main` one line off — the same instructions, but
    /// the loop's branch would land elsewhere — is no reachable state: it is
    /// refused in both spaces, and the game is left as it was.
    #[test]
    fn a_snapshot_with_a_moved_label_is_refused() {
        let move_label = |listing: &str| -> String {
            let mut lines: Vec<&str> = listing.lines().collect();
            let at = lines
                .iter()
                .position(|line| *line == ".L_main:")
                .expect("the kernel has a .L_main loop label");
            lines.swap(at, at + 1);
            lines.join("\n")
        };
        for space in [ActionSpace::AdjacentSwap, ActionSpace::Rich] {
            let mut walked = small_game_in(space);
            let _ = walked.reset();
            let _ = random_walk(&mut walked, 4, 1);
            let state = String::from_utf8(walked.state_bytes().unwrap()).unwrap();
            let snapshot: GameSnapshot = serde_json::from_str(&state).unwrap();
            let mut game = small_game_in(space);
            let _ = game.reset();
            let _ = random_walk(&mut game, 3, 9);
            let before = observe(&game);
            let mut moved_current = snapshot.clone();
            moved_current.current = move_label(&snapshot.current);
            let mut moved_best = snapshot;
            moved_best.best = move_label(&moved_best.best);
            for forged in [moved_current, moved_best] {
                let forged = serde_json::to_string(&forged).unwrap();
                assert!(!game.restore_state(forged.as_bytes()), "{space:?}");
                assert_eq!(observe(&game), before, "{space:?}");
            }
            assert!(game.restore_state(state.as_bytes()), "{space:?}");
        }
    }

    /// Mid-walk rich-space snapshots restore exactly — trace (including
    /// non-swap moves), best schedule, mask and the continuation — and the
    /// usual rejections (garbage, foreign kernels, wrong space, ids out of
    /// range) never panic.
    #[test]
    fn rich_state_snapshot_round_trips_and_rejects_foreign_states() {
        let mut game = small_game_in(ActionSpace::Rich);
        let _ = game.reset();
        // Walk a mix of edit kinds: take the first legal action of each
        // kind in turn so the trace records more than plain swaps.
        for kind_offset in 0..game.config.action_space.kinds_per_slot() {
            let mask = game.action_mask();
            let Some(action) = (0..mask.len())
                .filter(|&id| mask[id])
                .find(|&id| id % game.config.action_space.kinds_per_slot() == kind_offset)
            else {
                continue;
            };
            game.step(action);
        }
        assert!(!game.trace().is_empty());
        let state = game.state_bytes().expect("assembly game snapshots");
        let mut restored = small_game_in(ActionSpace::Rich);
        assert!(restored.restore_state(&state));
        assert_eq!(restored.trace(), game.trace());
        assert_eq!(restored.best().1.to_bits(), game.best().1.to_bits());
        assert_eq!(restored.best().0.to_string(), game.best().0.to_string());
        assert_eq!(restored.best_trace(), game.best_trace());
        assert_eq!(restored.current.to_string(), game.current.to_string());
        assert_eq!(restored.action_mask(), game.action_mask());
        let mask = game.action_mask();
        if let Some(action) = mask.iter().position(|&m| m) {
            let a = game.step(action);
            let b = restored.step(action);
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
            assert_eq!(a.done, b.done);
            assert_eq!(a.observation, b.observation);
        }
        // Out-of-range action ids are inert, not fatal.
        let step = game.step(game.action_count() + 123);
        assert_eq!(step.reward.to_bits(), 0.0f32.to_bits());
        // Garbage bytes, a snapshot of another kernel, and a snapshot of
        // another action space are all refused without panicking.
        assert!(!restored.restore_state(b"\xFF\xFE not json"));
        let foreign_spec = KernelSpec::scaled(KernelKind::Softmax, 16);
        let foreign_config = KernelConfig {
            block_m: 1,
            block_n: 256,
            block_k: 1,
            num_warps: 4,
            num_stages: 1,
        };
        let foreign = generate(&foreign_spec, &foreign_config, ScheduleStyle::Baseline);
        let mut foreign_game = AssemblyGame::new(
            GpuConfig::small(),
            foreign.program,
            foreign.launch,
            StallTable::builtin_a100(),
            GameConfig {
                action_space: ActionSpace::Rich,
                ..GameConfig::default()
            },
        );
        assert!(!foreign_game.restore_state(&state));
        let mut swap_game = small_game();
        assert!(!swap_game.restore_state(&state));
    }

    /// The same swap on the same schedule is recorded as the same [`Move`]
    /// whichever space's id requested it: the selected instruction, its
    /// pre-edit index and text, and the direction of the kind.
    #[test]
    fn swap_moves_are_recorded_identically_in_both_spaces() {
        let mut swap_game = small_game();
        let mut rich_game = small_game_in(ActionSpace::Rich);
        let _ = swap_game.reset();
        let _ = rich_game.reset();
        for (kind, direction) in [
            (EditKind::SwapUp, Direction::Up),
            (EditKind::SwapDown, Direction::Down),
        ] {
            let swap_id = |slot| ActionSpace::AdjacentSwap.encode(slot, kind).unwrap();
            let mask = swap_game.action_mask();
            let slot = (0..swap_game.action_slots)
                .find(|&slot| mask[swap_id(slot)])
                .expect("some slot admits the swap");
            let index = swap_game.views.movable[slot];
            let text = swap_game.current.instruction(index).unwrap().to_string();
            swap_game.step(swap_id(slot));
            rich_game.step(ActionSpace::Rich.encode(slot, kind).unwrap());
            let recorded = swap_game.trace().last().expect("legal swaps are accepted");
            assert_eq!(
                (recorded.instruction, recorded.direction, recorded.kind),
                (index, direction, kind)
            );
            assert_eq!(recorded.text, text);
            assert_eq!(swap_game.trace(), rich_game.trace());
            assert_eq!(swap_game.current.to_string(), rich_game.current.to_string());
        }
    }

    /// In both spaces a masked (or out-of-range) id touches nothing and earns
    /// 0, while an edit the mask admitted but the simulator rejects is
    /// measured, reverted through its inverse and punished with -10 — by a
    /// peek as by a step.
    #[test]
    fn masked_ids_are_inert_and_rejected_edits_are_reverted() {
        for space in [ActionSpace::AdjacentSwap, ActionSpace::Rich] {
            let mut game = small_game_in(space);
            let _ = game.reset();
            let listing = game.current.to_string();
            let runtime = game.current_runtime.to_bits();
            let assert_untouched = |game: &AssemblyGame| {
                assert_eq!(game.current.to_string(), listing, "{space:?}");
                assert_eq!(game.current_runtime.to_bits(), runtime, "{space:?}");
                assert!(game.trace().is_empty(), "{space:?}");
            };
            let mask = game.action_mask();
            let masked: Vec<usize> = (0..mask.len()).filter(|&id| !mask[id]).collect();
            let misses = game.eval_cache().stats().misses;
            for &id in masked.iter().chain([&mask.len()]) {
                assert_eq!(game.peek_reward(id).to_bits(), 0.0f32.to_bits());
                assert_eq!(game.step(id).reward.to_bits(), 0.0f32.to_bits());
            }
            assert_untouched(&game);
            assert_eq!(game.eval_cache().stats().misses, misses);

            // Forge an edit table that admits one masked swap at a time until
            // the simulator rejects one.
            let mut rejected = false;
            for &id in &masked {
                let (slot, kind) = space.decode(id);
                let index = game.views.movable[slot];
                let upper = match kind {
                    EditKind::SwapUp if index > 0 => index - 1,
                    EditKind::SwapDown => index,
                    _ => continue,
                };
                let _ = game.reset();
                let mut views = build_views(
                    &game.current,
                    analyze(&game.current, &game.stalls),
                    &game.stalls,
                    &game.gpu,
                    game.action_slots,
                    space,
                );
                views.edits[id] = Some(ScheduleEdit::Swap { upper });
                views.mask[id] = true;
                game.views = Arc::new(views);
                let misses = game.eval_cache().stats().misses;
                let peeked = game.peek_reward(id);
                assert_untouched(&game);
                let reward = game.step(id).reward;
                assert_eq!(peeked.to_bits(), reward.to_bits(), "{space:?}");
                if reward.to_bits() == (-10.0f32).to_bits() {
                    assert_untouched(&game);
                    assert_eq!(game.eval_cache().stats().misses, misses + 1);
                    rejected = true;
                    break;
                }
            }
            assert!(rejected, "{space:?}: some masked swap must corrupt");

            // The reverted game keeps playing exactly like a fresh one.
            let mut fresh = small_game_in(space);
            let _ = (game.reset(), fresh.reset());
            let legal = mask.iter().position(|&m| m).unwrap();
            assert_eq!(
                game.step(legal).reward.to_bits(),
                fresh.step(legal).reward.to_bits()
            );
            assert_eq!(game.trace(), fresh.trace());
        }
    }

    /// A seeded walk of up to `moves` legal actions from the current state.
    fn random_walk(game: &mut AssemblyGame, moves: usize, seed: u64) -> Vec<usize> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut actions = Vec::new();
        for _ in 0..moves {
            let legal: Vec<usize> = (0..game.mask().len())
                .filter(|&id| game.mask()[id])
                .collect();
            if legal.is_empty() {
                break;
            }
            let action = legal[rng.gen_range(0..legal.len())];
            let _ = game.step(action);
            actions.push(action);
        }
        actions
    }

    /// A seeded walk of up to `moves` legal actions that cycles through the
    /// space's edit kinds: each step takes a random legal action of the next
    /// kind that has one.
    fn kind_cycling_walk(game: &mut AssemblyGame, moves: usize, seed: u64) -> Vec<usize> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let kinds = game.config.action_space.kinds_per_slot();
        let mut actions = Vec::new();
        for step in 0..moves {
            let legal: Vec<usize> = (0..game.mask().len())
                .filter(|&id| game.mask()[id])
                .collect();
            let Some(kind) = (0..kinds)
                .map(|k| (step + k) % kinds)
                .find(|&kind| legal.iter().any(|&id| id % kinds == kind))
            else {
                break;
            };
            let of_kind: Vec<usize> = legal.into_iter().filter(|&id| id % kinds == kind).collect();
            let action = of_kind[rng.gen_range(0..of_kind.len())];
            let _ = game.step(action);
            actions.push(action);
        }
        actions
    }

    /// Every mirror of `game`'s current schedule is the initial one: the
    /// listing, the digests, the instruction texts and the lowering.
    fn assert_at_initial(game: &AssemblyGame) {
        let space = game.config.action_space;
        assert_eq!(
            game.current.to_string(),
            game.initial.to_string(),
            "{space:?}"
        );
        assert_eq!(
            (game.labels_key, game.instruction_keys.clone()),
            (labels_key(&game.initial), instruction_keys(&game.initial)),
            "{space:?}"
        );
        assert_eq!(game.texts, instruction_texts(&game.initial), "{space:?}");
        let lowered = LoweredSchedule::new(&game.gpu, &game.launch, &game.initial);
        assert_eq!(game.lowered.simulate(), lowered.simulate(), "{space:?}");
    }

    /// Resets `game`, checks every mirror is back at the initial schedule,
    /// and replays `actions` on it and on a fresh game of the same kernel,
    /// step for step: observations, masks, rewards, done flags and traces
    /// must agree, and every measurement `game` takes must be a hit of its
    /// cache, one per lookup the fresh game makes.
    fn assert_replay_matches_a_fresh_game(game: &mut AssemblyGame, actions: &[usize]) {
        let space = game.config.action_space;
        let mut fresh = small_game_in(space);
        let observation = game.reset();
        assert_at_initial(game);
        assert_eq!(observation, fresh.reset(), "{space:?}");
        let (before, fresh_before) = (game.eval_cache().stats(), fresh.eval_cache().stats());
        for (i, &action) in actions.iter().enumerate() {
            let (a, b) = (game.step(action), fresh.step(action));
            assert_eq!(a.observation, b.observation, "{space:?} step {i}");
            assert_eq!(a.reward.to_bits(), b.reward.to_bits(), "{space:?} step {i}");
            assert_eq!(a.done, b.done, "{space:?} step {i}");
            assert_eq!(game.mask(), fresh.mask(), "{space:?} step {i}");
            assert_eq!(game.trace(), fresh.trace(), "{space:?} step {i}");
        }
        assert_eq!(game.current.to_string(), fresh.current.to_string());
        let (after, fresh_after) = (game.eval_cache().stats(), fresh.eval_cache().stats());
        assert_eq!(after.misses, before.misses, "{space:?}: a replay only hits");
        assert_eq!(
            after.hits - before.hits,
            (fresh_after.hits + fresh_after.misses) - (fresh_before.hits + fresh_before.misses),
            "{space:?}: one lookup per measured step"
        );
    }

    /// An episode reset undoes the episode's edits on every mirror of the
    /// schedule — the listing, its lowering, the digests and the
    /// instruction texts — so a replay after a walk plays exactly like a
    /// fresh game: in both spaces, after a rich walk through every edit
    /// family, and after a state restore, whose first reset rebuilds those
    /// mirrors from the initial schedule.
    #[test]
    fn a_reset_replay_matches_a_fresh_game_step_for_step() {
        for space in [ActionSpace::AdjacentSwap, ActionSpace::Rich] {
            let mut game = small_game_in(space);
            let _ = game.reset();
            let actions = random_walk(&mut game, 24, 11);
            assert!(actions.len() >= 12, "{space:?}");
            assert_replay_matches_a_fresh_game(&mut game, &actions);
            assert_replay_matches_a_fresh_game(&mut game, &actions);

            let mut walked = small_game_in(space);
            let _ = walked.reset();
            let _ = random_walk(&mut walked, 16, 5);
            assert!(game.restore_state(&walked.state_bytes().unwrap()));
            assert_eq!(game.texts, instruction_texts(&game.current));
            let _ = random_walk(&mut game, 4, 2);
            assert_replay_matches_a_fresh_game(&mut game, &actions);
            assert_replay_matches_a_fresh_game(&mut game, &actions);
        }

        let mut game = small_game_in(ActionSpace::Rich);
        let _ = game.reset();
        let actions = kind_cycling_walk(&mut game, 32, 3);
        let walked: Vec<EditKind> = game.trace().iter().map(|m| m.kind).collect();
        for family in [
            [EditKind::MoveUp, EditKind::MoveDown],
            [EditKind::ToggleReuse, EditKind::ToggleReuse],
            [EditKind::StallInc, EditKind::StallDec],
            [EditKind::WaitWiden, EditKind::WaitTighten],
        ] {
            assert!(
                family.iter().any(|kind| walked.contains(kind)),
                "the rich walk accepts a {family:?} edit: {walked:?}"
            );
        }
        assert_replay_matches_a_fresh_game(&mut game, &actions);
        assert_replay_matches_a_fresh_game(&mut game, &actions);
    }

    /// Everything a peek must leave as it found it: the listing and each
    /// mirror of it (digests, texts, lowering), the mask and the episode
    /// record.
    #[derive(Debug, PartialEq)]
    struct Observed {
        listing: String,
        schedule_key: u64,
        instruction_keys: Vec<u64>,
        texts: Vec<Arc<str>>,
        simulated: SmReport,
        mask: Vec<bool>,
        runtime: u64,
        trace: Vec<Move>,
        best: (String, u64),
        best_trace: Vec<Move>,
        steps_in_episode: usize,
    }

    fn observe(game: &AssemblyGame) -> Observed {
        let schedule_key = game.current_schedule_key();
        assert_eq!(schedule_key, program_key(&game.current));
        Observed {
            listing: game.current.to_string(),
            schedule_key,
            instruction_keys: game.instruction_keys.clone(),
            texts: game.texts.clone(),
            simulated: game.lowered.simulate(),
            mask: game.mask().to_vec(),
            runtime: game.current_runtime.to_bits(),
            trace: game.trace().to_vec(),
            best: (game.best.to_string(), game.best_runtime.to_bits()),
            best_trace: game.best_trace().to_vec(),
            steps_in_episode: game.steps_in_episode,
        }
    }

    /// Peeks every legal action of `game` and steps a clone of `twin` (the
    /// same game in the same state, on a cache of its own) on it: the
    /// rewards agree bit for bit, every peek leaves `game` as it was, and
    /// the scan makes the same cache lookups as the clone-and-step one.
    /// Masked and out-of-range ids pay 0 and touch nothing.
    fn assert_peeks_match_clone_steps(game: &mut AssemblyGame, twin: &AssemblyGame, at: &str) {
        let before = observe(game);
        assert_eq!(before, observe(twin), "{at}");
        assert_eq!(game.eval_cache().stats(), twin.eval_cache().stats(), "{at}");
        let (legal, masked): (Vec<usize>, Vec<usize>) =
            (0..game.mask().len()).partition(|&id| game.mask()[id]);
        assert!(!legal.is_empty(), "{at}");
        for &id in &legal {
            let peeked = game.peek_reward(id);
            let stepped = twin.clone().step(id).reward;
            assert_eq!(peeked.to_bits(), stepped.to_bits(), "{at}: action {id}");
            assert_eq!(observe(game), before, "{at}: action {id}");
        }
        let stats = game.eval_cache().stats();
        assert_eq!(stats, twin.eval_cache().stats(), "{at}");
        for id in masked.into_iter().chain([game.action_count()]) {
            assert_eq!(game.peek_reward(id).to_bits(), 0.0f32.to_bits(), "{at}");
        }
        assert_eq!(observe(game), before, "{at}");
        assert_eq!(game.eval_cache().stats(), stats, "{at}");
    }

    /// `peek_reward` is `step` on a clone, minus the clone: on three
    /// kernels, three device profiles and both action spaces, at the initial schedule,
    /// mid-episode (after a rich walk through content edits too) and after a
    /// state restore.
    #[test]
    fn a_peek_pays_what_a_cloned_step_pays_and_changes_nothing() {
        for (kind, gpu) in [
            (KernelKind::MatmulLeakyRelu, GpuConfig::small()),
            (
                KernelKind::FlashAttention,
                GpuConfig::small_with_arch(gpusim::ArchSpec::hopper()),
            ),
            (
                KernelKind::Softmax,
                GpuConfig::small_with_arch(gpusim::ArchSpec::turing()),
            ),
        ] {
            for space in [ActionSpace::AdjacentSwap, ActionSpace::Rich] {
                let new_game = || game_of(kind, gpu.clone(), space);
                let (mut game, mut twin) = (new_game(), new_game());
                let _ = (game.reset(), twin.reset());
                let at = format!("{kind:?} on {} in {space:?}", gpu.name);
                assert_peeks_match_clone_steps(&mut game, &twin, &format!("{at}, initial"));

                let actions = kind_cycling_walk(&mut game, 6, 7);
                for &action in &actions {
                    let _ = twin.step(action);
                }
                if space == ActionSpace::Rich {
                    assert!(
                        game.trace()
                            .iter()
                            .any(|m| !matches!(m.kind, EditKind::SwapUp | EditKind::SwapDown)),
                        "{at}: the walk accepts a content edit"
                    );
                }
                assert_peeks_match_clone_steps(&mut game, &twin, &format!("{at}, mid-episode"));

                let mut walked = new_game();
                let _ = walked.reset();
                let _ = random_walk(&mut walked, 5, 13);
                let state = walked.state_bytes().unwrap();
                assert!(game.restore_state(&state) && twin.restore_state(&state));
                assert_peeks_match_clone_steps(&mut game, &twin, &format!("{at}, restored"));
            }
        }
    }

    /// Clones share the game's one memo, measurements and views alike: a
    /// step on a clone leaves the new schedule's entry behind, so the same
    /// step on the original is a hit on its own counters, adopts the very
    /// same views, and plays exactly like a fresh game's step.
    #[test]
    fn a_clone_step_is_a_hit_for_the_original() {
        for space in [ActionSpace::AdjacentSwap, ActionSpace::Rich] {
            let (mut game, mut fresh) = (small_game_in(space), small_game_in(space));
            let _ = (game.reset(), fresh.reset());
            let action = game.mask().iter().position(|&m| m).unwrap();
            let mut clone = game.clone();
            let before = game.eval_cache().stats();
            let _ = clone.step(action);
            assert_eq!(clone.trace().len(), 1, "{space:?}: the step is accepted");
            let cloned = game.eval_cache().stats();
            assert_eq!(cloned.misses, before.misses + 1, "{space:?}");
            let stepped = game.step(action);
            let after = game.eval_cache().stats();
            assert_eq!(
                (after.hits, after.misses),
                (cloned.hits + 1, cloned.misses),
                "{space:?}"
            );
            assert!(Arc::ptr_eq(&game.views, &clone.views), "{space:?}");
            let expected = fresh.step(action);
            assert_eq!(game.mask(), fresh.mask(), "{space:?}");
            assert_eq!(stepped.observation, expected.observation, "{space:?}");
            assert_eq!(
                stepped.reward.to_bits(),
                expected.reward.to_bits(),
                "{space:?}"
            );
        }
    }

    #[test]
    fn episode_terminates_after_the_configured_length() {
        let mut game = small_game();
        let _ = game.reset();
        let mut steps = 0;
        loop {
            let mask = game.action_mask();
            let action = mask.iter().position(|&m| m).unwrap_or(0);
            steps += 1;
            if game.step(action).done {
                break;
            }
            assert!(steps <= 64, "episode must terminate");
        }
        assert!(steps <= GameConfig::default().episode_length);
    }
}
