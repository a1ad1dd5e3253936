//! Per-game incremental evaluation sessions over [`gpusim::DeltaEngine`].
//!
//! The assembly game advances its schedule one adjacent swap at a time and
//! constantly measures near-duplicates of the current schedule (its own
//! steps, greedy probes, evolutionary mutations). A [`DeltaSession`] keeps a
//! **recorded base schedule** — a [`gpusim::DeltaBaseline`] with epoch
//! snapshots — and mirrors every swap onto the lowered
//! [`CompiledProgram`] in O(1), tracking exactly which instruction indices
//! differ from the base. Measuring the current schedule then resumes from
//! the latest safe snapshot and splices the baseline tail on reconvergence
//! instead of simulating from cycle zero.
//!
//! Every measurement a session produces is **bit-identical** to
//! [`gpusim::measure`] on the same schedule (the workspace
//! `delta_equivalence` suite proves it on random swap sequences across all
//! architecture profiles), so sessions compose transparently with the
//! shared [`crate::EvalCache`]: a value computed incrementally here answers
//! later lookups from games that would have simulated in full, and vice
//! versa.
//!
//! As accepted swaps accumulate, the differing window widens, the safe
//! resume point moves toward cycle zero, and the delta shrinks in value. The
//! session therefore **re-baselines** — records a fresh baseline at the
//! current schedule, recycling the old snapshots through the engine's pool —
//! once the drift exceeds a safety-valve number of indices. The policy only
//! moves work between identical-result code paths; it can never change a
//! measurement.

use std::sync::Arc;

use gpusim::{
    kernel_run_from_report, measurement_from_run, CompiledProgram, DeltaBaseline, DeltaEngine,
    DeltaOutcome, GpuConfig, LaunchConfig, MeasureOptions, Measurement, SmReport,
};
use sass::{Instruction, Item, Program};

/// Position-independent content key of one instruction (its text, control
/// code and operand flags), used to decide whether a slot still matches the
/// recorded base after in-place content edits.
fn content_key(inst: &Instruction) -> u64 {
    crate::eval_cache::item_key(&Item::Instr(inst.clone()))
}

/// Content keys of every instruction of `program`, in order.
fn content_keys(program: &Program) -> Vec<u64> {
    program.instructions().map(content_key).collect()
}

/// Re-baseline once this many instruction indices differ from the base.
///
/// Deliberately loose: a delta evaluation is never slower than a bare
/// simulation plus a near-empty state copy (it at worst re-runs from the
/// cycle-zero snapshot while still skipping the per-candidate recompile),
/// whereas recording a fresh baseline costs ~2x a bare run — and on kernels
/// whose mutations sit inside the main loop a fresh baseline does not move
/// the resume point anyway (the loop body is re-fetched from its first
/// iteration no matter the base). Re-baselining therefore only acts as a
/// safety valve against unbounded drift, not as an optimization.
const REBASE_DIFF_LIMIT: usize = 64;

/// One recorded base schedule, shared (via [`Arc`]) across game clones so
/// greedy probes fan out from the same snapshots.
#[derive(Debug)]
struct SessionBase {
    compiled: CompiledProgram,
    run: DeltaBaseline,
    /// Per-position instruction content keys of the base schedule.
    content: Vec<u64>,
}

/// The incremental evaluation session of one [`crate::AssemblyGame`].
#[derive(Debug, Clone)]
pub struct DeltaSession {
    /// Engine clones start with an empty snapshot pool: pooled buffers are a
    /// reuse optimization, never shared state.
    engine: DeltaEngine,
    gpu: GpuConfig,
    launch: LaunchConfig,
    options: MeasureOptions,
    /// The base of the *initial* schedule, kept for episode resets.
    initial: Arc<SessionBase>,
    /// The base the current schedule is evaluated against.
    base: Arc<SessionBase>,
    /// The current schedule in lowered form, maintained swap by swap.
    current: CompiledProgram,
    /// `perm[i]` = index in `base.compiled` of the instruction now at `i`.
    perm: Vec<usize>,
    /// Per-position content keys of the current schedule; in-place content
    /// edits update them, swaps permute them alongside the instructions.
    current_content: Vec<u64>,
    /// Sorted positions where `current` differs from the base
    /// (`perm[i] != i`, or equal position but edited content).
    diff: Vec<usize>,
}

impl DeltaSession {
    /// Compiles and records `program` as the session's initial base. Costs
    /// one instrumented full simulation — the same single simulation the
    /// first measurement of the schedule used to pay, now with snapshots.
    #[must_use]
    pub fn new(
        gpu: GpuConfig,
        launch: LaunchConfig,
        options: MeasureOptions,
        program: &Program,
    ) -> Self {
        let mut engine = DeltaEngine::for_launch(gpu.clone(), &launch);
        let compiled = CompiledProgram::compile(program, &gpu);
        let run = engine.record_baseline(&compiled);
        let content = content_keys(program);
        let base = Arc::new(SessionBase {
            compiled: compiled.clone(),
            run,
            content: content.clone(),
        });
        let perm = (0..compiled.len()).collect();
        DeltaSession {
            engine,
            gpu,
            launch,
            options,
            initial: Arc::clone(&base),
            base,
            current: compiled,
            perm,
            current_content: content,
            diff: Vec::new(),
        }
    }

    fn measurement_of(&self, report: &SmReport) -> Measurement {
        let run = kernel_run_from_report(&self.gpu, &self.launch, *report);
        measurement_from_run(run, &self.options)
    }

    /// The measurement of the initial schedule, derived from the recorded
    /// baseline — bit-identical to [`gpusim::measure`] on it.
    #[must_use]
    pub fn initial_measurement(&self) -> Measurement {
        self.measurement_of(self.initial.run.report())
    }

    /// Mirrors `Program::swap_instructions(upper, upper + 1)` onto the
    /// lowered current schedule and the diff-vs-base bookkeeping. O(1) plus
    /// a binary search per touched index.
    pub fn apply_swap(&mut self, upper: usize) {
        let lower = upper + 1;
        if lower >= self.current.len() {
            return;
        }
        self.current.swap_insts(upper, lower);
        self.perm.swap(upper, lower);
        self.current_content.swap(upper, lower);
        self.update_diff_at(upper);
        self.update_diff_at(lower);
    }

    /// Mirrors an in-place content edit of the instruction at `index` (stall
    /// retune, barrier-wait change, reuse toggle) onto the lowered current
    /// schedule: the one slot is re-lowered and the diff-vs-base bookkeeping
    /// updated. `inst` is the instruction *after* the edit. O(1) plus a
    /// binary search.
    pub fn apply_replace(&mut self, index: usize, inst: &Instruction) {
        if index >= self.current.len() {
            return;
        }
        self.current.replace_inst(index, inst, &self.gpu);
        self.current_content[index] = content_key(inst);
        self.update_diff_at(index);
    }

    /// Recomputes whether position `index` differs from the base and updates
    /// the sorted diff set. A position differs when a different instruction
    /// sits there (`perm` moved) or the same instruction's content was
    /// edited.
    fn update_diff_at(&mut self, index: usize) {
        let differs =
            self.perm[index] != index || self.current_content[index] != self.base.content[index];
        match self.diff.binary_search(&index) {
            Ok(at) if !differs => {
                self.diff.remove(at);
            }
            Err(at) if differs => self.diff.insert(at, index),
            _ => {}
        }
    }

    /// Measures the current schedule incrementally against the base.
    /// Bit-identical to `gpusim::measure(&gpu, &current, &launch, &options)`.
    #[must_use]
    pub fn measure_current(&mut self) -> (Measurement, DeltaOutcome) {
        if self.diff.is_empty() {
            return (
                self.measurement_of(self.base.run.report()),
                DeltaOutcome::Unchanged,
            );
        }
        let (report, outcome) =
            self.engine
                .simulate_delta(&self.base.run, &self.current, &self.diff);
        (self.measurement_of(&report), outcome)
    }

    /// Notes that the last measured swap was accepted (the game's current
    /// schedule advanced). Re-baselines only when the drift from the
    /// recorded base exceeds the drift safety valve.
    pub fn commit(&mut self) {
        if self.diff.len() >= REBASE_DIFF_LIMIT {
            self.rebaseline();
        }
    }

    /// Records a fresh baseline at the current schedule, recycling the old
    /// base's snapshots (unless other clones still share it).
    fn rebaseline(&mut self) {
        let run = self.engine.record_baseline(&self.current);
        let fresh = Arc::new(SessionBase {
            compiled: self.current.clone(),
            run,
            content: self.current_content.clone(),
        });
        let retired = std::mem::replace(&mut self.base, fresh);
        // The initial base always has at least one other owner
        // (`self.initial`), so it is never recycled here.
        if let Ok(inner) = Arc::try_unwrap(retired) {
            self.engine.recycle_baseline(inner.run);
        }
        self.perm.clear();
        self.perm.extend(0..self.current.len());
        self.diff.clear();
    }

    /// Rewinds the session to the initial schedule (an episode reset): the
    /// initial base is re-adopted without any re-recording.
    pub fn reset_to_initial(&mut self) {
        let retired = std::mem::replace(&mut self.base, Arc::clone(&self.initial));
        if let Ok(inner) = Arc::try_unwrap(retired) {
            self.engine.recycle_baseline(inner.run);
        }
        self.current = self.base.compiled.clone();
        self.perm.clear();
        self.perm.extend(0..self.current.len());
        self.current_content = self.base.content.clone();
        self.diff.clear();
    }

    /// Re-synchronizes the session onto an arbitrary schedule (used when a
    /// checkpoint restore adopts a foreign-but-compatible state): compiles
    /// it and records a fresh baseline.
    pub fn resync(&mut self, program: &Program) {
        self.current = CompiledProgram::compile(program, &self.gpu);
        self.current_content = content_keys(program);
        self.rebaseline();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::measure;

    const SAMPLE: &str = "\
[B------:R-:W-:-:S04] MOV R4, 0x1000 ;
[B------:R-:W-:-:S04] MOV R8, 0x2000 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
[B------:R-:W1:-:S02] LDG.E R3, [R8] ;
[B------:R-:W-:-:S04] MOV R20, 0x3 ;
[B------:R-:W-:-:S04] IMAD R21, R20, R20, RZ ;
[B------:R-:W-:-:S04] IMAD R22, R21, R20, RZ ;
[B01----:R-:W-:-:S04] IADD3 R6, R2, R3, RZ ;
[B------:R-:W-:-:S04] STG.E [R4], R6 ;
[B------:R-:W-:-:S05] EXIT ;
";

    fn options() -> MeasureOptions {
        MeasureOptions {
            warmup: 0,
            repeats: 3,
            noise_std: 0.0,
            seed: 0,
        }
    }

    #[test]
    fn session_measurements_match_full_measure_through_swap_chains() {
        let gpu = GpuConfig::small();
        let launch = LaunchConfig::default();
        let mut program: Program = SAMPLE.parse().unwrap();
        let mut session = DeltaSession::new(gpu.clone(), launch.clone(), options(), &program);
        assert_eq!(
            session.initial_measurement(),
            measure(&gpu, &program, &launch, &options())
        );
        // Walk a chain of swaps, committing each, and cross-check every
        // intermediate schedule against the full pipeline (this crosses a
        // re-baseline boundary).
        for upper in [4, 5, 4, 0, 5, 4, 1, 5, 0] {
            program.swap_instructions(upper, upper + 1).unwrap();
            session.apply_swap(upper);
            let (incremental, _) = session.measure_current();
            let full = measure(&gpu, &program, &launch, &options());
            assert_eq!(incremental, full, "after swap at {upper}");
            session.commit();
        }
    }

    #[test]
    fn probe_and_revert_leaves_the_session_on_the_base_fast_path() {
        let gpu = GpuConfig::small();
        let launch = LaunchConfig::default();
        let program: Program = SAMPLE.parse().unwrap();
        let mut session = DeltaSession::new(gpu.clone(), launch, options(), &program);
        session.apply_swap(4);
        session.apply_swap(4); // revert the probe
        let (measurement, outcome) = session.measure_current();
        assert_eq!(outcome, DeltaOutcome::Unchanged);
        assert_eq!(measurement, session.initial_measurement());
    }

    #[test]
    fn reset_returns_to_the_initial_base_without_rerecording() {
        let gpu = GpuConfig::small();
        let launch = LaunchConfig::default();
        let mut program: Program = SAMPLE.parse().unwrap();
        let mut session = DeltaSession::new(gpu.clone(), launch.clone(), options(), &program);
        for upper in [4, 5, 0, 4, 5, 4] {
            program.swap_instructions(upper, upper + 1).unwrap();
            session.apply_swap(upper);
            let _ = session.measure_current();
            session.commit();
        }
        session.reset_to_initial();
        let (measurement, outcome) = session.measure_current();
        assert_eq!(outcome, DeltaOutcome::Unchanged);
        assert_eq!(
            measurement,
            measure(
                &gpu,
                &SAMPLE.parse::<Program>().unwrap(),
                &launch,
                &options()
            )
        );
    }
}
