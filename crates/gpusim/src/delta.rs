//! Incremental delta re-simulation of locally mutated schedules.
//!
//! The assembly game mutates a SASS schedule one adjacent-instruction swap
//! at a time, yet the reward signal re-simulates the whole kernel from cycle
//! zero for every candidate. This module removes that redundancy without
//! changing a single observable bit:
//!
//! 1. [`DeltaEngine::record_baseline`] runs a schedule once through the
//!    shared [`crate::SmSimulator`] cycle loop, capturing **epoch
//!    snapshots** of the full [`SimState`] every K issued instructions
//!    (thinned geometrically so memory stays bounded) plus, per static
//!    instruction index, the first and last cycle at which any warp's fetch
//!    pointer rested on it (maintained on issue events — the only moments a
//!    fetch pointer moves).
//! 2. [`DeltaEngine::simulate_delta`] evaluates a mutated schedule that
//!    differs from the baseline at a known set of instruction indices. The
//!    run **resumes** from the latest snapshot taken before the mutation
//!    could first have been fetched (everything earlier is provably
//!    identical), and it **stops early** as soon as the simulated state
//!    provably reconverges with the baseline: at a baseline snapshot cycle
//!    past the last fetch of any mutated index, with an evolution-equivalent
//!    state (same fetch pointers, no live in-flight latencies that differ,
//!    the same live deadline on every scoreboard, register values,
//!    reuse-cache and recency-equivalent memory system — see
//!    [`SimState::equivalent_to`]). The engine jumps over idle stretches, so
//!    the next snapshot cycle is its jump horizon: checks land exactly where
//!    a cycle-by-cycle run would have made them.
//!    The remaining baseline cycle and counter tail is then **spliced** on
//!    additively instead of being re-executed.
//! 3. When reconvergence is not detected, the run simply continues to
//!    completion from the resume point — still bit-identical to a full
//!    simulation by construction, still saving the shared prefix. This is
//!    the bounded **fallback** surfaced as
//!    [`DeltaOutcome::Resimulated`] and tracked by the `delta_fallbacks`
//!    telemetry counter.
//!
//! Soundness rests on two facts pinned by the workspace `delta_equivalence`
//! proptest suite across every built-in architecture profile:
//!
//! * before the first fetch of a mutated index, baseline and mutant runs are
//!   literally the same computation (instruction metadata is only ever read
//!   through a warp's fetch pointer, whose every resting place is recorded;
//!   what the engine caches between cycles lives outside the snapshotted
//!   state, so a resumed run starts from the state alone), and
//! * once evolution-equivalent at a cycle past the last baseline fetch of
//!   every mutated index, both runs execute identical instruction sequences
//!   with identical timing forever after, so the baseline tail *is* the
//!   mutant tail.
//!
//! Snapshots are recycled through an allocation pool: retiring a baseline
//! ([`DeltaEngine::recycle_baseline`]) returns its states to the pool, and
//! every working state of a delta run is reused via
//! [`SimState::assign_from`] instead of freshly allocated.

use crate::compiled::CompiledProgram;
use crate::config::GpuConfig;
use crate::exec::ConstantBank;
use crate::launch::{resident_warps, LaunchConfig};
use crate::memory::MemCounters;
use crate::sm::{report_from_state, CycleEngine, FetchTouch, SimState, SimWork};
use crate::SmReport;

/// Tuning knobs of the delta engine. The defaults favour frequent
/// reconvergence checks on small kernels; all values only trade time for
/// memory — results are bit-identical for any configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaConfig {
    /// Take a baseline snapshot every this many issued instructions (the
    /// effective stride doubles whenever the snapshot budget is exceeded).
    pub epoch_instructions: u64,
    /// Upper bound on retained snapshots per baseline; exceeding it thins
    /// the snapshot list geometrically (every other snapshot is dropped).
    pub max_snapshots: usize,
    /// Stop testing for reconvergence after this many failed comparisons
    /// and just run the remainder out (the comparisons themselves are the
    /// only cost bounded here — correctness never depends on it).
    pub max_reconvergence_checks: usize,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        DeltaConfig {
            epoch_instructions: 64,
            max_snapshots: 48,
            max_reconvergence_checks: 16,
        }
    }
}

/// A recorded baseline run: the final report plus everything needed to
/// resume and reconverge mutated variants of the same schedule.
#[derive(Debug, Clone)]
pub struct DeltaBaseline {
    report: SmReport,
    /// Cycle-boundary snapshots in ascending cycle order;
    /// `snapshots[0]` is always the cycle-zero state.
    snapshots: Vec<SimState>,
    /// Per instruction index: earliest cycle at whose boundary any live
    /// warp's fetch pointer rested on it (`u64::MAX` = never fetched).
    first_touch: Vec<u64>,
    /// Per instruction index: latest such cycle (0 when never fetched).
    last_touch: Vec<u64>,
}

impl DeltaBaseline {
    /// The report of the recorded (unmutated) run — bit-identical to
    /// [`crate::SmSimulator::run_compiled`] on the same inputs.
    #[must_use]
    pub fn report(&self) -> &SmReport {
        &self.report
    }

    /// Number of retained epoch snapshots (at least one: cycle zero).
    #[must_use]
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// Number of instructions in the recorded schedule.
    #[must_use]
    pub fn instruction_count(&self) -> usize {
        self.first_touch.len()
    }
}

/// How a delta evaluation obtained its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The mutated indices are never fetched by the baseline run, so the
    /// baseline report is the answer verbatim.
    Unchanged,
    /// The run resumed from an epoch snapshot and reconverged with the
    /// baseline, whose tail was spliced on.
    Spliced {
        /// Cycle of the snapshot the run resumed from.
        resumed_cycle: u64,
        /// Cycle at which the state reconverged with the baseline.
        spliced_cycle: u64,
    },
    /// No reconvergence was detected: the run was re-simulated to completion
    /// from the resume snapshot (the bounded fallback — still bit-identical,
    /// still skipping the shared prefix).
    Resimulated {
        /// Cycle of the snapshot the run resumed from.
        resumed_cycle: u64,
    },
}

impl DeltaOutcome {
    /// True for the full-resimulation fallback: the run re-executed from
    /// cycle zero and neither spliced nor reused any prefix — the delta
    /// engine contributed nothing beyond skipping the per-candidate
    /// recompile. A [`DeltaOutcome::Resimulated`] that resumed past cycle
    /// zero reused the shared prefix and is not a fallback.
    #[must_use]
    pub fn is_fallback(&self) -> bool {
        matches!(self, DeltaOutcome::Resimulated { resumed_cycle: 0 })
    }

    /// The cycle simulation actually resumed from (the whole prefix before
    /// it was reused from the baseline).
    #[must_use]
    pub fn resumed_cycle(&self) -> u64 {
        match *self {
            DeltaOutcome::Unchanged => u64::MAX,
            DeltaOutcome::Spliced { resumed_cycle, .. }
            | DeltaOutcome::Resimulated { resumed_cycle } => resumed_cycle,
        }
    }
}

/// The incremental re-simulation engine for one fixed evaluation context
/// (device, resident warps, block, constant bank, cycle limit).
#[derive(Debug)]
pub struct DeltaEngine {
    gpu: GpuConfig,
    warps: usize,
    block_id: usize,
    constants: ConstantBank,
    max_cycles: u64,
    config: DeltaConfig,
    /// Retired [`SimState`]s, reused via [`SimState::assign_from`].
    pool: Vec<SimState>,
    /// Engine work of every baseline recording and delta evaluation so far.
    work: SimWork,
}

impl Clone for DeltaEngine {
    /// Clones the evaluation context only: the snapshot pool is pure
    /// buffer-reuse scratch (up to dozens of retired states holding full
    /// register files and memory images), so a clone starts with an empty
    /// one instead of deep-copying it, and counts its own work from zero.
    fn clone(&self) -> Self {
        DeltaEngine {
            gpu: self.gpu.clone(),
            warps: self.warps,
            block_id: self.block_id,
            constants: self.constants.clone(),
            max_cycles: self.max_cycles,
            config: self.config.clone(),
            pool: Vec::new(),
            work: SimWork::default(),
        }
    }
}

impl DeltaEngine {
    /// Creates an engine for an explicit simulation context.
    #[must_use]
    pub fn new(
        gpu: GpuConfig,
        warps: usize,
        block_id: usize,
        constants: ConstantBank,
        max_cycles: u64,
    ) -> Self {
        DeltaEngine {
            gpu,
            warps,
            block_id,
            constants,
            max_cycles,
            config: DeltaConfig::default(),
            pool: Vec::new(),
            work: SimWork::default(),
        }
    }

    /// Creates an engine whose context matches what
    /// [`crate::simulate_launch`] simulates for `launch` on `gpu` (resident
    /// warps, block 0, the launch's constant bank and cycle limit).
    #[must_use]
    pub fn for_launch(gpu: GpuConfig, launch: &LaunchConfig) -> Self {
        let warps = resident_warps(&gpu, launch);
        let constants = launch.constant_bank();
        DeltaEngine::new(gpu, warps, 0, constants, launch.max_cycles)
    }

    /// Overrides the engine configuration.
    #[must_use]
    pub fn with_config(mut self, config: DeltaConfig) -> Self {
        self.config = config;
        self
    }

    /// Deterministic engine work (steps, cycles jumped, eligibility
    /// evaluations) accumulated over every [`DeltaEngine::record_baseline`]
    /// and [`DeltaEngine::simulate_delta`] of this engine.
    #[must_use]
    pub fn work(&self) -> SimWork {
        self.work
    }

    /// Runs `compiled` to completion, recording epoch snapshots and
    /// fetch-touch cycles. The returned report is bit-identical to
    /// [`crate::SmSimulator::run_compiled`] with this engine's context.
    #[must_use]
    pub fn record_baseline(&mut self, compiled: &CompiledProgram) -> DeltaBaseline {
        let DeltaEngine {
            gpu,
            warps,
            block_id,
            constants,
            max_cycles,
            config,
            pool,
            work,
        } = self;
        let pool_cap = config.max_snapshots.max(2) + 4;
        let mut state = acquire(pool, None, gpu, *warps, *block_id);
        let mut snapshots = vec![acquire(pool, Some(&state), gpu, *warps, *block_id)];
        if compiled.is_empty() {
            let report = report_from_state(&state, true);
            recycle(pool, pool_cap, state);
            return DeltaBaseline {
                report,
                snapshots,
                first_touch: Vec::new(),
                last_touch: Vec::new(),
            };
        }
        // Every instruction-metadata read goes through a fetch pointer, and
        // a fetch pointer moves only when its warp issues, so the engine
        // maintains the fetch-touch tables on issue events.
        let mut engine = CycleEngine::new(gpu, compiled, constants, *block_id);
        engine.touch = Some(FetchTouch::new(compiled.len(), state.warps.len()));
        let mut epoch = config.epoch_instructions.max(1);
        let mut next_snapshot_at = epoch;
        let mut completed = true;
        loop {
            if state.all_finished() {
                break;
            }
            if state.cycle >= *max_cycles {
                completed = false;
                break;
            }
            if state.issued >= next_snapshot_at {
                let snapshot = acquire(pool, Some(&state), gpu, *warps, *block_id);
                snapshots.push(snapshot);
                if snapshots.len() > config.max_snapshots.max(2) {
                    // Thin geometrically: keep cycle zero and every other
                    // later snapshot (recycling the dropped ones), double
                    // the stride.
                    let mut kept = Vec::with_capacity(snapshots.len() / 2 + 1);
                    for (index, snapshot) in snapshots.drain(..).enumerate() {
                        if index % 2 == 0 {
                            kept.push(snapshot);
                        } else {
                            recycle(pool, pool_cap, snapshot);
                        }
                    }
                    snapshots = kept;
                    epoch = epoch.saturating_mul(2);
                }
                next_snapshot_at = state.issued + epoch;
            }
            // A step ends right after the cycle it issued in, so snapshots
            // sit on the same cycles a cycle-by-cycle run would take them.
            engine.step(&mut state, *max_cycles);
        }
        *work += engine.work;
        let mut touch = engine.touch.take().expect("installed above");
        if !completed && state.cycle > 0 {
            touch.cut(&state.warps, state.cycle - 1);
        }
        let report = report_from_state(&state, completed);
        recycle(pool, pool_cap, state);
        DeltaBaseline {
            report,
            snapshots,
            first_touch: touch.first,
            last_touch: touch.last,
        }
    }

    /// Evaluates `mutated`, a schedule that differs from the recorded
    /// baseline program **only** at the instruction indices in `changed`
    /// (same length, labels and branch targets unchanged — exactly what
    /// [`CompiledProgram::swap_insts`] chains produce). Returns a report
    /// bit-identical to a full [`crate::SmSimulator::run_compiled`] of
    /// `mutated`, plus how it was obtained.
    #[must_use]
    pub fn simulate_delta(
        &mut self,
        baseline: &DeltaBaseline,
        mutated: &CompiledProgram,
        changed: &[usize],
    ) -> (SmReport, DeltaOutcome) {
        // Divergence horizon: the earliest cycle at which the baseline run
        // could have observed any mutated index. Indices outside the
        // recorded program are treated as touched-at-zero (defensive; the
        // session never produces them).
        let touch = |table: &[u64], default: u64, pick: fn(u64, u64) -> u64| {
            changed
                .iter()
                .map(|&i| table.get(i).copied().unwrap_or(default))
                .fold(None, |acc: Option<u64>, t| {
                    Some(acc.map_or(t, |a| pick(a, t)))
                })
        };
        let Some(first) = touch(&baseline.first_touch, 0, u64::min) else {
            return (baseline.report, DeltaOutcome::Unchanged);
        };
        if first == u64::MAX {
            // The mutated instructions are dead code in this context: the
            // baseline run never fetched them, so it is the answer verbatim.
            return (baseline.report, DeltaOutcome::Unchanged);
        }
        let last = touch(&baseline.last_touch, u64::MAX, u64::max).unwrap_or(u64::MAX);

        // Resume from the latest snapshot at or before the divergence
        // horizon; snapshot 0 (cycle zero) always qualifies.
        let DeltaEngine {
            gpu,
            warps,
            block_id,
            constants,
            max_cycles,
            config,
            pool,
            work,
        } = self;
        let pool_cap = config.max_snapshots.max(2) + 4;
        let resume_index = baseline
            .snapshots
            .partition_point(|s| s.cycle <= first)
            .saturating_sub(1);
        let resumed_cycle = baseline.snapshots[resume_index].cycle;
        let mut state = acquire(
            pool,
            Some(&baseline.snapshots[resume_index]),
            gpu,
            *warps,
            *block_id,
        );
        let mut engine = CycleEngine::new(gpu, mutated, constants, *block_id);
        // Reconvergence is tested at the first few baseline snapshot cycles
        // past the last fetch of any mutated index (`last` is never before
        // the resume point).
        let mut checkpoints = baseline.snapshots
            [baseline.snapshots.partition_point(|s| s.cycle <= last)..]
            .iter()
            .take(config.max_reconvergence_checks)
            .peekable();
        let result = loop {
            if state.all_finished() {
                break (
                    report_from_state(&state, true),
                    DeltaOutcome::Resimulated { resumed_cycle },
                );
            }
            if state.cycle >= *max_cycles {
                break (
                    report_from_state(&state, false),
                    DeltaOutcome::Resimulated { resumed_cycle },
                );
            }
            if let Some(snapshot) = checkpoints.next_if(|s| s.cycle == state.cycle) {
                if state.equivalent_to(snapshot) {
                    break (
                        splice_report(&baseline.report, snapshot, &state),
                        DeltaOutcome::Spliced {
                            resumed_cycle,
                            spliced_cycle: state.cycle,
                        },
                    );
                }
            }
            // The engine jumps over idle stretches; the next checkpoint
            // bounds the jump, so the state is observed exactly there.
            let horizon = checkpoints
                .peek()
                .map_or(*max_cycles, |s| s.cycle.min(*max_cycles));
            engine.step(&mut state, horizon);
        };
        *work += engine.work;
        recycle(pool, pool_cap, state);
        result
    }

    /// Returns a retired baseline's snapshots to the allocation pool so the
    /// next [`DeltaEngine::record_baseline`] reuses their buffers.
    pub fn recycle_baseline(&mut self, baseline: DeltaBaseline) {
        let cap = self.config.max_snapshots.max(2) + 4;
        for snapshot in baseline.snapshots {
            recycle(&mut self.pool, cap, snapshot);
        }
    }
}

/// A fresh or recycled state: cycle-zero when `src` is `None` (built
/// directly — copying a fresh state into pooled buffers would cost an
/// allocation *and* a copy), a deep copy of `src` into pooled buffers
/// otherwise.
fn acquire(
    pool: &mut Vec<SimState>,
    src: Option<&SimState>,
    gpu: &GpuConfig,
    warps: usize,
    block_id: usize,
) -> SimState {
    match src {
        Some(src) => match pool.pop() {
            Some(mut state) => {
                state.assign_from(src);
                state
            }
            None => src.clone(),
        },
        None => SimState::start(gpu, warps, block_id),
    }
}

fn recycle(pool: &mut Vec<SimState>, cap: usize, state: SimState) {
    if pool.len() < cap {
        pool.push(state);
    }
}

/// Splices the baseline tail onto a reconverged state: terminal facts
/// (total cycles, completion, output digest) come from the baseline;
/// monotone tallies become `baseline_final - baseline_at_c + mutant_at_c`.
fn splice_report(final_report: &SmReport, base_at: &SimState, mutant_at: &SimState) -> SmReport {
    let adjust = |final_value: u64, base_value: u64, mutant_value: u64| {
        final_value - base_value + mutant_value
    };
    SmReport {
        cycles: final_report.cycles,
        instructions_issued: adjust(
            final_report.instructions_issued,
            base_at.issued,
            mutant_at.issued,
        ),
        issue_active_cycles: adjust(
            final_report.issue_active_cycles,
            base_at.issue_active_cycles,
            mutant_at.issue_active_cycles,
        ),
        eligible_cycles: adjust(
            final_report.eligible_cycles,
            base_at.eligible_cycles,
            mutant_at.eligible_cycles,
        ),
        lsu_busy_cycles: adjust(
            final_report.lsu_busy_cycles,
            base_at.lsu_busy,
            mutant_at.lsu_busy,
        ),
        tensor_busy_cycles: adjust(
            final_report.tensor_busy_cycles,
            base_at.tensor_busy,
            mutant_at.tensor_busy,
        ),
        bank_conflict_cycles: adjust(
            final_report.bank_conflict_cycles,
            base_at.bank_conflict_cycles,
            mutant_at.bank_conflict_cycles,
        ),
        mem: splice_counters(
            final_report.mem,
            base_at.memory.counters(),
            mutant_at.memory.counters(),
        ),
        hazards: adjust(
            final_report.hazards,
            base_at.hazard_tally(),
            mutant_at.hazard_tally(),
        ),
        output_digest: final_report.output_digest,
        completed: final_report.completed,
    }
}

fn splice_counters(
    final_mem: MemCounters,
    base_at: MemCounters,
    mutant_at: MemCounters,
) -> MemCounters {
    let adjust = |f: u64, b: u64, m: u64| f - b + m;
    MemCounters {
        global_load_bytes: adjust(
            final_mem.global_load_bytes,
            base_at.global_load_bytes,
            mutant_at.global_load_bytes,
        ),
        global_store_bytes: adjust(
            final_mem.global_store_bytes,
            base_at.global_store_bytes,
            mutant_at.global_store_bytes,
        ),
        global_to_shared_bytes: adjust(
            final_mem.global_to_shared_bytes,
            base_at.global_to_shared_bytes,
            mutant_at.global_to_shared_bytes,
        ),
        shared_load_bytes: adjust(
            final_mem.shared_load_bytes,
            base_at.shared_load_bytes,
            mutant_at.shared_load_bytes,
        ),
        shared_store_bytes: adjust(
            final_mem.shared_store_bytes,
            base_at.shared_store_bytes,
            mutant_at.shared_store_bytes,
        ),
        l1_hits: adjust(final_mem.l1_hits, base_at.l1_hits, mutant_at.l1_hits),
        l1_misses: adjust(final_mem.l1_misses, base_at.l1_misses, mutant_at.l1_misses),
        l2_hits: adjust(final_mem.l2_hits, base_at.l2_hits, mutant_at.l2_hits),
        l2_misses: adjust(final_mem.l2_misses, base_at.l2_misses, mutant_at.l2_misses),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuConfig, SmSimulator};
    use sass::Program;

    const SAMPLE: &str = "\
[B------:R-:W-:-:S04] MOV R4, 0x1000 ;
[B------:R-:W-:-:S04] MOV R8, 0x2000 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
[B------:R-:W1:-:S02] LDG.E R3, [R8] ;
[B------:R-:W-:-:S04] MOV R20, 0x3 ;
[B------:R-:W-:-:S04] IMAD R21, R20, R20, RZ ;
[B------:R-:W-:-:S04] IMAD R22, R21, R20, RZ ;
[B------:R-:W-:-:S04] IMAD R23, R22, R20, RZ ;
[B------:R-:W-:-:S04] IMAD R24, R23, R20, RZ ;
[B01----:R-:W-:-:S04] IADD3 R6, R2, R3, RZ ;
[B------:R-:W-:-:S04] STG.E [R4], R6 ;
[B------:R-:W-:-:S05] EXIT ;
";

    fn dense_config() -> DeltaConfig {
        DeltaConfig {
            epoch_instructions: 1,
            max_snapshots: 64,
            max_reconvergence_checks: 64,
        }
    }

    fn engine(gpu: &GpuConfig, warps: usize) -> DeltaEngine {
        DeltaEngine::new(gpu.clone(), warps, 0, ConstantBank::new(), 1_000_000)
            .with_config(dense_config())
    }

    #[test]
    fn baseline_report_matches_the_full_simulator() {
        let gpu = GpuConfig::small();
        let program: Program = SAMPLE.parse().unwrap();
        let compiled = CompiledProgram::compile(&program, &gpu);
        for warps in [1, 4] {
            let mut delta = engine(&gpu, warps);
            let baseline = delta.record_baseline(&compiled);
            let full = SmSimulator::new(gpu.clone()).run_compiled(
                &compiled,
                warps,
                0,
                &ConstantBank::new(),
                1_000_000,
            );
            assert_eq!(*baseline.report(), full.report);
            assert!(baseline.snapshot_count() >= 2, "epochs must be recorded");
        }
    }

    #[test]
    fn every_adjacent_swap_is_bit_identical_to_full_simulation() {
        let gpu = GpuConfig::small();
        let program: Program = SAMPLE.parse().unwrap();
        let compiled = CompiledProgram::compile(&program, &gpu);
        let simulator = SmSimulator::new(gpu.clone());
        for warps in [1, 2, 4] {
            let mut delta = engine(&gpu, warps);
            let baseline = delta.record_baseline(&compiled);
            let mut spliced = 0usize;
            for upper in 0..compiled.len() - 1 {
                let mut swapped_program = program.clone();
                swapped_program.swap_instructions(upper, upper + 1).unwrap();
                let mut mutated = compiled.clone();
                mutated.swap_insts(upper, upper + 1);
                let (report, outcome) =
                    delta.simulate_delta(&baseline, &mutated, &[upper, upper + 1]);
                let full =
                    simulator.run(&swapped_program, warps, 0, &ConstantBank::new(), 1_000_000);
                assert_eq!(report, full.report, "swap at {upper}, {warps} warps");
                if matches!(outcome, DeltaOutcome::Spliced { .. }) {
                    spliced += 1;
                }
            }
            assert!(
                spliced > 0,
                "at least one early swap must reconverge and splice ({warps} warps)"
            );
        }
    }

    #[test]
    fn swapping_the_compiled_form_equals_recompiling_the_swapped_source() {
        let gpu = GpuConfig::small();
        let program: Program = SAMPLE.parse().unwrap();
        let compiled = CompiledProgram::compile(&program, &gpu);
        let simulator = SmSimulator::new(gpu.clone());
        for upper in 0..compiled.len() - 1 {
            let mut swapped_program = program.clone();
            swapped_program.swap_instructions(upper, upper + 1).unwrap();
            let mut mirrored = compiled.clone();
            mirrored.swap_insts(upper, upper + 1);
            let a = simulator.run_compiled(&mirrored, 2, 0, &ConstantBank::new(), 1_000_000);
            let b = simulator.run(&swapped_program, 2, 0, &ConstantBank::new(), 1_000_000);
            assert_eq!(a.report, b.report, "swap at {upper}");
        }
    }

    #[test]
    fn untouched_mutations_answer_from_the_baseline_verbatim() {
        // Instructions after EXIT are never fetched: mutating them is
        // provably unobservable and must not simulate anything.
        let gpu = GpuConfig::small();
        let text = "\
[B------:R-:W-:-:S04] MOV R4, 0x40 ;
[B------:R-:W-:-:S05] EXIT ;
[B------:R-:W-:-:S04] MOV R5, 0x50 ;
[B------:R-:W-:-:S04] MOV R6, 0x60 ;
";
        let program: Program = text.parse().unwrap();
        let compiled = CompiledProgram::compile(&program, &gpu);
        let mut delta = engine(&gpu, 1);
        let baseline = delta.record_baseline(&compiled);
        let mut mutated = compiled.clone();
        mutated.swap_insts(2, 3);
        let (report, outcome) = delta.simulate_delta(&baseline, &mutated, &[2, 3]);
        assert_eq!(outcome, DeltaOutcome::Unchanged);
        assert_eq!(report, *baseline.report());
    }

    #[test]
    fn recycled_snapshot_pools_never_leak_state_across_baselines() {
        let gpu = GpuConfig::small();
        let program_a: Program = SAMPLE.parse().unwrap();
        let program_b: Program = "\
[B------:R-:W-:-:S04] MOV R7, 0x123 ;
[B------:R-:W-:-:S04] MOV R9, 0x300 ;
[B------:R-:W-:-:S04] STG.E [R9], R7 ;
[B------:R-:W-:-:S05] EXIT ;
"
        .parse()
        .unwrap();
        let compiled_a = CompiledProgram::compile(&program_a, &gpu);
        let compiled_b = CompiledProgram::compile(&program_b, &gpu);

        // Pooled engine: record A, retire it, record B reusing A's buffers.
        let mut pooled = engine(&gpu, 2);
        let stale = pooled.record_baseline(&compiled_a);
        pooled.recycle_baseline(stale);
        let recycled = pooled.record_baseline(&compiled_b);

        // Fresh engine: record B with no pool history.
        let mut fresh = engine(&gpu, 2);
        let pristine = fresh.record_baseline(&compiled_b);
        assert_eq!(recycled.report(), pristine.report());
        assert_eq!(recycled.snapshot_count(), pristine.snapshot_count());
        for upper in 0..compiled_b.len() - 1 {
            let mut mutated = compiled_b.clone();
            mutated.swap_insts(upper, upper + 1);
            let (a, _) = pooled.simulate_delta(&recycled, &mutated, &[upper, upper + 1]);
            let (b, _) = fresh.simulate_delta(&pristine, &mutated, &[upper, upper + 1]);
            assert_eq!(a, b, "pooled and fresh engines must agree at {upper}");
        }
    }

    #[test]
    fn multi_swap_diffs_accumulate_correctly() {
        let gpu = GpuConfig::small();
        let program: Program = SAMPLE.parse().unwrap();
        let compiled = CompiledProgram::compile(&program, &gpu);
        let simulator = SmSimulator::new(gpu.clone());
        let mut delta = engine(&gpu, 4);
        let baseline = delta.record_baseline(&compiled);
        // Apply two separated swaps and diff both windows at once.
        let mut mutated_program = program.clone();
        mutated_program.swap_instructions(4, 5).unwrap();
        mutated_program.swap_instructions(6, 7).unwrap();
        let mut mutated = compiled.clone();
        mutated.swap_insts(4, 5);
        mutated.swap_insts(6, 7);
        let (report, _) = delta.simulate_delta(&baseline, &mutated, &[4, 5, 6, 7]);
        let full = simulator.run(&mutated_program, 4, 0, &ConstantBank::new(), 1_000_000);
        assert_eq!(report, full.report);
    }

    /// The recording `record_baseline` replaced: visit every cycle (a
    /// horizon one cycle ahead never jumps) and sweep every live warp's
    /// fetch pointer at each cycle boundary.
    fn touches_swept_per_cycle(
        gpu: &GpuConfig,
        compiled: &CompiledProgram,
        warps: usize,
        constants: &ConstantBank,
        max_cycles: u64,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut first = vec![u64::MAX; compiled.len()];
        let mut last = vec![0u64; compiled.len()];
        let mut state = SimState::start(gpu, warps, 0);
        let mut engine = CycleEngine::new(gpu, compiled, constants, 0);
        while !state.all_finished() && state.cycle < max_cycles {
            for warp in state.warps.iter().filter(|w| !w.finished) {
                if let Some(first) = first.get_mut(warp.pc) {
                    *first = (*first).min(state.cycle);
                    last[warp.pc] = state.cycle;
                }
            }
            let next_cycle = state.cycle + 1;
            engine.step(&mut state, next_cycle);
            assert_eq!(state.cycle, next_cycle);
        }
        (first, last)
    }

    #[test]
    fn event_recorded_fetch_touches_equal_a_per_cycle_sweep_on_every_registry_kernel() {
        for suite in kernels::workload_suites() {
            for entry in &suite.entries {
                let config = if entry.kind.is_compute_bound() {
                    kernels::KernelConfig::default_compute()
                } else {
                    kernels::KernelConfig {
                        block_m: 1,
                        block_n: 1024,
                        block_k: 1,
                        num_warps: 4,
                        num_stages: 1,
                    }
                };
                let kernel =
                    kernels::generate(&entry.spec(32), &config, kernels::ScheduleStyle::Baseline);
                // `kernels` links the non-test build of this crate, so its
                // launch type is a different one: carry the numbers over.
                let launch = LaunchConfig {
                    grid_blocks: kernel.launch.grid_blocks,
                    warps_per_block: kernel.launch.warps_per_block,
                    blocks_per_sm: kernel.launch.blocks_per_sm,
                    params: kernel.launch.params.clone(),
                    work_per_block: kernel.launch.work_per_block,
                    max_cycles: kernel.launch.max_cycles,
                };
                for arch in ["ampere", "turing", "hopper"] {
                    let gpu = GpuConfig::by_name(arch).unwrap();
                    let compiled = CompiledProgram::compile(&kernel.program, &gpu);
                    let full = DeltaEngine::for_launch(gpu.clone(), &launch)
                        .record_baseline(&compiled)
                        .report
                        .cycles;
                    // The whole run, and runs cut by the cycle limit (one of
                    // them most likely inside an idle stretch).
                    for max_cycles in [launch.max_cycles, full / 2, full / 3 + 1, 1, 0] {
                        let mut engine = DeltaEngine::for_launch(
                            gpu.clone(),
                            &LaunchConfig {
                                max_cycles,
                                ..launch.clone()
                            },
                        );
                        let baseline = engine.record_baseline(&compiled);
                        let (first, last) = touches_swept_per_cycle(
                            &gpu,
                            &compiled,
                            engine.warps,
                            &engine.constants,
                            max_cycles,
                        );
                        let context =
                            format!("{} {} {arch} limit {max_cycles}", suite.name, entry.label);
                        assert_eq!(baseline.first_touch, first, "first touch: {context}");
                        assert_eq!(baseline.last_touch, last, "last touch: {context}");
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_thinning_keeps_results_identical_under_tiny_budgets() {
        let gpu = GpuConfig::small();
        let program: Program = SAMPLE.parse().unwrap();
        let compiled = CompiledProgram::compile(&program, &gpu);
        let mut tight = DeltaEngine::new(gpu.clone(), 4, 0, ConstantBank::new(), 1_000_000)
            .with_config(DeltaConfig {
                epoch_instructions: 1,
                max_snapshots: 3,
                max_reconvergence_checks: 8,
            });
        let mut roomy = engine(&gpu, 4);
        let base_tight = tight.record_baseline(&compiled);
        let base_roomy = roomy.record_baseline(&compiled);
        assert!(base_tight.snapshot_count() <= 4);
        assert_eq!(base_tight.report(), base_roomy.report());
        for upper in 0..compiled.len() - 1 {
            let mut mutated = compiled.clone();
            mutated.swap_insts(upper, upper + 1);
            let (a, _) = tight.simulate_delta(&base_tight, &mutated, &[upper, upper + 1]);
            let (b, _) = roomy.simulate_delta(&base_roomy, &mutated, &[upper, upper + 1]);
            assert_eq!(a, b, "snapshot budget must not change results ({upper})");
        }
    }
}
