//! The cycle-level streaming-multiprocessor model.
//!
//! One [`SmSimulator::run`] call executes a kernel's SASS program for a set
//! of resident warps on a single SM, honouring:
//!
//! * per-instruction **stall counts** (the warp may not issue its next
//!   instruction earlier),
//! * **scoreboard wait barriers** set by variable-latency instructions and
//!   consumed by the wait mask,
//! * **warp scheduling** (greedy-then-oldest): when the current warp cannot
//!   issue, the scheduler switches to another eligible warp (thread-level
//!   parallelism),
//! * **structural hazards** on the load/store unit and the tensor pipe,
//! * **register-bank conflicts** and the operand-reuse cache, which is
//!   invalidated by warp switches (§5.7.1),
//! * the **fixed pipeline latencies** of ALU instructions — a schedule that
//!   under-stalls a producer yields stale values, which are propagated and
//!   counted as hazards,
//! * the **LDGSTS group rule**: asynchronous copies that fill consecutive
//!   shared-memory slices must issue in ascending order (§3.5 "additional
//!   dependencies"); violations corrupt the transferred data.
//!
//! The compiled path ([`CycleEngine`]) is **event-driven**: a stalled warp
//! knows until when, so the engine keeps a per-warp wake cycle, evaluates a
//! warp's eligibility only when it is due and jumps over stretches of cycles
//! in which no warp is. [`SmSimulator::run_reference`] keeps the plain
//! cycle-by-cycle loop (and its own scoreboard completion lists) as the
//! specification both must agree with bit for bit.

use std::collections::HashMap;

use sass::{Instruction, LatencyClass, MemorySpace, Mnemonic, Operand, Program, Register};
use serde::{Deserialize, Serialize};

use crate::compiled::{CompiledProgram, Flow};
use crate::config::GpuConfig;
use crate::exec::{execute, ConstantBank, ExecContext};
use crate::memory::{MemCounters, MemorySubsystem};
use crate::regfile::{RegisterFile, ReuseCache};

/// Aggregate result of simulating one thread block (a set of resident warps)
/// on one SM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmReport {
    /// Total cycles until every warp exited (or the cycle limit was hit).
    pub cycles: u64,
    /// Dynamic instructions issued.
    pub instructions_issued: u64,
    /// Cycles in which at least one instruction was issued.
    pub issue_active_cycles: u64,
    /// Cycles in which at least one warp was eligible to issue.
    pub eligible_cycles: u64,
    /// Cycles during which the load/store unit was occupied.
    pub lsu_busy_cycles: u64,
    /// Cycles during which the tensor pipe was occupied.
    pub tensor_busy_cycles: u64,
    /// Extra issue cycles paid to register-bank conflicts.
    pub bank_conflict_cycles: u64,
    /// Memory traffic counters.
    pub mem: MemCounters,
    /// Number of data hazards observed (stale register reads plus LDGSTS
    /// group violations). A correct schedule has zero.
    pub hazards: u64,
    /// Order-insensitive digest of the final global-memory contents.
    pub output_digest: u64,
    /// False if the simulation hit the cycle limit before all warps exited.
    pub completed: bool,
}

impl SmReport {
    /// Instructions per cycle over elapsed cycles.
    #[must_use]
    pub fn ipc_elapsed(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions_issued as f64 / self.cycles as f64
        }
    }

    /// Instructions per cycle over cycles in which the SM had issuable work.
    #[must_use]
    pub fn ipc_active(&self) -> f64 {
        if self.eligible_cycles == 0 {
            0.0
        } else {
            self.instructions_issued as f64 / self.eligible_cycles as f64
        }
    }

    /// Fraction of cycles in which an instruction was issued.
    #[must_use]
    pub fn sm_busy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issue_active_cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles in which the LSU was busy.
    #[must_use]
    pub fn mem_busy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.lsu_busy_cycles.min(self.cycles)) as f64 / self.cycles as f64
        }
    }
}

/// The full result of a simulation: the timing report plus the final memory
/// image (used by probabilistic testing to inspect output buffers).
#[derive(Debug)]
pub struct SimOutput {
    /// Timing and counter report.
    pub report: SmReport,
    /// Final memory state.
    pub memory: MemorySubsystem,
    /// Host-side work the compiled engine did to produce the report (all
    /// zero for [`SmSimulator::run_reference`]).
    pub work: SimWork,
}

/// Deterministic host-work counters of the event-driven `CycleEngine`:
/// pure functions of (program, device, warps, constants), so they repeat
/// exactly on any machine and can be gated without a tolerance. They are
/// deliberately **not** part of [`SmReport`], which is stored in answers and
/// sent over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimWork {
    /// `CycleEngine::step` calls. A plain per-cycle loop would make one per
    /// simulated cycle.
    pub steps: u64,
    /// Simulated cycles advanced by idle-stretch jumps instead of stepped.
    pub cycles_jumped: u64,
    /// Full per-warp eligibility evaluations (a per-cycle scan would make
    /// `warps` of them per simulated cycle).
    pub eligibility_evals: u64,
}

impl std::ops::AddAssign for SimWork {
    fn add_assign(&mut self, other: SimWork) {
        self.steps += other.steps;
        self.cycles_jumped += other.cycles_jumped;
        self.eligibility_evals += other.eligibility_evals;
    }
}

/// Scoreboard wait barriers per warp: the six `B0..B5` slots of the
/// control-code format, on every generation `sass::ArchClass` models.
const SCOREBOARDS: usize = sass::NUM_BARRIERS as usize;
/// Wait mask selecting every scoreboard (what `DEPBAR` waits on).
const ALL_SCOREBOARDS: u8 = (1 << SCOREBOARDS) - 1;
/// Wake cycle of a warp that cannot become eligible by the passage of time
/// alone (finished, parked at a `BAR`, or fetching past the program).
const NEVER: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub(crate) struct Warp {
    pub(crate) pc: usize,
    stall_until: u64,
    pub(crate) finished: bool,
    at_barrier: bool,
    regs: RegisterFile,
    /// Per scoreboard barrier, the latest completion cycle set on it (0 =
    /// never set). Every reader — the wait mask, `DEPBAR`, reconvergence —
    /// observes only the latest pending completion, so that is all that is
    /// stored.
    barrier_done: [u64; SCOREBOARDS],
    /// State of the current LDGSTS ascending-offset group: (shared base
    /// register, last offset seen).
    ldgsts_group: Option<(Register, i64)>,
    ldgsts_violations: u64,
    yielded: bool,
}

/// True when the entries strictly greater than `cycle` in `a` and `b` form
/// equal multisets. Deadlines at or before `cycle` are *dead*: every wait or
/// queue-occupancy check they could still gate has already been satisfied,
/// so they can differ without affecting any future cycle.
pub(crate) fn live_multiset_eq(a: &[u64], b: &[u64], cycle: u64) -> bool {
    let live_count = |xs: &[u64]| xs.iter().filter(|&&x| x > cycle).count();
    if live_count(a) != live_count(b) {
        return false;
    }
    a.iter()
        .filter(|&&x| x > cycle)
        .all(|&x| a.iter().filter(|&&y| y == x).count() == b.iter().filter(|&&y| y == x).count())
}

impl Warp {
    fn new(warp_id: usize, block_id: usize) -> Self {
        let mut regs = RegisterFile::new();
        // Thread/block identity registers conventionally live in R0/R1 right
        // after the prologue of generated kernels; we also pre-seed a couple
        // of well-known registers so that generators may rely on them.
        regs.write(Register::Gpr(252), (warp_id * 32) as u64, 0);
        regs.write(Register::Gpr(253), block_id as u64, 0);
        Warp {
            pc: 0,
            stall_until: 0,
            finished: false,
            at_barrier: false,
            regs,
            barrier_done: [0; SCOREBOARDS],
            ldgsts_group: None,
            ldgsts_violations: 0,
            yielded: false,
        }
    }

    /// The cycle from which every scoreboard selected by `mask` is clear:
    /// the latest completion set on any of them (0 when none was).
    fn wait_deadline(&self, mask: u8) -> u64 {
        if mask == 0 {
            return 0;
        }
        let mut deadline = 0;
        for (barrier, &done) in self.barrier_done.iter().enumerate() {
            if mask & (1 << barrier) != 0 {
                deadline = deadline.max(done);
            }
        }
        deadline
    }

    /// Records that `barrier` additionally stays set until `done`.
    fn set_barrier(&mut self, barrier: u8, done: u64) {
        let slot = &mut self.barrier_done[barrier as usize];
        *slot = (*slot).max(done);
    }

    /// Monotone hazard tally attributed to this warp so far (stale reads
    /// plus LDGSTS ascending-group violations).
    pub(crate) fn hazard_tally(&self) -> u64 {
        self.regs.hazard_count() as u64 + self.ldgsts_violations
    }

    /// Allocation-reusing copy of `other` into `self` (see
    /// [`SimState::assign_from`]).
    fn assign_from(&mut self, other: &Warp) {
        self.pc = other.pc;
        self.stall_until = other.stall_until;
        self.finished = other.finished;
        self.at_barrier = other.at_barrier;
        self.regs.assign_from(&other.regs);
        self.barrier_done = other.barrier_done;
        self.ldgsts_group = other.ldgsts_group;
        self.ldgsts_violations = other.ldgsts_violations;
        self.yielded = other.yielded;
    }

    /// True when `self` and `other` are *evolution-equivalent* at `cycle`:
    /// every eligibility check and issue from `cycle` onwards behaves
    /// identically. Monotone tallies (the stale-read list, the LDGSTS
    /// violation count) are excluded — they never feed back into execution —
    /// and deadlines that can no longer be observed (stall, register-readiness
    /// and scoreboard-completion times at or before `cycle`) are treated as
    /// dead rather than compared exactly. For scoreboards this is weaker than
    /// comparing every in-flight completion but just as sound: only the
    /// latest completion per barrier is ever observed.
    fn equivalent_at(&self, other: &Warp, cycle: u64) -> bool {
        let deadline_eq = |a: u64, b: u64| a == b || (a <= cycle && b <= cycle);
        self.pc == other.pc
            && self.finished == other.finished
            && self.at_barrier == other.at_barrier
            && self.yielded == other.yielded
            && self.ldgsts_group == other.ldgsts_group
            && deadline_eq(self.stall_until, other.stall_until)
            && self
                .barrier_done
                .iter()
                .zip(&other.barrier_done)
                .all(|(&a, &b)| deadline_eq(a, b))
            && self.regs.equivalent_at(&other.regs, cycle)
    }
}

/// Simulator for one SM running one thread block's worth of warps.
#[derive(Debug, Clone)]
pub struct SmSimulator {
    config: GpuConfig,
}

impl SmSimulator {
    /// Creates a simulator for the given device.
    #[must_use]
    pub fn new(config: GpuConfig) -> Self {
        SmSimulator { config }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Fixed pipeline latency of a (non-memory) instruction, per the
    /// architecture backend's opcode latency table.
    fn fixed_latency(&self, inst: &Instruction) -> u64 {
        self.config.arch.fixed_latency(inst.opcode())
    }

    /// Runs `program` with `warps` resident warps for block `block_id`,
    /// using `constants` as the kernel parameter bank.
    ///
    /// The program is lowered once through [`CompiledProgram::compile`] and
    /// the cycle loop interprets the dense form; results are bit-identical
    /// to [`SmSimulator::run_reference`].
    ///
    /// The simulation stops when every warp has executed `EXIT` or when
    /// `max_cycles` is reached (reported through [`SmReport::completed`]).
    #[must_use]
    pub fn run(
        &self,
        program: &Program,
        warps: usize,
        block_id: usize,
        constants: &ConstantBank,
        max_cycles: u64,
    ) -> SimOutput {
        let compiled = CompiledProgram::compile(program, &self.config);
        self.run_compiled(&compiled, warps, block_id, constants, max_cycles)
    }

    /// Runs an already-lowered program (see [`CompiledProgram::compile`]);
    /// compile once per (schedule, device) to amortize decoding across
    /// repeated simulations of the same schedule.
    #[must_use]
    pub fn run_compiled(
        &self,
        compiled: &CompiledProgram,
        warps: usize,
        block_id: usize,
        constants: &ConstantBank,
        max_cycles: u64,
    ) -> SimOutput {
        let mut state = SimState::start(&self.config, warps, block_id);
        if compiled.is_empty() {
            let report = report_from_state(&state, true);
            return SimOutput {
                report,
                memory: state.memory,
                work: SimWork::default(),
            };
        }
        let mut engine = CycleEngine::new(&self.config, compiled, constants, block_id);
        let mut completed = true;
        while !state.all_finished() {
            if state.cycle >= max_cycles {
                completed = false;
                break;
            }
            // The cycle limit is the jump horizon, so a cycle-limited run
            // still ends at exactly `max_cycles`.
            engine.step(&mut state, max_cycles);
        }
        let report = report_from_state(&state, completed);
        SimOutput {
            report,
            memory: state.memory,
            work: engine.work,
        }
    }

    /// The original instruction-at-a-time interpreter, kept as the
    /// executable specification of the simulator: [`SmSimulator::run`]
    /// (which interprets the pre-decoded [`CompiledProgram`]) must produce
    /// bit-identical results. Use only for differential testing — it
    /// re-decodes every instruction on every issue, visits every cycle and
    /// keeps every in-flight scoreboard completion in its own per-warp
    /// lists (the multiset the engine's one-deadline scoreboards replace),
    /// so none of the engine's shortcuts is shared with its oracle.
    #[must_use]
    pub fn run_reference(
        &self,
        program: &Program,
        warps: usize,
        block_id: usize,
        constants: &ConstantBank,
        max_cycles: u64,
    ) -> SimOutput {
        let instructions = program.instructions();
        let label_map = build_label_map(program);
        let mut memory = MemorySubsystem::new(&self.config);
        let mut warp_states: Vec<Warp> =
            (0..warps.max(1)).map(|w| Warp::new(w, block_id)).collect();
        // Outstanding completion cycles per warp and scoreboard barrier
        // (the reference ignores `Warp::barrier_done`).
        let mut pending: Vec<Vec<Vec<u64>>> =
            vec![vec![Vec::new(); self.config.arch.scoreboard_count()]; warp_states.len()];
        let mut reuse_cache = ReuseCache::for_model(&self.config.arch.banks);

        let mut cycle: u64 = 0;
        let mut issued: u64 = 0;
        let mut issue_active_cycles: u64 = 0;
        let mut eligible_cycles: u64 = 0;
        let mut lsu_busy: u64 = 0;
        let mut tensor_busy: u64 = 0;
        let mut bank_conflict_cycles: u64 = 0;
        let mut lsu_free_at: u64 = 0;
        let mut tensor_free_at: u64 = 0;
        let mut lsu_outstanding: Vec<u64> = Vec::new();
        let mut last_issued_warp: Option<usize> = None;
        let mut completed = true;

        if instructions.is_empty() {
            let report = SmReport {
                cycles: 0,
                instructions_issued: 0,
                issue_active_cycles: 0,
                eligible_cycles: 0,
                lsu_busy_cycles: 0,
                tensor_busy_cycles: 0,
                bank_conflict_cycles: 0,
                mem: memory.counters(),
                hazards: 0,
                output_digest: memory.global_digest(),
                completed: true,
            };
            return SimOutput {
                report,
                memory,
                work: SimWork::default(),
            };
        }

        while warp_states.iter().any(|w| !w.finished) {
            if cycle >= max_cycles {
                completed = false;
                break;
            }
            // Barrier release: when every unfinished warp is waiting, release
            // all of them.
            if warp_states.iter().any(|w| !w.finished && w.at_barrier)
                && warp_states.iter().all(|w| w.finished || w.at_barrier)
            {
                for w in &mut warp_states {
                    w.at_barrier = false;
                }
            }
            lsu_outstanding.retain(|&done| done > cycle);

            let eligible: Vec<usize> = (0..warp_states.len())
                .filter(|&w| {
                    self.warp_eligible(
                        &warp_states[w],
                        &pending[w],
                        instructions,
                        cycle,
                        lsu_free_at,
                        tensor_free_at,
                        lsu_outstanding.len(),
                    )
                })
                .collect();
            if !eligible.is_empty() {
                eligible_cycles += 1;
            }

            let mut issued_this_cycle = 0usize;
            let mut pick_from = eligible;
            while issued_this_cycle < self.config.arch.issue_width && !pick_from.is_empty() {
                // Greedy-then-oldest: prefer the warp that issued last cycle
                // (unless it yielded), otherwise the lowest-index eligible
                // warp after it.
                let chosen = match last_issued_warp {
                    Some(last) if !warp_states[last].yielded && pick_from.contains(&last) => last,
                    Some(last) => *pick_from
                        .iter()
                        .find(|&&w| w > last)
                        .unwrap_or(&pick_from[0]),
                    None => pick_from[0],
                };
                pick_from.retain(|&w| w != chosen);

                let warp = &mut warp_states[chosen];
                let pending = &mut pending[chosen];
                let inst = &instructions[warp.pc];
                let ctx = ExecContext {
                    warp_id: chosen,
                    block_id,
                    cycle,
                    constants,
                };
                let outcome = execute(inst, &mut warp.regs, &mut memory, &ctx);

                // Register-bank conflicts and the operand-reuse cache.
                let sources: Vec<Register> =
                    inst.uses().into_iter().filter(|r| r.is_gpr()).collect();
                let reuse_flagged: Vec<Register> = inst
                    .operands()
                    .iter()
                    .filter(|o| o.has_reuse())
                    .flat_map(Operand::registers)
                    .filter(|r| r.is_gpr())
                    .collect();
                let conflicts = reuse_cache.issue(chosen, &sources, &reuse_flagged);
                bank_conflict_cycles += conflicts;

                let stall =
                    u64::from(inst.control().stall()).max(self.config.arch.min_stall) + conflicts;
                warp.stall_until = cycle + stall;
                warp.yielded = inst.control().yield_flag();

                // Barrier / synchronisation semantics.
                match inst.opcode().base() {
                    Mnemonic::Bar => {
                        warp.at_barrier = true;
                    }
                    Mnemonic::Depbar | Mnemonic::Ldgdepbar => {
                        // Wait-for-outstanding-copies: model as stalling the
                        // warp until its own barriers clear.
                        let worst = pending.iter().flatten().copied().max().unwrap_or(cycle);
                        warp.stall_until = warp.stall_until.max(worst);
                    }
                    _ => {}
                }

                if !outcome.predicated_off {
                    if let Some(access) = outcome.access {
                        // Timing of the memory access. Shared-memory and
                        // constant accesses are served by on-chip pipelines
                        // with (approximately) fixed latency; only accesses
                        // that leave the SM queue behind earlier global
                        // traffic.
                        let (service_latency, queued) = match access.space {
                            MemorySpace::Shared => (memory.shared_latency(), false),
                            MemorySpace::Constant => (self.config.arch.latency.l1_hit, false),
                            _ => {
                                let (lat, _) =
                                    memory.global_access_latency(access.addr, access.bypass_l1);
                                (lat, true)
                            }
                        };
                        // LSU occupancy: one cycle per 128 bytes of
                        // warp-wide traffic.
                        let warp_bytes = access.bytes * 32;
                        let lsu_cycles = (warp_bytes / self.config.arch.lsu_bytes_per_cycle).max(1);
                        let queue_wait = if queued {
                            lsu_free_at.saturating_sub(cycle)
                        } else {
                            0
                        };
                        lsu_free_at = lsu_free_at.max(cycle) + lsu_cycles;
                        lsu_busy += lsu_cycles;
                        let completion = cycle + queue_wait + service_latency;
                        if queued {
                            // Only off-SM (global) requests occupy the
                            // outstanding-request queue; shared-memory
                            // accesses are serviced by the on-chip pipeline.
                            lsu_outstanding.push(completion);
                        }

                        if let Some(rb) = inst.control().read_barrier() {
                            // Source registers are consumed once the request
                            // has left the LSU.
                            pending[rb as usize].push(
                                cycle
                                    + queue_wait
                                    + lsu_cycles
                                    + self.config.arch.read_barrier_drain,
                            );
                        }
                        if let Some(wb) = inst.control().write_barrier() {
                            pending[wb as usize].push(completion);
                        }
                        // Loads deliver their destination registers at
                        // completion time.
                        for (reg, value) in &outcome.writes {
                            warp.regs.write(*reg, *value, completion);
                        }
                        // LDGSTS ascending-group rule.
                        if *inst.opcode().base() == Mnemonic::Ldgsts {
                            let key = ldgsts_group_key(inst);
                            if let (Some((base, offset)), Some((prev_base, prev_offset))) =
                                (key, warp.ldgsts_group)
                            {
                                if base == prev_base && offset < prev_offset {
                                    warp.ldgsts_violations += 1;
                                }
                            }
                            warp.ldgsts_group = key.or(warp.ldgsts_group);
                        } else {
                            warp.ldgsts_group = None;
                        }
                    } else {
                        // Fixed-latency (or barrier-setting non-memory) path.
                        let latency = self.fixed_latency(inst);
                        if inst.opcode().is_mma() {
                            let busy = self.config.arch.mma_busy;
                            tensor_free_at = tensor_free_at.max(cycle) + busy;
                            tensor_busy += busy;
                        }
                        let ready_at = cycle + latency;
                        for (reg, value) in &outcome.writes {
                            warp.regs.write(*reg, *value, ready_at);
                        }
                        if inst.opcode().latency_class() == LatencyClass::Variable {
                            // Variable-latency non-memory instructions clear
                            // their write barrier after their latency.
                            if let Some(wb) = inst.control().write_barrier() {
                                pending[wb as usize].push(ready_at);
                            }
                        }
                    }
                }

                // Control flow.
                if outcome.exit {
                    warp.finished = true;
                } else if let Some(target) = &outcome.branch_to {
                    match label_map.get(target.as_str()) {
                        Some(&idx) => warp.pc = idx,
                        None => warp.finished = true,
                    }
                } else {
                    warp.pc += 1;
                }
                warp.finished |= warp.pc >= instructions.len();
                for completions in pending.iter_mut() {
                    completions.retain(|&done| done > cycle);
                }

                issued += 1;
                issued_this_cycle += 1;
                last_issued_warp = Some(chosen);
            }
            if issued_this_cycle > 0 {
                issue_active_cycles += 1;
            }
            cycle += 1;
        }

        let hazards: u64 = warp_states
            .iter()
            .map(|w| w.regs.hazard_count() as u64 + w.ldgsts_violations)
            .sum();
        let report = SmReport {
            cycles: cycle,
            instructions_issued: issued,
            issue_active_cycles,
            eligible_cycles,
            lsu_busy_cycles: lsu_busy,
            tensor_busy_cycles: tensor_busy,
            bank_conflict_cycles,
            mem: memory.counters(),
            hazards,
            output_digest: memory.global_digest(),
            completed,
        };
        SimOutput {
            report,
            memory,
            work: SimWork::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn warp_eligible(
        &self,
        warp: &Warp,
        pending: &[Vec<u64>],
        instructions: &[Instruction],
        cycle: u64,
        lsu_free_at: u64,
        tensor_free_at: u64,
        lsu_outstanding: usize,
    ) -> bool {
        if warp.finished || warp.at_barrier || cycle < warp.stall_until {
            return false;
        }
        let Some(inst) = instructions.get(warp.pc) else {
            return false;
        };
        let clear = |completions: &Vec<u64>| completions.iter().all(|&done| done <= cycle);
        let mask = inst.control().wait_mask();
        if !pending
            .iter()
            .enumerate()
            .all(|(b, completions)| mask & (1 << b) == 0 || clear(completions))
        {
            return false;
        }
        if matches!(inst.opcode().base(), Mnemonic::Depbar | Mnemonic::Ldgdepbar)
            && !pending.iter().all(clear)
        {
            return false;
        }
        // Memory instructions can issue as long as the LSU input queue has
        // room; data-path serialisation is charged to their completion time,
        // not to the issue stage.
        if inst.opcode().is_memory() && lsu_outstanding >= self.config.arch.lsu_queue_depth {
            return false;
        }
        let _ = lsu_free_at;
        if inst.opcode().is_mma() && tensor_free_at > cycle + self.config.arch.mma_issue_gap {
            return false;
        }
        true
    }
}

/// The complete mutable state of one compiled-program simulation at a cycle
/// boundary: per-warp issue state and register files, one completion
/// deadline per scoreboard, the operand-reuse cache, structural-hazard
/// bookkeeping (LSU/tensor-pipe occupancy, outstanding global requests), the memory
/// subsystem (caches, functional contents and traffic counters) and every
/// aggregate counter of the eventual [`SmReport`].
///
/// The state is a plain value: cloning it at a cycle boundary and resuming
/// with [`CycleEngine::step`] is indistinguishable from having simulated
/// straight through — this is what makes the epoch snapshots of
/// [`crate::DeltaEngine`] sound.
#[derive(Debug, Clone)]
pub(crate) struct SimState {
    pub(crate) cycle: u64,
    pub(crate) issued: u64,
    pub(crate) issue_active_cycles: u64,
    pub(crate) eligible_cycles: u64,
    pub(crate) lsu_busy: u64,
    pub(crate) tensor_busy: u64,
    pub(crate) bank_conflict_cycles: u64,
    pub(crate) lsu_free_at: u64,
    pub(crate) tensor_free_at: u64,
    pub(crate) lsu_outstanding: Vec<u64>,
    pub(crate) last_issued_warp: Option<usize>,
    pub(crate) warps: Vec<Warp>,
    pub(crate) reuse: ReuseCache,
    pub(crate) memory: MemorySubsystem,
}

impl SimState {
    /// The cycle-zero state of a fresh simulation on `config` with `warps`
    /// resident warps for thread block `block_id`.
    pub(crate) fn start(config: &GpuConfig, warps: usize, block_id: usize) -> Self {
        let warp_states: Vec<Warp> = (0..warps.max(1)).map(|w| Warp::new(w, block_id)).collect();
        SimState {
            cycle: 0,
            issued: 0,
            issue_active_cycles: 0,
            eligible_cycles: 0,
            lsu_busy: 0,
            tensor_busy: 0,
            bank_conflict_cycles: 0,
            lsu_free_at: 0,
            tensor_free_at: 0,
            lsu_outstanding: Vec::new(),
            last_issued_warp: None,
            warps: warp_states,
            reuse: ReuseCache::for_model(&config.arch.banks),
            memory: MemorySubsystem::new(config),
        }
    }

    /// True when every warp has executed its `EXIT`.
    pub(crate) fn all_finished(&self) -> bool {
        self.warps.iter().all(|w| w.finished)
    }

    /// Total hazards observed so far (stale reads + LDGSTS violations),
    /// summed over warps. Monotone, so splicing adjusts it additively.
    pub(crate) fn hazard_tally(&self) -> u64 {
        self.warps.iter().map(Warp::hazard_tally).sum()
    }

    /// Allocation-reusing deep copy: every `Vec` and map in `self` keeps its
    /// buffers where capacities allow. This is what lets the snapshot pool
    /// recycle retired states instead of reallocating register files and
    /// memory images per snapshot.
    pub(crate) fn assign_from(&mut self, other: &SimState) {
        self.cycle = other.cycle;
        self.issued = other.issued;
        self.issue_active_cycles = other.issue_active_cycles;
        self.eligible_cycles = other.eligible_cycles;
        self.lsu_busy = other.lsu_busy;
        self.tensor_busy = other.tensor_busy;
        self.bank_conflict_cycles = other.bank_conflict_cycles;
        self.lsu_free_at = other.lsu_free_at;
        self.tensor_free_at = other.tensor_free_at;
        self.lsu_outstanding.clone_from(&other.lsu_outstanding);
        self.last_issued_warp = other.last_issued_warp;
        if self.warps.len() == other.warps.len() {
            for (dst, src) in self.warps.iter_mut().zip(&other.warps) {
                dst.assign_from(src);
            }
        } else {
            self.warps.clone_from(&other.warps);
        }
        self.reuse.assign_from(&other.reuse);
        self.memory.assign_from(&other.memory);
    }

    /// True when `self` and `other` (two states of the *same* program suffix
    /// at the same cycle) are evolution-equivalent: every future cycle
    /// produces identical issues, identical counter increments and identical
    /// memory traffic. Aggregate tallies (instruction/cycle counters, memory
    /// traffic, hazard lists) are excluded — they are outputs, not inputs,
    /// of the cycle loop — and dead deadlines are forgiven (see
    /// [`Warp::equivalent_at`]); the outstanding-request queue, whose
    /// *occupancy* is what gets observed, is compared as the multiset of its
    /// live entries.
    pub(crate) fn equivalent_to(&self, other: &SimState) -> bool {
        let cycle = self.cycle;
        let deadline_eq = |a: u64, b: u64| a == b || (a <= cycle && b <= cycle);
        self.cycle == other.cycle
            && self.last_issued_warp == other.last_issued_warp
            && deadline_eq(self.lsu_free_at, other.lsu_free_at)
            && deadline_eq(self.tensor_free_at, other.tensor_free_at)
            && live_multiset_eq(&self.lsu_outstanding, &other.lsu_outstanding, cycle)
            && self.warps.len() == other.warps.len()
            && self
                .warps
                .iter()
                .zip(&other.warps)
                .all(|(a, b)| a.equivalent_at(b, cycle))
            && self.reuse.state_eq(&other.reuse)
            && self.memory.equivalent_to(&other.memory)
    }
}

/// Builds the aggregate report of a finished (or cycle-limited) simulation
/// from its final state.
pub(crate) fn report_from_state(state: &SimState, completed: bool) -> SmReport {
    SmReport {
        cycles: state.cycle,
        instructions_issued: state.issued,
        issue_active_cycles: state.issue_active_cycles,
        eligible_cycles: state.eligible_cycles,
        lsu_busy_cycles: state.lsu_busy,
        tensor_busy_cycles: state.tensor_busy,
        bank_conflict_cycles: state.bank_conflict_cycles,
        mem: state.memory.counters(),
        hazards: state.hazard_tally(),
        output_digest: state.memory.global_digest(),
        completed,
    }
}

/// Per static instruction index, the first and last cycle at whose boundary
/// any live warp's fetch pointer rested on it — what a sweep over all warps
/// at the top of every simulated cycle would record. A fetch pointer only
/// moves when its warp issues, so the tables are maintained on issue events
/// ([`FetchTouch::departed`], called by [`CycleEngine::step`]) plus one
/// closing sweep when a cycle limit cuts the run ([`FetchTouch::cut`]);
/// cycles jumped over need no visit.
#[derive(Debug)]
pub(crate) struct FetchTouch {
    /// Earliest such cycle per index (`u64::MAX` = never fetched).
    pub(crate) first: Vec<u64>,
    /// Latest such cycle per index (0 when never fetched).
    pub(crate) last: Vec<u64>,
    /// Per warp, the cycle its fetch pointer came to rest where it is now.
    arrived: Vec<u64>,
}

impl FetchTouch {
    /// Empty tables for a program of `instructions` run by `warps` warps,
    /// all resting on index 0 from cycle zero.
    pub(crate) fn new(instructions: usize, warps: usize) -> Self {
        FetchTouch {
            first: vec![u64::MAX; instructions],
            last: vec![0; instructions],
            arrived: vec![0; warps],
        }
    }

    /// Warp `warp` rested on `pc` since it arrived and issues it at `cycle`.
    fn departed(&mut self, warp: usize, pc: usize, cycle: u64) {
        self.first[pc] = self.first[pc].min(self.arrived[warp]);
        self.last[pc] = cycle;
        self.arrived[warp] = cycle + 1;
    }

    /// The run was cut after simulating `last_cycle`: every unfinished warp
    /// that had arrived by then rested where it is until the end.
    pub(crate) fn cut(&mut self, warps: &[Warp], last_cycle: u64) {
        for (warp, &arrived) in warps.iter().zip(&self.arrived) {
            if !warp.finished && arrived <= last_cycle {
                if let Some(first) = self.first.get_mut(warp.pc) {
                    *first = (*first).min(arrived);
                    self.last[warp.pc] = last_cycle;
                }
            }
        }
    }
}

/// Advances one [`SimState`] from issue event to issue event over one
/// compiled program.
///
/// [`SmSimulator::run_compiled`] and the delta engine drive their states
/// through this single implementation, which is what makes delta results
/// bit-identical to full runs by construction. Besides the scratch buffers
/// of the hot loop (register writes, operand values, the eligible-warp
/// list), the engine caches what makes the loop event-driven:
///
/// * `wake[w]` — a lower bound on the next cycle warp `w` can be eligible,
///   taken from the first failing condition of its last eligibility
///   evaluation (see [`wake_cycle`]). The per-cycle scan is one compare per
///   warp; the full evaluation runs only when a warp is due, and when no
///   warp is, [`CycleEngine::step`] jumps straight to the earliest wake
///   cycle.
/// * the earliest completion in `lsu_outstanding`, so the queue is drained
///   only when an entry has actually expired.
/// * whether a `BAR` issued or a warp exited, the only events that can make
///   the barrier-release condition true.
///
/// All of it is derived, conservative scheduling knowledge about the state
/// being stepped — never part of [`SimState`]. An engine built over a
/// snapshot starts cold (every warp due, drain and barrier test pending) and
/// behaves exactly as one that has stepped the state from cycle zero; one
/// engine must only ever step one state.
pub(crate) struct CycleEngine<'a> {
    config: &'a GpuConfig,
    compiled: &'a CompiledProgram,
    constants: &'a ConstantBank,
    block_id: usize,
    writes: Vec<(Register, u64)>,
    values: Vec<u64>,
    eligible: Vec<usize>,
    wake: Vec<u64>,
    /// Earliest completion cycle in `lsu_outstanding` (or any lower bound).
    lsu_next_done: u64,
    barrier_event: bool,
    /// Fetch-touch tables to maintain, when a baseline is being recorded.
    pub(crate) touch: Option<FetchTouch>,
    /// Work done so far by this engine.
    pub(crate) work: SimWork,
}

impl<'a> CycleEngine<'a> {
    pub(crate) fn new(
        config: &'a GpuConfig,
        compiled: &'a CompiledProgram,
        constants: &'a ConstantBank,
        block_id: usize,
    ) -> Self {
        CycleEngine {
            config,
            compiled,
            constants,
            block_id,
            writes: Vec::new(),
            values: Vec::new(),
            eligible: Vec::new(),
            wake: Vec::new(),
            lsu_next_done: 0,
            barrier_event: true,
            touch: None,
            work: SimWork::default(),
        }
    }

    /// Advances `state` to the next cycle before `horizon` at which some
    /// warp is due and simulates exactly that cycle: barrier release, queue
    /// draining, the eligibility evaluation of every due warp, up to
    /// `issue_width` issues and the cycle increment. When no warp is due
    /// before `horizon`, `state.cycle` becomes `horizon` and nothing is
    /// simulated — the cycles jumped over are ones in which a per-cycle loop
    /// would have found no eligible warp and changed nothing but the cycle
    /// count.
    ///
    /// The caller has already checked liveness and passes the next cycle it
    /// must observe the state at (`state.cycle < horizon`): the cycle limit,
    /// or the next baseline snapshot cycle of a reconvergence check.
    #[allow(clippy::too_many_lines)] // the cycle body mirrors run_reference
    pub(crate) fn step(&mut self, state: &mut SimState, horizon: u64) {
        debug_assert!(state.cycle < horizon, "the caller checks the horizon");
        self.work.steps += 1;
        if self.wake.len() != state.warps.len() {
            self.wake.clear();
            self.wake.resize(state.warps.len(), 0);
        }
        // Barrier release: when every unfinished warp is waiting, release
        // all of them. Only a `BAR` issue or a warp exit can make that true.
        if self.barrier_event {
            self.barrier_event = false;
            if state.warps.iter().any(|w| !w.finished && w.at_barrier)
                && state.warps.iter().all(|w| w.finished || w.at_barrier)
            {
                for (warp, wake) in state.warps.iter_mut().zip(&mut self.wake) {
                    if warp.at_barrier {
                        warp.at_barrier = false;
                        *wake = 0;
                    }
                }
            }
        }
        let due = self.wake.iter().copied().min().unwrap_or(NEVER);
        if due > state.cycle {
            let target = due.min(horizon);
            self.work.cycles_jumped += target - state.cycle;
            state.cycle = target;
            if target == horizon {
                return;
            }
        }
        let cycle = state.cycle;
        if self.lsu_next_done <= cycle {
            state.lsu_outstanding.retain(|&done| done > cycle);
            self.lsu_next_done = state.lsu_outstanding.iter().copied().min().unwrap_or(NEVER);
        }

        self.eligible.clear();
        for (w, warp) in state.warps.iter().enumerate() {
            if self.wake[w] > cycle {
                continue;
            }
            self.work.eligibility_evals += 1;
            let wake = wake_cycle(
                self.config,
                warp,
                self.compiled,
                cycle,
                state.tensor_free_at,
                state.lsu_outstanding.len(),
            );
            self.wake[w] = wake;
            if wake == cycle {
                self.eligible.push(w);
            }
        }
        if !self.eligible.is_empty() {
            state.eligible_cycles += 1;
        }

        let mut issued_this_cycle = 0usize;
        let pick_from = &mut self.eligible;
        while issued_this_cycle < self.config.arch.issue_width && !pick_from.is_empty() {
            // Greedy-then-oldest: prefer the warp that issued last cycle
            // (unless it yielded), otherwise the lowest-index eligible
            // warp after it.
            let chosen = match state.last_issued_warp {
                Some(last) if !state.warps[last].yielded && pick_from.contains(&last) => last,
                Some(last) => *pick_from
                    .iter()
                    .find(|&&w| w > last)
                    .unwrap_or(&pick_from[0]),
                None => pick_from[0],
            };
            pick_from.retain(|&w| w != chosen);

            let warp = &mut state.warps[chosen];
            let pc = warp.pc;
            let inst = &self.compiled.insts[pc];
            let ctx = ExecContext {
                warp_id: chosen,
                block_id: self.block_id,
                cycle,
                constants: self.constants,
            };
            let effects = inst.execute(
                &mut warp.regs,
                &mut state.memory,
                &ctx,
                &mut self.writes,
                &mut self.values,
            );

            // Register-bank conflicts and the operand-reuse cache.
            let conflicts = state
                .reuse
                .issue_banked(chosen, &inst.bank_sources, &inst.reuse_regs);
            state.bank_conflict_cycles += conflicts;

            let stall = inst.stall + conflicts;
            warp.stall_until = cycle + stall;
            warp.yielded = inst.yield_flag;

            // Barrier / synchronisation semantics.
            if inst.is_bar {
                warp.at_barrier = true;
            } else if inst.is_depbar {
                // Wait-for-outstanding-copies: model as stalling the
                // warp until its own barriers clear.
                let worst = warp.wait_deadline(ALL_SCOREBOARDS);
                warp.stall_until = warp.stall_until.max(worst);
            }

            if !effects.predicated_off {
                if let Some(access) = effects.access {
                    // Timing of the memory access. Shared-memory and
                    // constant accesses are served by on-chip pipelines
                    // with (approximately) fixed latency; only accesses
                    // that leave the SM queue behind earlier global
                    // traffic.
                    let (service_latency, queued) = match access.space {
                        MemorySpace::Shared => (state.memory.shared_latency(), false),
                        MemorySpace::Constant => (self.config.arch.latency.l1_hit, false),
                        _ => {
                            let (lat, _) = state
                                .memory
                                .global_access_latency(access.addr, access.bypass_l1);
                            (lat, true)
                        }
                    };
                    // LSU occupancy: one cycle per 128 bytes of
                    // warp-wide traffic.
                    let warp_bytes = access.bytes * 32;
                    let lsu_cycles = (warp_bytes / self.config.arch.lsu_bytes_per_cycle).max(1);
                    let queue_wait = if queued {
                        state.lsu_free_at.saturating_sub(cycle)
                    } else {
                        0
                    };
                    state.lsu_free_at = state.lsu_free_at.max(cycle) + lsu_cycles;
                    state.lsu_busy += lsu_cycles;
                    let completion = cycle + queue_wait + service_latency;
                    if queued {
                        // Only off-SM (global) requests occupy the
                        // outstanding-request queue; shared-memory
                        // accesses are serviced by the on-chip pipeline.
                        state.lsu_outstanding.push(completion);
                        self.lsu_next_done = self.lsu_next_done.min(completion);
                    }

                    if let Some(rb) = inst.read_barrier {
                        // Source registers are consumed once the request
                        // has left the LSU.
                        warp.set_barrier(
                            rb,
                            cycle + queue_wait + lsu_cycles + self.config.arch.read_barrier_drain,
                        );
                    }
                    if let Some(wb) = inst.write_barrier {
                        warp.set_barrier(wb, completion);
                    }
                    // Loads deliver their destination registers at
                    // completion time.
                    for (reg, value) in &self.writes {
                        warp.regs.write(*reg, *value, completion);
                    }
                    // LDGSTS ascending-group rule.
                    if inst.is_ldgsts {
                        let key = inst.ldgsts_key;
                        if let (Some((base, offset)), Some((prev_base, prev_offset))) =
                            (key, warp.ldgsts_group)
                        {
                            if base == prev_base && offset < prev_offset {
                                warp.ldgsts_violations += 1;
                            }
                        }
                        warp.ldgsts_group = key.or(warp.ldgsts_group);
                    } else {
                        warp.ldgsts_group = None;
                    }
                } else {
                    // Fixed-latency (or barrier-setting non-memory) path.
                    if inst.is_mma {
                        state.tensor_free_at = state.tensor_free_at.max(cycle) + inst.mma_busy;
                        state.tensor_busy += inst.mma_busy;
                    }
                    let ready_at = cycle + inst.fixed_latency;
                    for (reg, value) in &self.writes {
                        warp.regs.write(*reg, *value, ready_at);
                    }
                    if inst.variable_latency {
                        // Variable-latency non-memory instructions clear
                        // their write barrier after their latency.
                        if let Some(wb) = inst.write_barrier {
                            warp.set_barrier(wb, ready_at);
                        }
                    }
                }
            }

            // Control flow. Leaving the program, by falling off its end or
            // by a branch to a trailing label, finishes the warp.
            match effects.flow {
                Flow::Finish => warp.finished = true,
                Flow::Jump(target) => warp.pc = target,
                Flow::Next => warp.pc += 1,
            }
            warp.finished |= warp.pc >= self.compiled.len();

            // The issue invalidated everything the warp's wake cycle was
            // derived from; until its stall has passed nothing else matters.
            let parked = warp.finished || warp.at_barrier;
            self.barrier_event |= parked;
            self.wake[chosen] = if parked { NEVER } else { warp.stall_until };
            if let Some(touch) = &mut self.touch {
                touch.departed(chosen, pc, cycle);
            }

            state.issued += 1;
            issued_this_cycle += 1;
            state.last_issued_warp = Some(chosen);
        }
        if issued_this_cycle > 0 {
            state.issue_active_cycles += 1;
        }
        state.cycle += 1;
    }
}

/// Eligibility evaluation over the pre-decoded form. Returns `cycle` when
/// `warp` can issue now; otherwise a lower bound, strictly later, on the
/// next cycle it can — taken from the first failing condition, and sound
/// because of who can move each blocking quantity:
///
/// * finished, parked at a `BAR` or fetching past the program: [`NEVER`] —
///   time alone does not help. A barrier release resets the wake cycle.
/// * `stall_until`, and the latest completion among the waited scoreboards
///   (every scoreboard for `DEPBAR`): both change only when the warp itself
///   issues, which resets its wake cycle, and the warp is ineligible at
///   every cycle before them.
/// * a full LSU queue: `cycle + 1`. Other warps fill and time drains the
///   queue, so the warp is simply re-evaluated every cycle while blocked.
/// * a busy tensor pipe: `tensor_free_at - mma_issue_gap`. `tensor_free_at`
///   only ever grows, so the warp is ineligible at every cycle before it.
fn wake_cycle(
    config: &GpuConfig,
    warp: &Warp,
    compiled: &CompiledProgram,
    cycle: u64,
    tensor_free_at: u64,
    lsu_outstanding: usize,
) -> u64 {
    if warp.finished || warp.at_barrier {
        return NEVER;
    }
    if cycle < warp.stall_until {
        return warp.stall_until;
    }
    let Some(inst) = compiled.insts.get(warp.pc) else {
        return NEVER;
    };
    let waited = warp.wait_deadline(if inst.is_depbar {
        ALL_SCOREBOARDS
    } else {
        inst.wait_mask
    });
    if waited > cycle {
        return waited;
    }
    // Memory instructions can issue as long as the LSU input queue has
    // room; data-path serialisation is charged to their completion time,
    // not to the issue stage.
    if inst.is_memory && lsu_outstanding >= config.arch.lsu_queue_depth {
        return cycle + 1;
    }
    if inst.is_mma && tensor_free_at > cycle + config.arch.mma_issue_gap {
        return tensor_free_at - config.arch.mma_issue_gap;
    }
    cycle
}

/// The (shared-memory base register, offset) key used to detect LDGSTS
/// ascending-group violations.
fn ldgsts_group_key(inst: &Instruction) -> Option<(Register, i64)> {
    let mem = inst.operands().iter().find_map(Operand::as_mem)?;
    let base = mem.base?;
    Some((base.reg, mem.offset))
}

fn build_label_map(program: &Program) -> HashMap<&str, usize> {
    program
        .labels()
        .iter()
        .map(|(at, name)| (name.as_str(), *at))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> SmSimulator {
        SmSimulator::new(GpuConfig::small())
    }

    fn run_text(text: &str, warps: usize) -> SimOutput {
        let program: Program = text.parse().unwrap();
        sim().run(&program, warps, 0, &ConstantBank::new(), 1_000_000)
    }

    /// Every behavioural test below also exercises the compiled path; this
    /// helper additionally cross-checks it against the reference
    /// interpreter bit for bit.
    fn assert_compiled_matches_reference(text: &str, warps: usize) {
        let program: Program = text.parse().unwrap();
        let constants = ConstantBank::new();
        let fast = sim().run(&program, warps, 0, &constants, 1_000_000);
        let reference = sim().run_reference(&program, warps, 0, &constants, 1_000_000);
        assert_eq!(fast.report, reference.report, "{text}");
        assert_eq!(
            fast.memory.global_digest(),
            reference.memory.global_digest(),
            "{text}"
        );
    }

    #[test]
    fn trivial_program_completes() {
        let out = run_text(
            "[B------:R-:W-:-:S04] MOV R1, 0x7 ;\n[B------:R-:W-:-:S05] EXIT ;\n",
            1,
        );
        assert!(out.report.completed);
        assert_eq!(out.report.instructions_issued, 2);
        assert!(out.report.cycles >= 5);
    }

    #[test]
    fn stall_counts_gate_issue() {
        // Two instructions with stall 4 and 1: total at least 5 cycles.
        let fast = run_text(
            "[B------:R-:W-:-:S01] MOV R1, 0x7 ;\n[B------:R-:W-:-:S01] MOV R2, 0x8 ;\n[B------:R-:W-:-:S01] EXIT ;\n",
            1,
        );
        let slow = run_text(
            "[B------:R-:W-:-:S08] MOV R1, 0x7 ;\n[B------:R-:W-:-:S08] MOV R2, 0x8 ;\n[B------:R-:W-:-:S01] EXIT ;\n",
            1,
        );
        assert!(slow.report.cycles > fast.report.cycles);
    }

    #[test]
    fn correct_schedule_has_no_hazards_and_wrong_stall_does() {
        // Producer-consumer with the full 4-cycle stall: correct value stored.
        let good = run_text(
            "[B------:R-:W-:-:S04] MOV R15, 0x1 ;\n\
             [B------:R-:W-:-:S04] MOV R4, 0x100 ;\n\
             [B------:R-:W-:-:S04] STG.E [R4], R15 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n",
            1,
        );
        assert_eq!(good.report.hazards, 0);
        assert_eq!(good.memory.load_global(0x100), 1);

        // Under-stalled producer: the store reads a stale R15.
        let bad = run_text(
            "[B------:R-:W-:-:S04] MOV R4, 0x100 ;\n\
             [B------:R-:W-:-:S01] MOV R15, 0x1 ;\n\
             [B------:R-:W-:-:S04] STG.E [R4], R15 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n",
            1,
        );
        assert!(bad.report.hazards > 0);
        assert_ne!(bad.memory.load_global(0x100), 1);
        assert_ne!(good.report.output_digest, bad.report.output_digest);
    }

    #[test]
    fn write_barrier_protects_load_consumers() {
        // A load sets write barrier 0; the consumer waits on it: no hazard
        // and the loaded value reaches the output store.
        let text = "\
[B------:R-:W-:-:S04] MOV R4, 0x40 ;
[B------:R-:W-:-:S04] MOV R8, 0x80 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
[B0-----:R-:W-:-:S04] IADD3 R6, R2, 0x1, RZ ;
[B------:R-:W-:-:S04] STG.E [R8], R6 ;
[B------:R-:W-:-:S05] EXIT ;
";
        let out = run_text(text, 1);
        assert_eq!(out.report.hazards, 0);
        let expected = out.memory.load_global(0x40).wrapping_add(1);
        assert_eq!(out.memory.load_global(0x80), expected);

        // Remove the wait: the consumer reads a stale R2.
        let broken = text.replace("[B0-----:R-:W-:-:S04] IADD3", "[B------:R-:W-:-:S04] IADD3");
        let out = run_text(&broken, 1);
        assert!(out.report.hazards > 0);
    }

    #[test]
    fn more_warps_hide_memory_latency() {
        // A load followed by dependent compute: with more warps, total
        // cycles per warp shrink because the scheduler switches (TLP).
        let text = "\
[B------:R-:W-:-:S04] MOV R4, 0x1000 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
[B0-----:R-:W-:-:S04] IADD3 R6, R2, 0x1, RZ ;
[B------:R-:W-:-:S04] IADD3 R7, R6, 0x1, RZ ;
[B------:R-:W-:-:S05] EXIT ;
";
        let one = run_text(text, 1);
        let four = run_text(text, 4);
        let per_warp_one = one.report.cycles as f64;
        let per_warp_four = four.report.cycles as f64 / 4.0;
        assert!(
            per_warp_four < per_warp_one,
            "expected latency hiding: {per_warp_four} vs {per_warp_one}"
        );
    }

    #[test]
    fn interleaving_loads_with_compute_reduces_cycles() {
        // Back-to-back dependent chain after two loads vs. loads hoisted
        // early: the hoisted schedule overlaps memory latency with compute.
        let bunched = "\
[B------:R-:W-:-:S04] MOV R4, 0x1000 ;
[B------:R-:W-:-:S04] MOV R8, 0x2000 ;
[B------:R-:W-:-:S04] MOV R20, 0x3 ;
[B------:R-:W-:-:S04] IMAD R21, R20, R20, RZ ;
[B------:R-:W-:-:S04] IMAD R22, R21, R20, RZ ;
[B------:R-:W-:-:S04] IMAD R23, R22, R20, RZ ;
[B------:R-:W-:-:S04] IMAD R24, R23, R20, RZ ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
[B------:R-:W1:-:S02] LDG.E R3, [R8] ;
[B01----:R-:W-:-:S04] IADD3 R6, R2, R3, RZ ;
[B------:R-:W-:-:S04] STG.E [R4], R6 ;
[B------:R-:W-:-:S05] EXIT ;
";
        let hoisted = "\
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
        let a = run_text(bunched, 2);
        let b = run_text(hoisted, 2);
        assert!(a.report.hazards == 0 && b.report.hazards == 0);
        assert_eq!(a.report.output_digest, b.report.output_digest);
        assert!(
            b.report.cycles < a.report.cycles,
            "hoisted loads should be faster: {} vs {}",
            b.report.cycles,
            a.report.cycles
        );
    }

    #[test]
    fn loops_execute_until_predicate_flips() {
        let text = "\
[B------:R-:W-:-:S04] MOV R10, 0x0 ;
[B------:R-:W-:-:S04] MOV R11, 0x4 ;
.L_loop:
[B------:R-:W-:-:S04] IADD3 R10, R10, 0x1, RZ ;
[B------:R-:W-:-:S04] ISETP.LT.AND P0, PT, R10, R11, PT ;
[B------:R-:W-:-:S06] @P0 BRA `(.L_loop) ;
[B------:R-:W-:-:S04] MOV R4, 0x40 ;
[B------:R-:W-:-:S04] STG.E [R4], R10 ;
[B------:R-:W-:-:S05] EXIT ;
";
        let out = run_text(text, 1);
        assert!(out.report.completed);
        assert_eq!(out.memory.load_global(0x40), 4);
        assert_eq!(out.report.hazards, 0);
    }

    #[test]
    fn barrier_sync_synchronises_all_warps() {
        let text = "\
[B------:R-:W-:-:S04] MOV R1, 0x1 ;
[B------:R-:W-:-:S01] BAR.SYNC 0x0 ;
[B------:R-:W-:-:S04] MOV R2, 0x2 ;
[B------:R-:W-:-:S05] EXIT ;
";
        let out = run_text(text, 4);
        assert!(out.report.completed);
        assert_eq!(out.report.instructions_issued, 16);
    }

    #[test]
    fn ldgsts_descending_offsets_are_a_violation() {
        let ascending = "\
[B------:R-:W-:-:S04] MOV R74, 0x100 ;
[B------:R-:W-:-:S04] MOV R10, 0x4000 ;
[B------:R0:W-:-:S02] LDGSTS.E.128 [R74+0x0], desc[UR18][R10.64] ;
[B------:R0:W-:-:S02] LDGSTS.E.128 [R74+0x800], desc[UR18][R10.64] ;
[B------:R-:W-:-:S05] EXIT ;
";
        let descending = "\
[B------:R-:W-:-:S04] MOV R74, 0x100 ;
[B------:R-:W-:-:S04] MOV R10, 0x4000 ;
[B------:R0:W-:-:S02] LDGSTS.E.128 [R74+0x800], desc[UR18][R10.64] ;
[B------:R0:W-:-:S02] LDGSTS.E.128 [R74+0x0], desc[UR18][R10.64] ;
[B------:R-:W-:-:S05] EXIT ;
";
        assert_eq!(run_text(ascending, 1).report.hazards, 0);
        assert!(run_text(descending, 1).report.hazards > 0);
    }

    #[test]
    fn cycle_limit_is_reported() {
        let text = "\
.L_spin:
[B------:R-:W-:-:S04] IADD3 R1, R1, 0x1, RZ ;
[B------:R-:W-:-:S06] BRA `(.L_spin) ;
[B------:R-:W-:-:S05] EXIT ;
";
        let program: Program = text.parse().unwrap();
        let out = sim().run(&program, 1, 0, &ConstantBank::new(), 200);
        assert!(!out.report.completed);
    }

    #[test]
    fn compiled_matches_reference_on_representative_programs() {
        let programs = [
            // Producer-consumer with a correct and an under-stalled schedule.
            "[B------:R-:W-:-:S04] MOV R15, 0x1 ;\n\
             [B------:R-:W-:-:S04] MOV R4, 0x100 ;\n\
             [B------:R-:W-:-:S04] STG.E [R4], R15 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n",
            "[B------:R-:W-:-:S04] MOV R4, 0x100 ;\n\
             [B------:R-:W-:-:S01] MOV R15, 0x1 ;\n\
             [B------:R-:W-:-:S04] STG.E [R4], R15 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n",
            // Loads, write barriers, dependent compute and a loop.
            "[B------:R-:W-:-:S04] MOV R10, 0x0 ;\n\
             [B------:R-:W-:-:S04] MOV R11, 0x4 ;\n\
             .L_loop:\n\
             [B------:R-:W-:-:S04] IADD3 R10, R10, 0x1, RZ ;\n\
             [B------:R-:W0:-:S02] LDG.E R2, [R10+0x1000] ;\n\
             [B0-----:R-:W-:-:S04] IADD3 R6, R2, R10, RZ ;\n\
             [B------:R-:W-:-:S04] ISETP.LT.AND P0, PT, R10, R11, PT ;\n\
             [B------:R-:W-:-:S06] @P0 BRA `(.L_loop) ;\n\
             [B------:R-:W-:-:S04] MOV R4, 0x40 ;\n\
             [B------:R-:W-:-:S04] STG.E [R4], R6 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n",
            // Asynchronous copies, descriptors, barrier sync, value mixing,
            // predication, reuse hints and special registers.
            "[B------:R-:W-:-:S04] MOV R74, 0x100 ;\n\
             [B------:R-:W-:-:S04] MOV R10, 0x4000 ;\n\
             [B------:R0:W-:-:S02] LDGSTS.E.128 [R74+0x0], desc[UR18][R10.64] ;\n\
             [B------:R0:W-:-:S02] LDGSTS.E.BYPASS.128 [R74+0x800], desc[UR18][R10.64] ;\n\
             [B------:R-:W-:-:S01] BAR.SYNC 0x0 ;\n\
             [B------:R-:W0:-:S02] LDS.U.128 R76, [R74] ;\n\
             [B0-----:R-:W-:-:S04] FFMA R24, R76.reuse, R76, R24 ;\n\
             [B------:R-:W-:-:S02] HMMA.16816.F32 R24, R24.reuse, R76, R24 ;\n\
             [B------:R-:W-:-:S04] CS2R R2, SR_CLOCKLO ;\n\
             [B------:R-:W-:-:S04] S2R R3, SR_TID.X ;\n\
             [B------:R-:W-:-:S04] ISETP.GE.AND P1, PT, R3, 0x20, PT ;\n\
             [B------:R-:W-:-:S04] @P1 STG.E [R74+0x40], R24 ;\n\
             [B------:R-:W-:-:S04] @!P1 STG.E [R74+0x80], R2 ;\n\
             [B------:R-:W-:-:S04] MOV R5, c[0x0][0x160] ;\n\
             [B------:R-:W-:-:S04] STG.E [R5+0x10], R3 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n",
            // Branch to a missing label finishes the warp.
            "[B------:R-:W-:-:S04] MOV R1, 0x1 ;\n\
             [B------:R-:W-:-:S06] BRA `(.L_missing) ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n",
        ];
        for text in programs {
            for warps in [1, 4] {
                assert_compiled_matches_reference(text, warps);
            }
        }
    }

    #[test]
    fn compiled_matches_reference_at_label_edges() {
        let programs = [
            // A label at instruction 0, taken backwards.
            ".L_top:\n\
             [B------:R-:W-:-:S04] IADD3 R10, R10, 0x1, RZ ;\n\
             [B------:R-:W-:-:S04] ISETP.LT.AND P0, PT, R10, 0x3, PT ;\n\
             [B------:R-:W-:-:S06] @P0 BRA `(.L_top) ;\n\
             [B------:R-:W-:-:S04] MOV R4, 0x40 ;\n\
             [B------:R-:W-:-:S04] STG.E [R4], R10 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n",
            // Two consecutive labels, each a branch target.
            "[B------:R-:W-:-:S04] MOV R10, 0x0 ;\n\
             .L_a:\n\
             .L_b:\n\
             [B------:R-:W-:-:S04] IADD3 R10, R10, 0x1, RZ ;\n\
             [B------:R-:W-:-:S04] ISETP.LT.AND P0, PT, R10, 0x2, PT ;\n\
             [B------:R-:W-:-:S06] @P0 BRA `(.L_a) ;\n\
             [B------:R-:W-:-:S04] ISETP.LT.AND P1, PT, R10, 0x4, PT ;\n\
             [B------:R-:W-:-:S06] @P1 BRA `(.L_b) ;\n\
             [B------:R-:W-:-:S04] MOV R4, 0x40 ;\n\
             [B------:R-:W-:-:S04] STG.E [R4], R10 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n",
            // A trailing label: the branch leaves the program, which
            // finishes the warp.
            "[B------:R-:W-:-:S04] MOV R1, 0x1 ;\n\
             [B------:R-:W-:-:S06] BRA `(.L_end) ;\n\
             [B------:R-:W-:-:S04] MOV R1, 0x2 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n\
             .L_end:\n",
        ];
        for text in programs {
            assert!(run_text(text, 1).report.completed, "{text}");
            for warps in [1, 4] {
                assert_compiled_matches_reference(text, warps);
            }
        }
    }

    #[test]
    fn compiled_run_reuses_a_lowered_program() {
        let program: Program = "[B------:R-:W-:-:S04] MOV R4, 0x40 ;\n\
             [B------:R-:W0:-:S02] LDG.E R2, [R4] ;\n\
             [B0-----:R-:W-:-:S04] STG.E [R4], R2 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n"
            .parse()
            .unwrap();
        let simulator = sim();
        let compiled = CompiledProgram::compile(&program, simulator.config());
        assert_eq!(compiled.len(), 4);
        assert!(!compiled.is_empty());
        let constants = ConstantBank::new();
        let a = simulator.run_compiled(&compiled, 2, 0, &constants, 1_000_000);
        let b = simulator.run(&program, 2, 0, &constants, 1_000_000);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn counters_are_populated() {
        let out = run_text(
            "[B------:R-:W-:-:S04] MOV R4, 0x40 ;\n\
             [B------:R-:W0:-:S02] LDG.E R2, [R4] ;\n\
             [B0-----:R-:W-:-:S04] STG.E [R4], R2 ;\n\
             [B------:R-:W-:-:S05] EXIT ;\n",
            2,
        );
        assert!(out.report.mem.global_load_bytes > 0);
        assert!(out.report.mem.global_store_bytes > 0);
        assert!(out.report.lsu_busy_cycles > 0);
        assert!(out.report.ipc_elapsed() > 0.0);
        assert!(out.report.sm_busy() > 0.0);
        assert!(out.report.mem_busy() > 0.0);
        assert!(out.report.ipc_active() >= out.report.ipc_elapsed());
    }

    #[test]
    fn empty_program_yields_empty_report() {
        let out = run_text("", 4);
        assert_eq!(out.report.cycles, 0);
        assert!(out.report.completed);
    }
}
