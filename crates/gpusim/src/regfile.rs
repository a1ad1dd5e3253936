//! Per-warp register state: values, readiness times, bank conflicts and the
//! operand-reuse cache.

use sass::Register;

use crate::arch::BankModel;

/// Number of general-purpose registers per warp context.
const NUM_GPR: usize = 256;
/// Number of uniform registers per warp context.
const NUM_UR: usize = 64;
/// Number of predicate registers per warp context.
const NUM_PRED: usize = 8;

/// A stale-read event: an instruction consumed a register value before its
/// producer had completed.
///
/// On real hardware this is exactly the failure mode the stall-count and
/// barrier dependencies of §3.5 protect against; in the simulator it is both
/// recorded as a hazard and *propagated* (the stale value is returned), so
/// that corrupted schedules produce observably wrong outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRead {
    /// The register that was read too early.
    pub register: Register,
    /// Cycle at which the premature read happened.
    pub cycle: u64,
    /// Cycle at which the value would have become ready.
    pub ready_at: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    /// Value visible once `ready_at` has passed.
    value: u64,
    /// Value visible before `ready_at` (the previous contents).
    stale: u64,
    /// Cycle at which `value` becomes architecturally visible.
    ready_at: u64,
}

impl Cell {
    /// True when reads of this cell at any cycle `>= cycle` behave exactly
    /// like reads of `other`: either the cells are identical, or both
    /// in-flight writes have already landed (`ready_at <= cycle`, so the
    /// stale value and the exact landing time can never be observed again)
    /// and the visible values agree.
    fn equivalent_at(self, other: Cell, cycle: u64) -> bool {
        self.value == other.value
            && (self == other || (self.ready_at <= cycle && other.ready_at <= cycle))
    }
}

/// The register file of one warp.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    gpr: Vec<Cell>,
    ur: Vec<Cell>,
    pred: Vec<Cell>,
    hazards: Vec<StaleRead>,
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegisterFile {
    /// Creates a register file with all registers zero and ready.
    #[must_use]
    pub fn new() -> Self {
        RegisterFile {
            gpr: vec![Cell::default(); NUM_GPR],
            ur: vec![Cell::default(); NUM_UR],
            pred: vec![Cell::default(); NUM_PRED],
            hazards: Vec::new(),
        }
    }

    fn cell(&self, reg: Register) -> Option<&Cell> {
        match reg {
            Register::Gpr(n) => self.gpr.get(n as usize),
            Register::Ur(n) => self.ur.get(n as usize),
            Register::Pred(n) | Register::UPred(n) => self.pred.get(n as usize),
            Register::Rz | Register::Urz | Register::Pt => None,
        }
    }

    fn cell_mut(&mut self, reg: Register) -> Option<&mut Cell> {
        match reg {
            Register::Gpr(n) => self.gpr.get_mut(n as usize),
            Register::Ur(n) => self.ur.get_mut(n as usize),
            Register::Pred(n) | Register::UPred(n) => self.pred.get_mut(n as usize),
            Register::Rz | Register::Urz | Register::Pt => None,
        }
    }

    /// Reads `reg` at `cycle`, honouring readiness: if the latest write has
    /// not completed yet the *stale* (previous) value is returned and a
    /// hazard is recorded.
    ///
    /// `RZ`/`URZ` read as zero and `PT` reads as one.
    pub fn read(&mut self, reg: Register, cycle: u64) -> u64 {
        match reg {
            Register::Rz | Register::Urz => return 0,
            Register::Pt => return 1,
            _ => {}
        }
        let Some(cell) = self.cell(reg) else { return 0 };
        if cycle < cell.ready_at {
            let event = StaleRead {
                register: reg,
                cycle,
                ready_at: cell.ready_at,
            };
            let stale = cell.stale;
            self.hazards.push(event);
            stale
        } else {
            cell.value
        }
    }

    /// Reads a register without any hazard bookkeeping (used by the in-order
    /// reference executor, which by construction never reads early).
    #[must_use]
    pub fn peek(&self, reg: Register) -> u64 {
        match reg {
            Register::Rz | Register::Urz => 0,
            Register::Pt => 1,
            _ => self.cell(reg).map_or(0, |c| c.value),
        }
    }

    /// Writes `value` to `reg`; the value becomes visible at `ready_at`.
    /// Writes to `RZ`/`URZ`/`PT` are discarded.
    pub fn write(&mut self, reg: Register, value: u64, ready_at: u64) {
        if let Some(cell) = self.cell_mut(reg) {
            cell.stale = cell.value;
            cell.value = value;
            cell.ready_at = ready_at;
        }
    }

    /// The cycle at which the most recent write to `reg` becomes visible.
    #[must_use]
    pub fn ready_at(&self, reg: Register) -> u64 {
        self.cell(reg).map_or(0, |c| c.ready_at)
    }

    /// Stale-read hazards recorded so far.
    #[must_use]
    pub fn hazards(&self) -> &[StaleRead] {
        &self.hazards
    }

    /// Number of stale-read hazards recorded so far.
    #[must_use]
    pub fn hazard_count(&self) -> usize {
        self.hazards.len()
    }

    /// Allocation-reusing copy of `other` into `self` (the register tables
    /// are fixed-size, so this is three `memcpy`s plus the hazard list).
    pub(crate) fn assign_from(&mut self, other: &RegisterFile) {
        self.gpr.clone_from(&other.gpr);
        self.ur.clone_from(&other.ur);
        self.pred.clone_from(&other.pred);
        self.hazards.clone_from(&other.hazards);
    }

    /// True when every future read (at cycles `>= cycle`) of `self` returns
    /// exactly what the same read of `other` would. The hazard *list* is a
    /// monotone tally and is deliberately not compared (see
    /// [`Cell::equivalent_at`] for the per-register rule).
    pub(crate) fn equivalent_at(&self, other: &RegisterFile, cycle: u64) -> bool {
        let files_eq = |a: &[Cell], b: &[Cell]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.equivalent_at(*y, cycle))
        };
        files_eq(&self.gpr, &other.gpr)
            && files_eq(&self.ur, &other.ur)
            && files_eq(&self.pred, &other.pred)
    }
}

/// The operand-reuse cache of one warp scheduler slot.
///
/// NVIDIA register files are banked; an instruction whose source operands
/// collide on a bank pays extra issue cycles unless the colliding operand
/// was kept in the operand-reuse cache by the *previous* instruction of the
/// same warp (the `.reuse` flag). Crucially, the cached operand is lost when
/// the scheduler switches warps in between — this is the interaction the
/// paper's Figure 9 optimization exploits.
///
/// The bank count, the per-conflict penalty and whether the reuse cache
/// exists at all are architecture parameters ([`BankModel`]).
#[derive(Debug, Clone, Default)]
pub struct ReuseCache {
    /// One slot per register bank: the register currently held, if any.
    slots: Vec<Option<Register>>,
    /// The warp that issued most recently on this scheduler.
    last_warp: Option<usize>,
    /// Extra issue cycles charged per conflicting operand.
    conflict_penalty: u64,
    /// When false, `.reuse` hints have no timing effect.
    reuse_enabled: bool,
}

impl ReuseCache {
    /// Creates a reuse cache with one slot per register bank under the
    /// Ampere policy (one-cycle conflict penalty, reuse cache enabled).
    /// Prefer [`ReuseCache::for_model`] with the architecture's
    /// [`BankModel`] so the selected backend's policy is honoured.
    #[must_use]
    pub fn new(banks: usize) -> Self {
        ReuseCache::for_model(&BankModel {
            banks,
            conflict_penalty: 1,
            reuse_cache: true,
        })
    }

    /// Creates a reuse cache following an architecture's [`BankModel`].
    #[must_use]
    pub fn for_model(model: &BankModel) -> Self {
        ReuseCache {
            slots: vec![None; model.banks.max(1)],
            last_warp: None,
            conflict_penalty: model.conflict_penalty,
            reuse_enabled: model.reuse_cache,
        }
    }

    /// Computes the extra issue cycles due to register-bank conflicts for an
    /// instruction of `warp` reading `sources`, where `reuse_flagged` lists
    /// the sources carrying the `.reuse` hint. Updates the cache state.
    ///
    /// Returns the number of conflict cycles (0 or more): the conflict count
    /// scaled by the architecture's per-conflict penalty.
    pub fn issue(&mut self, warp: usize, sources: &[Register], reuse_flagged: &[Register]) -> u64 {
        let banks = self.slots.len();
        self.issue_banked(
            warp,
            &banked_operands(sources.iter().copied(), banks, true),
            &banked_operands(reuse_flagged.iter().copied(), banks, false),
        )
    }

    /// [`ReuseCache::issue`] over operand lists prepared once by
    /// [`banked_operands`] for this cache's bank count: `sources` distinct,
    /// `reuse_flagged` in operand order. Runs once per issued instruction
    /// and does not allocate.
    pub(crate) fn issue_banked(
        &mut self,
        warp: usize,
        sources: &[(Register, usize)],
        reuse_flagged: &[(Register, usize)],
    ) -> u64 {
        // A warp switch invalidates the operand cache.
        let same_warp = self.last_warp == Some(warp);
        // Count bank conflicts among the distinct general-purpose sources,
        // forgiving collisions satisfied by the reuse cache.
        const SCRATCH: usize = 16;
        let mut seen_banks = [0usize; SCRATCH];
        let mut seen_count = 0usize;
        let mut conflicts = 0u64;
        for &(reg, bank) in sources {
            let cached = same_warp && self.slots[bank] == Some(reg);
            if seen_banks[..seen_count].contains(&bank) && !cached {
                conflicts += 1;
            } else if seen_count < SCRATCH {
                seen_banks[seen_count] = bank;
                seen_count += 1;
            }
        }
        // Populate the cache with the operands flagged `.reuse` for the next
        // instruction of this warp (on architectures that have the cache).
        for slot in &mut self.slots {
            *slot = None;
        }
        if self.reuse_enabled {
            for &(reg, bank) in reuse_flagged {
                self.slots[bank] = Some(reg);
            }
        }
        self.last_warp = Some(warp);
        conflicts * self.conflict_penalty
    }

    /// True when `self` and `other` (built for the same [`BankModel`]) will
    /// charge identical conflicts to every future issue: same cached
    /// operands and same last-issuing warp.
    pub(crate) fn state_eq(&self, other: &ReuseCache) -> bool {
        self.slots == other.slots && self.last_warp == other.last_warp
    }

    /// Allocation-reusing copy of `other` into `self`.
    pub(crate) fn assign_from(&mut self, other: &ReuseCache) {
        self.slots.clone_from(&other.slots);
        self.last_warp = other.last_warp;
        self.conflict_penalty = other.conflict_penalty;
        self.reuse_enabled = other.reuse_enabled;
    }
}

/// Pairs every general-purpose register of `regs` with its bank index in a
/// `banks`-bank register file (`Rn` lives in bank `n % banks`), in order;
/// `distinct` keeps only the first occurrence of each register. This is the
/// per-instruction operand preparation of [`ReuseCache::issue`], done once
/// at lowering for the compiled path.
pub(crate) fn banked_operands(
    regs: impl IntoIterator<Item = Register>,
    banks: usize,
    distinct: bool,
) -> Vec<(Register, usize)> {
    let mut banked: Vec<(Register, usize)> = Vec::new();
    for reg in regs {
        if let Register::Gpr(n) = reg {
            if !(distinct && banked.iter().any(|&(seen, _)| seen == reg)) {
                banked.push((reg, n as usize % banks));
            }
        }
    }
    banked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_before_ready_returns_stale_value_and_records_hazard() {
        let mut rf = RegisterFile::new();
        rf.write(Register::Gpr(4), 111, 10);
        assert_eq!(
            rf.read(Register::Gpr(4), 5),
            0,
            "stale value is the old contents"
        );
        assert_eq!(rf.hazard_count(), 1);
        assert_eq!(rf.read(Register::Gpr(4), 10), 111);
        assert_eq!(rf.hazard_count(), 1);
    }

    #[test]
    fn zero_registers_read_constant_values() {
        let mut rf = RegisterFile::new();
        rf.write(Register::Rz, 99, 0);
        assert_eq!(rf.read(Register::Rz, 100), 0);
        assert_eq!(rf.read(Register::Pt, 100), 1);
        assert_eq!(rf.hazard_count(), 0);
    }

    #[test]
    fn predicates_and_uniform_registers_are_separate_files() {
        let mut rf = RegisterFile::new();
        rf.write(Register::Pred(2), 1, 0);
        rf.write(Register::Ur(2), 77, 0);
        rf.write(Register::Gpr(2), 55, 0);
        assert_eq!(rf.peek(Register::Pred(2)), 1);
        assert_eq!(rf.peek(Register::Ur(2)), 77);
        assert_eq!(rf.peek(Register::Gpr(2)), 55);
    }

    #[test]
    fn bank_conflict_costs_a_cycle() {
        let mut cache = ReuseCache::new(4);
        // R4 and R8 are both in bank 0 of a 4-bank file.
        let conflicts = cache.issue(0, &[Register::Gpr(4), Register::Gpr(8)], &[]);
        assert_eq!(conflicts, 1);
        // Distinct banks: no conflict.
        let conflicts = cache.issue(0, &[Register::Gpr(4), Register::Gpr(5)], &[]);
        assert_eq!(conflicts, 0);
    }

    #[test]
    fn reuse_hint_removes_conflict_when_same_warp_issues_back_to_back() {
        let mut cache = ReuseCache::new(4);
        // First instruction caches R4 (bank 0) for reuse.
        let _ = cache.issue(
            0,
            &[Register::Gpr(4), Register::Gpr(5)],
            &[Register::Gpr(4)],
        );
        // Next instruction of the same warp reads R4 and R8 (both bank 0):
        // the cached copy of R4 absorbs the conflict.
        let conflicts = cache.issue(0, &[Register::Gpr(8), Register::Gpr(4)], &[]);
        assert_eq!(conflicts, 0);
    }

    #[test]
    fn warp_switch_invalidates_reuse_cache() {
        let mut cache = ReuseCache::new(4);
        let _ = cache.issue(
            0,
            &[Register::Gpr(4), Register::Gpr(5)],
            &[Register::Gpr(4)],
        );
        // Another warp issues in between.
        let _ = cache.issue(1, &[Register::Gpr(12)], &[]);
        // Back to warp 0: the cached R4 is gone, so the conflict is paid.
        let conflicts = cache.issue(0, &[Register::Gpr(8), Register::Gpr(4)], &[]);
        assert_eq!(conflicts, 1);
    }

    #[test]
    fn bank_model_controls_penalty_and_reuse_policy() {
        let model = BankModel {
            banks: 4,
            conflict_penalty: 2,
            reuse_cache: false,
        };
        let mut cache = ReuseCache::for_model(&model);
        // Conflicts cost the architecture's penalty, not a fixed cycle.
        let conflicts = cache.issue(
            0,
            &[Register::Gpr(4), Register::Gpr(8)],
            &[Register::Gpr(4)],
        );
        assert_eq!(conflicts, 2);
        // With the reuse cache disabled the `.reuse` hint above is inert, so
        // the same-warp collision is paid again.
        let conflicts = cache.issue(0, &[Register::Gpr(8), Register::Gpr(4)], &[]);
        assert_eq!(conflicts, 2);
        // The Ampere-policy constructor matches `new`.
        let mut ampere = ReuseCache::for_model(&BankModel {
            banks: 4,
            conflict_penalty: 1,
            reuse_cache: true,
        });
        let conflicts = ampere.issue(0, &[Register::Gpr(4), Register::Gpr(8)], &[]);
        assert_eq!(conflicts, 1);
    }

    #[test]
    fn operands_prepared_at_lowering_charge_what_the_per_issue_path_does() {
        // Repeats, RZ, a predicate, colliding banks and two `.reuse` hints on
        // one bank (the later one wins the slot): the operand lists a
        // `CompiledInst` carries must drive the cache exactly like the raw
        // register lists the reference interpreter passes per issue.
        let gpr = Register::Gpr;
        let issues: [(usize, Vec<Register>, Vec<Register>); 4] = [
            (
                0,
                vec![gpr(4), gpr(8), gpr(4), Register::Rz],
                vec![gpr(4), gpr(8), gpr(4)],
            ),
            (
                0,
                vec![gpr(8), gpr(4), gpr(12), Register::Pred(1)],
                vec![gpr(12)],
            ),
            (1, vec![gpr(12), gpr(16), gpr(5)], vec![]),
            (1, vec![gpr(5), gpr(9), gpr(13), gpr(9)], vec![gpr(9)]),
        ];
        for banks in [2usize, 4, 8] {
            let mut raw = ReuseCache::new(banks);
            let mut lowered = ReuseCache::new(banks);
            for (warp, sources, reuse) in &issues {
                let banked_sources = banked_operands(sources.iter().copied(), banks, true);
                let banked_reuse = banked_operands(reuse.iter().copied(), banks, false);
                assert_eq!(
                    raw.issue(*warp, sources, reuse),
                    lowered.issue_banked(*warp, &banked_sources, &banked_reuse)
                );
                assert!(raw.state_eq(&lowered));
            }
        }
        assert_eq!(
            banked_operands([gpr(4), gpr(9), gpr(4), Register::Rz], 4, true),
            [(gpr(4), 0), (gpr(9), 1)]
        );
    }

    #[test]
    fn duplicate_source_registers_do_not_conflict_with_themselves() {
        let mut cache = ReuseCache::new(4);
        let conflicts = cache.issue(0, &[Register::Gpr(4), Register::Gpr(4)], &[]);
        assert_eq!(conflicts, 0);
    }
}
