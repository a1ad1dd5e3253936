//! The action space and dependence-preserving action masking (§3.5).
//!
//! An action selects one (movable) memory instruction and a direction: swap
//! it with the instruction directly above or below. Before an action is
//! offered to the agent it is checked against:
//!
//! * **register dependences** — the swap may not cross a def-use pair,
//! * **barrier dependences** — a waiter may not move above the setter of a
//!   barrier it waits on (and vice versa for downward moves),
//! * **stall-count dependences** — Algorithm 1 of the paper: after the swap,
//!   every consumer of a fixed-latency producer must still accumulate at
//!   least the producer's minimum stall count,
//! * **additional heuristic rules** — no moves across labels or
//!   barrier/synchronisation instructions, denylisted instructions never
//!   move, and two `LDGSTS` of the same ascending group never reorder.

use sass::{Instruction, Program};
use serde::{Deserialize, Serialize};

use crate::analysis::Analysis;
use crate::stall_table::StallTable;

/// The direction of a reordering action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Swap the selected instruction with the one above it.
    Up,
    /// Swap the selected instruction with the one below it.
    Down,
}

/// One family of schedule transforms the agent can request on a movable
/// slot. The swap kinds reproduce the paper's action space; the remaining
/// kinds are the richer transforms of [`ActionSpace::Rich`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EditKind {
    /// Swap the selected instruction with the one above it.
    #[default]
    SwapUp,
    /// Swap the selected instruction with the one below it.
    SwapDown,
    /// Move the selected instruction two positions up (a block move).
    MoveUp,
    /// Move the selected instruction two positions down (a block move).
    MoveDown,
    /// Toggle the `.reuse` operand-cache hint on the first eligible source
    /// register operand.
    ToggleReuse,
    /// Increase the issue-stall count by one cycle.
    StallInc,
    /// Decrease the issue-stall count by one cycle.
    StallDec,
    /// Add a wait on one more scoreboard barrier that some instruction sets.
    WaitWiden,
    /// Drop a provably redundant scoreboard wait (an earlier instruction in
    /// the same block already waited on the barrier and nothing re-armed it).
    WaitTighten,
}

/// Which edit families the flat action space offers per movable slot.
///
/// A space selects only the per-slot kind table and, through it, the flat id
/// layout `slot * kinds_per_slot() + k`; resolution, application and
/// incremental refresh are the same code for both. The default is the
/// paper's: two actions per slot (swap up / swap down). [`ActionSpace::Rich`]
/// widens each slot to the full [`EditKind`] table with the swap kinds in the
/// first two positions. The two layouts stay distinct because
/// [`ActionSpace::action_count`] is the policy-head width stored in every
/// checkpoint, and the ids are what seeded searches draw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActionSpace {
    /// Adjacent pairwise reorders only (the paper's §3.4 action space).
    #[default]
    AdjacentSwap,
    /// The full typed [`ScheduleEdit`] set: swaps, distance-2 block moves,
    /// reuse-flag toggles, stall retuning and barrier wait widening /
    /// tightening.
    Rich,
}

impl ActionSpace {
    const SWAP_KINDS: [EditKind; 2] = [EditKind::SwapUp, EditKind::SwapDown];
    const RICH_KINDS: [EditKind; 9] = [
        EditKind::SwapUp,
        EditKind::SwapDown,
        EditKind::MoveUp,
        EditKind::MoveDown,
        EditKind::ToggleReuse,
        EditKind::StallInc,
        EditKind::StallDec,
        EditKind::WaitWiden,
        EditKind::WaitTighten,
    ];

    /// The edit kinds offered per movable slot, in flat-id order.
    #[must_use]
    pub fn kinds(self) -> &'static [EditKind] {
        match self {
            ActionSpace::AdjacentSwap => &Self::SWAP_KINDS,
            ActionSpace::Rich => &Self::RICH_KINDS,
        }
    }

    /// Number of actions per movable slot.
    #[must_use]
    pub fn kinds_per_slot(self) -> usize {
        self.kinds().len()
    }

    /// Size of the flat action space over `slots` movable instructions
    /// (always at least 1 so policy heads stay well-formed).
    #[must_use]
    pub fn action_count(self, slots: usize) -> usize {
        (slots * self.kinds_per_slot()).max(1)
    }

    /// Decodes a flat action id into `(slot, kind)`.
    #[must_use]
    pub fn decode(self, id: usize) -> (usize, EditKind) {
        let kinds = self.kinds();
        (id / kinds.len(), kinds[id % kinds.len()])
    }

    /// Encodes `(slot, kind)` as a flat id; `None` when this space does not
    /// offer the kind.
    #[must_use]
    pub fn encode(self, slot: usize, kind: EditKind) -> Option<usize> {
        let kinds = self.kinds();
        kinds
            .iter()
            .position(|&k| k == kind)
            .map(|pos| slot * kinds.len() + pos)
    }
}

/// A fully-resolved, legality-checked schedule transform.
///
/// Where a flat action id names a *request* (slot + kind, see
/// [`ActionSpace::decode`]), a `ScheduleEdit` names the concrete mutation
/// the mask resolved it to: absolute instruction indices, the operand
/// carrying the reuse flag, the exact stall transition or the barrier bit
/// being flipped. Every variant is invertible in O(1)
/// ([`ScheduleEdit::inverse`]), which is how the game reverts a transform the
/// simulator rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleEdit {
    /// Swap adjacent instructions `upper` and `upper + 1`.
    Swap {
        /// Index of the upper instruction of the pair.
        upper: usize,
    },
    /// Move the instruction at `index` by `distance` positions as a sequence
    /// of adjacent swaps (each stepwise mask-legal).
    BlockMove {
        /// Pre-move index of the instruction being moved.
        index: usize,
        /// Move direction.
        direction: Direction,
        /// Number of positions moved (currently always 2).
        distance: usize,
    },
    /// Toggle the `.reuse` hint on one operand of the instruction at `index`.
    ToggleReuse {
        /// Instruction index.
        index: usize,
        /// Operand position carrying the flag.
        operand: usize,
    },
    /// Retune the issue-stall count of the instruction at `index`.
    SetStall {
        /// Instruction index.
        index: usize,
        /// Stall count before the edit.
        from: u8,
        /// Stall count after the edit.
        to: u8,
    },
    /// Add (`on`) or remove (`!on`) a scoreboard-barrier wait on the
    /// instruction at `index`.
    SetWait {
        /// Instruction index.
        index: usize,
        /// Barrier number (`0..NUM_BARRIERS`).
        barrier: u8,
        /// True to add the wait, false to drop it.
        on: bool,
    },
}

impl ScheduleEdit {
    /// The primary instruction index the edit targets (its pre-edit
    /// position).
    #[must_use]
    pub fn index(&self) -> usize {
        match *self {
            ScheduleEdit::Swap { upper } => upper,
            ScheduleEdit::BlockMove { index, .. }
            | ScheduleEdit::ToggleReuse { index, .. }
            | ScheduleEdit::SetStall { index, .. }
            | ScheduleEdit::SetWait { index, .. } => index,
        }
    }

    /// Every instruction index whose content (or position) differs after the
    /// edit: the observation rows the game re-embeds, and exactly the
    /// `changed` set [`gpusim::DeltaEngine::simulate_delta`] takes.
    #[must_use]
    pub fn touched_indices(&self) -> Vec<usize> {
        match *self {
            ScheduleEdit::Swap { upper } => vec![upper, upper + 1],
            ScheduleEdit::BlockMove {
                index,
                direction,
                distance,
            } => match direction {
                Direction::Up => {
                    if index < distance {
                        return Vec::new();
                    }
                    ((index - distance)..=index).collect()
                }
                Direction::Down => (index..=(index + distance)).collect(),
            },
            ScheduleEdit::ToggleReuse { index, .. }
            | ScheduleEdit::SetStall { index, .. }
            | ScheduleEdit::SetWait { index, .. } => vec![index],
        }
    }

    /// The adjacent-swap sequence realising a positional edit (`upper`
    /// indices, in application order); empty for in-place content edits and
    /// for malformed moves that would run off the program start.
    #[must_use]
    pub fn swap_sequence(&self) -> Vec<usize> {
        self.swap_uppers().collect()
    }

    /// [`ScheduleEdit::swap_sequence`] without collecting it: the game's
    /// step applies a swap without allocating.
    pub(crate) fn swap_uppers(&self) -> impl ExactSizeIterator<Item = usize> + Clone {
        let (start, count, up) = match *self {
            ScheduleEdit::Swap { upper } => (upper, 1, false),
            ScheduleEdit::BlockMove {
                index,
                direction: Direction::Up,
                distance,
            } if index >= distance => (index, distance, true),
            ScheduleEdit::BlockMove {
                index,
                direction: Direction::Down,
                distance,
            } => (index, distance, false),
            _ => (0, 0, false),
        };
        (0..count).map(move |k| if up { start - 1 - k } else { start + k })
    }

    /// The edit that exactly undoes this one when applied to the post-edit
    /// schedule.
    #[must_use]
    pub fn inverse(&self) -> ScheduleEdit {
        match *self {
            ScheduleEdit::Swap { upper } => ScheduleEdit::Swap { upper },
            ScheduleEdit::BlockMove {
                index,
                direction,
                distance,
            } => match direction {
                Direction::Up => ScheduleEdit::BlockMove {
                    index: index.saturating_sub(distance),
                    direction: Direction::Down,
                    distance,
                },
                Direction::Down => ScheduleEdit::BlockMove {
                    index: index + distance,
                    direction: Direction::Up,
                    distance,
                },
            },
            ScheduleEdit::ToggleReuse { index, operand } => {
                ScheduleEdit::ToggleReuse { index, operand }
            }
            ScheduleEdit::SetStall { index, from, to } => ScheduleEdit::SetStall {
                index,
                from: to,
                to: from,
            },
            ScheduleEdit::SetWait { index, barrier, on } => ScheduleEdit::SetWait {
                index,
                barrier,
                on: !on,
            },
        }
    }

    /// Maps a post-edit instruction position to the pre-edit position of the
    /// instruction now occupying it (identity for content edits).
    #[must_use]
    pub fn old_position_of(&self, new: usize) -> usize {
        match *self {
            ScheduleEdit::Swap { upper } => {
                if new == upper {
                    upper + 1
                } else if new == upper + 1 {
                    upper
                } else {
                    new
                }
            }
            ScheduleEdit::BlockMove {
                index,
                direction,
                distance,
            } => match direction {
                // [a .. b m] rotated right by one: the moved instruction m
                // lands at index - distance, everything it passed shifts
                // down one position.
                Direction::Up => {
                    if index < distance {
                        new
                    } else if new == index - distance {
                        index
                    } else if new > index - distance && new <= index {
                        new - 1
                    } else {
                        new
                    }
                }
                // [m a .. b] rotated left by one.
                Direction::Down => {
                    if new == index + distance {
                        index
                    } else if new >= index && new < index + distance {
                        new + 1
                    } else {
                        new
                    }
                }
            },
            _ => new,
        }
    }

    /// Applies the edit to a source program. Returns false (program
    /// unchanged) when any index is out of range or the target operand
    /// cannot carry the flag.
    pub fn apply(&self, program: &mut Program) -> bool {
        match *self {
            ScheduleEdit::Swap { .. } | ScheduleEdit::BlockMove { .. } => {
                let swaps = self.swap_uppers();
                let count = program.instruction_count();
                if swaps.len() == 0 || swaps.clone().any(|u| u + 1 >= count) {
                    return false;
                }
                for upper in swaps {
                    if program.swap_instructions(upper, upper + 1).is_err() {
                        return false;
                    }
                }
                true
            }
            ScheduleEdit::ToggleReuse { index, operand } => {
                let Some(inst) = program.instruction_mut(index) else {
                    return false;
                };
                let reuse = inst
                    .operands()
                    .get(operand)
                    .is_some_and(sass::Operand::has_reuse);
                inst.set_operand_reuse(operand, !reuse)
            }
            ScheduleEdit::SetStall { index, to, .. } => {
                if to > 15 {
                    return false;
                }
                let Some(inst) = program.instruction_mut(index) else {
                    return false;
                };
                inst.control_mut().set_stall(to);
                true
            }
            ScheduleEdit::SetWait { index, barrier, on } => {
                if barrier >= sass::NUM_BARRIERS {
                    return false;
                }
                let Some(inst) = program.instruction_mut(index) else {
                    return false;
                };
                inst.control_mut().set_wait(barrier, on);
                true
            }
        }
    }

    /// Mirrors the edit onto the lowered form in O(edit): swaps transpose
    /// compiled slots, content edits re-lower the one touched instruction
    /// from `program_after` (the source program *with the edit already
    /// applied*).
    pub fn apply_to_compiled(
        &self,
        compiled: &mut gpusim::CompiledProgram,
        program_after: &Program,
        gpu: &gpusim::GpuConfig,
    ) {
        match *self {
            ScheduleEdit::Swap { .. } | ScheduleEdit::BlockMove { .. } => {
                for upper in self.swap_uppers() {
                    compiled.swap_insts(upper, upper + 1);
                }
            }
            ScheduleEdit::ToggleReuse { index, .. }
            | ScheduleEdit::SetStall { index, .. }
            | ScheduleEdit::SetWait { index, .. } => {
                if let Some(inst) = program_after.instruction(index) {
                    compiled.replace_inst(index, inst, gpu);
                }
            }
        }
    }
}

/// Per-instruction facts the legality checks read, decoded once per mask
/// computation instead of once per (candidate action x consumer x producer)
/// visit.
///
/// The masking rules are pure functions of the current schedule; this
/// context only changes *where* the decoding happens (hoisted out of the
/// inner loops), never *what* is checked, so the produced mask is identical
/// to checking each candidate against the raw `sass` structures. Swapped
/// candidate orders are evaluated through an index remap rather than by
/// deep-cloning the program per candidate.
#[derive(Debug, Clone)]
struct MaskContext {
    defs: Vec<Vec<sass::Register>>,
    uses: Vec<Vec<sass::Register>>,
    /// Issue stall of each instruction (`max(1)` applied).
    stall: Vec<u64>,
    /// Raw encoded stall of each instruction (no `max(1)` floor) — the value
    /// stall-retune edits read and write.
    raw_stall: Vec<u8>,
    /// Minimum required stall for fixed-latency producers (table, then
    /// inferred entries, then the conservative default of 4).
    required: Vec<Option<u64>>,
    fence: Vec<bool>,
    /// Barriers set by each instruction (read then write slot).
    sets: Vec<[Option<u8>; 2]>,
    wait_mask: Vec<u8>,
    /// The operand position reuse-toggle edits target: the first
    /// source-position plain-GPR register operand. Chosen by operand kind
    /// and position only, so it is invariant under every [`ScheduleEdit`]
    /// (toggles flip a flag, never reshape operands).
    reuse_target: Vec<Option<usize>>,
    /// Union of all barriers any instruction sets — the candidate pool for
    /// wait-widening. Edits never reassign read/write barriers, so this
    /// never changes incrementally.
    set_barriers: u8,
    /// Shared-memory base register of `LDGSTS` instructions (ascending-group
    /// rule).
    ldgsts_base: Vec<Option<sass::Register>>,
    blocks: Vec<sass::BasicBlock>,
}

/// The operand position a reuse-toggle on `inst` targets: the first
/// source-position operand that is a plain GPR register, or failing that a
/// memory reference whose base address register is one (predicates,
/// immediates, descriptors and specials cannot usefully carry the
/// operand-cache hint). The choice depends only on operand kinds, never on
/// the current flag value, so toggling never moves the target.
fn reuse_target_of(inst: &Instruction) -> Option<usize> {
    let dests = inst.dest_operand_count();
    let sources = || inst.operands().iter().enumerate().skip(dests);
    sources()
        .find_map(|(i, op)| match op {
            sass::Operand::Reg(r) if matches!(r.reg, sass::Register::Gpr(_)) => Some(i),
            _ => None,
        })
        .or_else(|| {
            sources().find_map(|(i, op)| match op {
                sass::Operand::Mem(m)
                    if m.base
                        .is_some_and(|b| matches!(b.reg, sass::Register::Gpr(_))) =>
                {
                    Some(i)
                }
                _ => None,
            })
        })
}

impl MaskContext {
    fn new(program: &Program, analysis: &Analysis, stalls: &StallTable) -> Self {
        let instructions = program.instructions();
        let n = instructions.len();
        let mut ctx = MaskContext {
            defs: Vec::with_capacity(n),
            uses: Vec::with_capacity(n),
            stall: Vec::with_capacity(n),
            raw_stall: Vec::with_capacity(n),
            required: Vec::with_capacity(n),
            fence: Vec::with_capacity(n),
            sets: Vec::with_capacity(n),
            wait_mask: Vec::with_capacity(n),
            reuse_target: Vec::with_capacity(n),
            set_barriers: 0,
            ldgsts_base: Vec::with_capacity(n),
            blocks: program.basic_blocks(),
        };
        for inst in instructions {
            ctx.defs.push(inst.defs());
            ctx.uses.push(inst.uses());
            ctx.stall.push(u64::from(inst.control().stall()).max(1));
            ctx.raw_stall.push(inst.control().stall());
            ctx.reuse_target.push(reuse_target_of(inst));
            for barrier in [
                inst.control().read_barrier(),
                inst.control().write_barrier(),
            ]
            .into_iter()
            .flatten()
            {
                ctx.set_barriers |= 1 << barrier;
            }
            let required =
                (inst.opcode().latency_class() == sass::LatencyClass::Fixed).then(|| {
                    let name = inst.opcode().full_name();
                    u64::from(
                        stalls
                            .lookup(&name)
                            .or_else(|| analysis.stalls.lookup(&name))
                            .unwrap_or(4),
                    )
                });
            ctx.required.push(required);
            ctx.fence.push(inst.opcode().is_scheduling_fence());
            ctx.sets.push([
                inst.control().read_barrier(),
                inst.control().write_barrier(),
            ]);
            ctx.wait_mask.push(inst.control().wait_mask());
            ctx.ldgsts_base.push(
                (*inst.opcode().base() == sass::Mnemonic::Ldgsts)
                    .then(|| {
                        inst.operands()
                            .iter()
                            .find_map(sass::Operand::as_mem)
                            .and_then(|m| m.base.map(|r| r.reg))
                    })
                    .flatten(),
            );
        }
        ctx
    }

    fn len(&self) -> usize {
        self.defs.len()
    }

    /// Checks whether swapping adjacent instructions `upper_idx` and
    /// `upper_idx + 1` preserves every dependence.
    fn swap_is_legal(&self, upper_idx: usize) -> bool {
        let lower_idx = upper_idx + 1;
        if lower_idx >= self.len() {
            return false;
        }
        // Never move across (or move) scheduling fences.
        if self.fence[upper_idx] || self.fence[lower_idx] {
            return false;
        }
        // Both instructions must be in the same basic block (no label
        // between them — guaranteed by adjacency and the fence check above,
        // but labels sit between items, so verify through block membership).
        let Some(block) = self.blocks.iter().find(|b| b.contains(upper_idx)).copied() else {
            return false;
        };
        if !block.contains(lower_idx) {
            return false;
        }
        // Register dependences (RAW, WAR, WAW).
        let upper_defs = &self.defs[upper_idx];
        let upper_uses = &self.uses[upper_idx];
        let lower_defs = &self.defs[lower_idx];
        let lower_uses = &self.uses[lower_idx];
        if lower_uses.iter().any(|r| upper_defs.contains(r))
            || lower_defs.iter().any(|r| upper_uses.contains(r))
            || lower_defs.iter().any(|r| upper_defs.contains(r))
        {
            return false;
        }
        // Barrier dependences: the lower instruction may not wait on a
        // barrier set by the upper one (it would move above its setter), and
        // symmetrically after the swap the waiter would precede the setter.
        let waits_on = |idx: usize, barrier: u8| self.wait_mask[idx] & (1 << barrier) != 0;
        if self.sets[upper_idx]
            .iter()
            .flatten()
            .any(|&b| waits_on(lower_idx, b))
        {
            return false;
        }
        if self.sets[lower_idx]
            .iter()
            .flatten()
            .any(|&b| waits_on(upper_idx, b))
        {
            return false;
        }
        // Heuristic rule: never reorder two LDGSTS of the same ascending
        // group.
        if let (Some(a), Some(b)) = (self.ldgsts_base[upper_idx], self.ldgsts_base[lower_idx]) {
            if a == b {
                return false;
            }
        }
        // Stall-count dependences (Algorithm 1), evaluated on the
        // hypothetical post-swap schedule for every consumer in the block at
        // or below the swap point. The swap is applied as an index remap.
        self.stall_counts_satisfied(block.start, block.end, upper_idx)
    }

    /// Verifies that every fixed-latency def-use pair whose distance may
    /// have been affected by a swap at `swap_at` still accumulates enough
    /// stall cycles (Algorithm 1 of the paper, applied to the affected
    /// window).
    fn stall_counts_satisfied(&self, block_start: usize, block_end: usize, swap_at: usize) -> bool {
        // The hypothetical schedule: positions swap_at and swap_at + 1 hold
        // each other's instructions.
        let map = |i: usize| {
            if i == swap_at {
                swap_at + 1
            } else if i == swap_at + 1 {
                swap_at
            } else {
                i
            }
        };
        for consumer_idx in swap_at..block_end {
            let consumer = map(consumer_idx);
            for reg in &self.uses[consumer] {
                let mut accumulated: u64 = 0;
                for producer_idx in (block_start..consumer_idx).rev() {
                    let producer = map(producer_idx);
                    accumulated += self.stall[producer];
                    if self.defs[producer].contains(reg) {
                        if let Some(required) = self.required[producer] {
                            if accumulated < required {
                                return false;
                            }
                        }
                        break;
                    }
                }
            }
        }
        true
    }

    /// The basic block containing `index`, if any.
    fn block_of(&self, index: usize) -> Option<sass::BasicBlock> {
        self.blocks.iter().find(|b| b.contains(index)).copied()
    }

    /// Transposes the per-index context entries of `upper` and `upper + 1`.
    fn swap_entries(&mut self, upper: usize) {
        let lower = upper + 1;
        if lower >= self.len() {
            return;
        }
        self.defs.swap(upper, lower);
        self.uses.swap(upper, lower);
        self.stall.swap(upper, lower);
        self.raw_stall.swap(upper, lower);
        self.required.swap(upper, lower);
        self.fence.swap(upper, lower);
        self.sets.swap(upper, lower);
        self.wait_mask.swap(upper, lower);
        self.reuse_target.swap(upper, lower);
        self.ldgsts_base.swap(upper, lower);
    }

    /// Checks that retuning the stall of `index` to `new_stall` keeps every
    /// fixed-latency def-use distance satisfied. Two rules:
    ///
    /// 1. every in-block consumer below `index` still accumulates its
    ///    producer's required stall (the same walk as Algorithm 1, with the
    ///    retuned value substituted), and
    /// 2. every fixed-latency producer at or above `index` still fully
    ///    retires before control can leave the block — consumers in other
    ///    blocks (fall-through successors, loop back-edges) are invisible to
    ///    the walk above, so the accumulated stall from each such producer
    ///    to the block end must cover its latency on its own.
    fn stall_retune_is_legal(&self, block: sass::BasicBlock, index: usize, new_stall: u64) -> bool {
        let stall_at = |i: usize| {
            if i == index {
                new_stall.max(1)
            } else {
                self.stall[i]
            }
        };
        for consumer_idx in (index + 1)..block.end {
            for reg in &self.uses[consumer_idx] {
                let mut accumulated: u64 = 0;
                for producer_idx in (block.start..consumer_idx).rev() {
                    accumulated += stall_at(producer_idx);
                    if self.defs[producer_idx].contains(reg) {
                        if let Some(required) = self.required[producer_idx] {
                            if accumulated < required {
                                return false;
                            }
                        }
                        break;
                    }
                }
            }
        }
        for producer_idx in block.start..=index {
            let Some(required) = self.required[producer_idx] else {
                continue;
            };
            if self.defs[producer_idx].is_empty() {
                continue;
            }
            let accumulated: u64 = (producer_idx..block.end).map(stall_at).sum();
            if accumulated < required {
                return false;
            }
        }
        true
    }

    /// Resolves an `(index, kind)` request into a concrete legal
    /// [`ScheduleEdit`], or `None` when the transform is illegal here. Move
    /// kinds borrow mutably: the second hop of a block move is checked on
    /// the intermediate schedule by transposing the context entries and
    /// transposing them back (an O(1) involution).
    fn resolve_edit(&mut self, kind: EditKind, index: usize) -> Option<ScheduleEdit> {
        if index >= self.len() {
            return None;
        }
        match kind {
            EditKind::SwapUp => (index > 0 && self.swap_is_legal(index - 1))
                .then(|| ScheduleEdit::Swap { upper: index - 1 }),
            EditKind::SwapDown => (index + 1 < self.len() && self.swap_is_legal(index))
                .then_some(ScheduleEdit::Swap { upper: index }),
            EditKind::MoveUp => {
                if index < 2 || !self.swap_is_legal(index - 1) {
                    return None;
                }
                self.swap_entries(index - 1);
                let legal = self.swap_is_legal(index - 2);
                self.swap_entries(index - 1);
                legal.then_some(ScheduleEdit::BlockMove {
                    index,
                    direction: Direction::Up,
                    distance: 2,
                })
            }
            EditKind::MoveDown => {
                if index + 2 >= self.len() || !self.swap_is_legal(index) {
                    return None;
                }
                self.swap_entries(index);
                let legal = self.swap_is_legal(index + 1);
                self.swap_entries(index);
                legal.then_some(ScheduleEdit::BlockMove {
                    index,
                    direction: Direction::Down,
                    distance: 2,
                })
            }
            EditKind::ToggleReuse => {
                if self.fence[index] {
                    return None;
                }
                self.reuse_target[index].map(|operand| ScheduleEdit::ToggleReuse { index, operand })
            }
            EditKind::StallInc => {
                let from = self.raw_stall[index];
                (!self.fence[index] && from < 15).then(|| ScheduleEdit::SetStall {
                    index,
                    from,
                    to: from + 1,
                })
            }
            EditKind::StallDec => {
                let from = self.raw_stall[index];
                if self.fence[index] || from <= 1 {
                    return None;
                }
                let block = self.block_of(index)?;
                self.stall_retune_is_legal(block, index, u64::from(from - 1))
                    .then(|| ScheduleEdit::SetStall {
                        index,
                        from,
                        to: from - 1,
                    })
            }
            EditKind::WaitWiden => {
                if self.fence[index] {
                    return None;
                }
                let own: u8 = self.sets[index]
                    .iter()
                    .flatten()
                    .fold(0, |mask, &b| mask | (1 << b));
                (0..sass::NUM_BARRIERS)
                    .find(|&b| {
                        let bit = 1u8 << b;
                        self.wait_mask[index] & bit == 0
                            && self.set_barriers & bit != 0
                            && own & bit == 0
                    })
                    .map(|barrier| ScheduleEdit::SetWait {
                        index,
                        barrier,
                        on: true,
                    })
            }
            EditKind::WaitTighten => {
                if self.fence[index] {
                    return None;
                }
                let block = self.block_of(index)?;
                for barrier in 0..sass::NUM_BARRIERS {
                    let bit = 1u8 << barrier;
                    if self.wait_mask[index] & bit == 0 {
                        continue;
                    }
                    // Removable only when an earlier instruction in the same
                    // straight-line block already waited on the barrier and
                    // nothing between it and `index` re-armed it: by then
                    // the scoreboard is provably drained at `index`, so the
                    // wait is a timing no-op.
                    for j in (block.start..index).rev() {
                        if self.sets[j].iter().flatten().any(|&set| set == barrier) {
                            break;
                        }
                        if self.wait_mask[j] & bit != 0 {
                            return Some(ScheduleEdit::SetWait {
                                index,
                                barrier,
                                on: false,
                            });
                        }
                    }
                }
                None
            }
        }
    }
}

/// Computes the mask over the flat [`ActionSpace::AdjacentSwap`] ids:
/// `mask[slot * 2 + dir]` is true when the corresponding swap preserves all
/// dependences, i.e. when [`schedule_edits`] resolves it.
#[must_use]
pub fn action_mask(
    program: &Program,
    movable: &[usize],
    analysis: &Analysis,
    stalls: &StallTable,
) -> Vec<bool> {
    schedule_edits(
        program,
        movable,
        analysis,
        stalls,
        ActionSpace::AdjacentSwap,
    )
    .iter()
    .map(Option::is_some)
    .collect()
}

/// A retained legality context that survives schedule mutations.
///
/// Recomputing an edit table from scratch re-decodes every instruction's
/// defs, uses, control codes and latency lookups. After a [`ScheduleEdit`],
/// though, only the touched context entries change (swaps transpose them,
/// stall and wait edits overwrite one value) and only candidates inside the
/// edit's basic block can change legality — every stall-count walk is
/// confined to one block, and cross-block candidates are rejected by block
/// membership alone. [`IncrementalMasker::apply_edit`] therefore updates
/// the per-index arrays in O(edit) and
/// [`IncrementalMasker::edits_after_edit`] re-resolves only the slots whose
/// instruction lies in the affected block, copying every other slot from
/// the previous table.
///
/// The incremental path is only valid when the edit did not change the
/// *global* inputs of the context — the (possibly schedule-inferred) stall
/// table, the denylist and the block structure. The game checks those
/// preconditions after re-analysis and falls back to a full rebuild when
/// any of them moved; `masking_properties` proptests pin incremental ≡ full
/// recompute over random legal edit sequences in both action spaces.
#[derive(Debug, Clone)]
pub struct IncrementalMasker {
    ctx: MaskContext,
}

impl IncrementalMasker {
    /// Decodes the legality context of `program`.
    #[must_use]
    pub fn new(program: &Program, analysis: &Analysis, stalls: &StallTable) -> Self {
        IncrementalMasker {
            ctx: MaskContext::new(program, analysis, stalls),
        }
    }

    /// Resolves the full edit table over `movable` for `space`:
    /// `edits[slot * K + k]` is the concrete legal [`ScheduleEdit`] for kind
    /// `space.kinds()[k]` on slot `slot`, or `None` when illegal. The action
    /// mask is exactly `edits[id].is_some()`, so legality and application
    /// can never disagree.
    pub fn full_edits(
        &mut self,
        movable: &[usize],
        analysis: &Analysis,
        space: ActionSpace,
    ) -> Vec<Option<ScheduleEdit>> {
        let kinds = space.kinds();
        let mut edits = vec![None; movable.len() * kinds.len()];
        for (slot, &index) in movable.iter().enumerate() {
            if analysis.denylist.contains(&index) {
                continue;
            }
            for (k, &kind) in kinds.iter().enumerate() {
                edits[slot * kinds.len() + k] = self.ctx.resolve_edit(kind, index);
            }
        }
        edits
    }

    /// True when `edit` keeps the context incrementally updatable: every
    /// touched index lives in one basic block and none is a scheduling
    /// fence, so the block structure cannot move. Mask-resolved edits always
    /// satisfy this; callers must rebuild when it does not hold.
    #[must_use]
    pub fn edit_stays_incremental(&self, edit: &ScheduleEdit) -> bool {
        let touched = edit.touched_indices();
        if touched.is_empty() || touched.iter().any(|&i| i >= self.ctx.len()) {
            return false;
        }
        if touched.iter().any(|&i| self.ctx.fence[i]) {
            return false;
        }
        self.ctx
            .blocks
            .iter()
            .any(|b| touched.iter().all(|&i| b.contains(i)))
    }

    /// Applies `edit` to the per-index context arrays in O(edit): swap
    /// sequences permute entries, stall and wait edits overwrite the one
    /// touched value, reuse toggles change nothing the legality rules read
    /// (the target operand choice is flag-invariant).
    pub fn apply_edit(&mut self, edit: &ScheduleEdit) {
        match *edit {
            ScheduleEdit::Swap { .. } | ScheduleEdit::BlockMove { .. } => {
                for upper in edit.swap_uppers() {
                    self.ctx.swap_entries(upper);
                }
            }
            ScheduleEdit::ToggleReuse { .. } => {}
            ScheduleEdit::SetStall { index, to, .. } => {
                if index < self.ctx.len() {
                    self.ctx.raw_stall[index] = to;
                    self.ctx.stall[index] = u64::from(to).max(1);
                }
            }
            ScheduleEdit::SetWait { index, barrier, on } => {
                if index < self.ctx.len() && barrier < sass::NUM_BARRIERS {
                    if on {
                        self.ctx.wait_mask[index] |= 1 << barrier;
                    } else {
                        self.ctx.wait_mask[index] &= !(1 << barrier);
                    }
                }
            }
        }
    }

    /// The edit table after `edit` was applied with
    /// [`IncrementalMasker::apply_edit`]: slots in the edit's basic block
    /// are re-resolved, every other slot is copied from `prev_edits`
    /// (indexed through `prev_movable`, which is sorted). All legality rules
    /// are block-local and the wait-widening candidate pool never changes,
    /// so out-of-block resolutions are unaffected — `masking_properties`
    /// pins this against the full recomputation.
    pub fn edits_after_edit(
        &mut self,
        edit: &ScheduleEdit,
        movable: &[usize],
        analysis: &Analysis,
        space: ActionSpace,
        prev_movable: &[usize],
        prev_edits: &[Option<ScheduleEdit>],
    ) -> Vec<Option<ScheduleEdit>> {
        let edit_block = self.ctx.block_of(edit.index());
        let kinds = space.kinds();
        let mut edits = vec![None; movable.len() * kinds.len()];
        for (slot, &index) in movable.iter().enumerate() {
            if analysis.denylist.contains(&index) {
                continue;
            }
            let affected = edit_block.is_none_or(|b| b.contains(index));
            if !affected {
                if let Ok(prev_slot) = prev_movable.binary_search(&index) {
                    for k in 0..kinds.len() {
                        edits[slot * kinds.len() + k] = prev_edits
                            .get(prev_slot * kinds.len() + k)
                            .copied()
                            .flatten();
                    }
                    continue;
                }
            }
            for (k, &kind) in kinds.iter().enumerate() {
                edits[slot * kinds.len() + k] = self.ctx.resolve_edit(kind, index);
            }
        }
        edits
    }
}

/// Resolves the legal-edit table over the flat `space` action ids: entry
/// `slot * K + k` holds the concrete [`ScheduleEdit`] for kind
/// `space.kinds()[k]` on `movable[slot]`, or `None` when that transform is
/// illegal in the current schedule.
#[must_use]
pub fn schedule_edits(
    program: &Program,
    movable: &[usize],
    analysis: &Analysis,
    stalls: &StallTable,
    space: ActionSpace,
) -> Vec<Option<ScheduleEdit>> {
    IncrementalMasker::new(program, analysis, stalls).full_edits(movable, analysis, space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;

    const SAMPLE: &str = "\
[B------:R-:W-:-:S04] MOV R4, 0x100 ;
[B------:R-:W-:-:S04] MOV R8, 0x200 ;
[B------:R-:W-:-:S04] IADD3 R6, R4, 0x1, RZ ;
[B------:R-:W0:-:S02] LDG.E R2, [R8] ;
[B0-----:R-:W-:-:S04] IADD3 R7, R2, 0x1, RZ ;
[B------:R-:W-:-:S02] STG.E [R4], R7 ;
[B------:R-:W-:-:S05] EXIT ;
";

    fn setup() -> (Program, Analysis, StallTable) {
        let program: Program = SAMPLE.parse().unwrap();
        let table = StallTable::builtin_a100();
        let analysis = analyze(&program, &table);
        (program, analysis, table)
    }

    #[test]
    fn rich_action_encoding_round_trips_and_aligns_with_swap_ids() {
        for space in [ActionSpace::AdjacentSwap, ActionSpace::Rich] {
            for slot in 0..7 {
                for &kind in space.kinds() {
                    let id = space.encode(slot, kind).expect("kind is in the space");
                    assert_eq!(space.decode(id), (slot, kind));
                }
            }
        }
        // The two swap kinds come first in the rich layout, so per-slot
        // swap ids keep their relative order across spaces.
        for slot in 0..7 {
            for (swap_offset, kind) in [EditKind::SwapUp, EditKind::SwapDown]
                .into_iter()
                .enumerate()
            {
                assert_eq!(
                    ActionSpace::AdjacentSwap.decode(slot * 2 + swap_offset),
                    (slot, kind)
                );
                assert_eq!(
                    ActionSpace::Rich
                        .decode(slot * ActionSpace::Rich.kinds_per_slot() + swap_offset),
                    (slot, kind)
                );
            }
        }
        // Kinds outside a space don't encode.
        assert_eq!(
            ActionSpace::AdjacentSwap.encode(0, EditKind::ToggleReuse),
            None
        );
    }

    #[test]
    fn schedule_edit_serde_round_trips_every_variant() {
        let edits = [
            ScheduleEdit::Swap { upper: 3 },
            ScheduleEdit::BlockMove {
                index: 5,
                direction: Direction::Up,
                distance: 2,
            },
            ScheduleEdit::BlockMove {
                index: 1,
                direction: Direction::Down,
                distance: 2,
            },
            ScheduleEdit::ToggleReuse {
                index: 4,
                operand: 1,
            },
            ScheduleEdit::SetStall {
                index: 2,
                from: 4,
                to: 2,
            },
            ScheduleEdit::SetWait {
                index: 6,
                barrier: 3,
                on: true,
            },
        ];
        for edit in edits {
            let json = serde_json::to_string(&edit).unwrap();
            let back: ScheduleEdit = serde_json::from_str(&json).unwrap();
            assert_eq!(back, edit, "{json}");
            // And the inverse of the inverse is the edit itself.
            assert_eq!(edit.inverse().inverse(), edit);
        }
    }

    #[test]
    fn malformed_edits_are_rejected_without_panics() {
        let (program, _, _) = setup();
        let n = program.instruction_count();
        let pristine = program.to_string();
        let rejected = [
            ScheduleEdit::Swap { upper: n - 1 },
            ScheduleEdit::Swap { upper: n + 10 },
            ScheduleEdit::BlockMove {
                index: 0,
                direction: Direction::Up,
                distance: 2,
            },
            ScheduleEdit::BlockMove {
                index: n - 1,
                direction: Direction::Down,
                distance: 2,
            },
            ScheduleEdit::ToggleReuse {
                index: n + 1,
                operand: 0,
            },
            // MOV's immediate operand cannot carry a reuse flag.
            ScheduleEdit::ToggleReuse {
                index: 0,
                operand: 1,
            },
            ScheduleEdit::SetStall {
                index: 0,
                from: 4,
                to: 16,
            },
            ScheduleEdit::SetWait {
                index: 0,
                barrier: sass::NUM_BARRIERS,
                on: true,
            },
            ScheduleEdit::SetWait {
                index: n,
                barrier: 0,
                on: true,
            },
        ];
        for edit in rejected {
            let mut mutated = program.clone();
            assert!(!edit.apply(&mut mutated), "{edit:?} must be rejected");
            assert_eq!(mutated.to_string(), pristine, "{edit:?} must be a no-op");
        }
    }

    #[test]
    fn register_dependences_are_masked() {
        let (program, analysis, table) = setup();
        let movable = analysis.movable_memory_indices();
        let mask = action_mask(&program, &movable, &analysis, &table);
        // The LDG (index 3) cannot move down: the IADD3 below consumes R2.
        let ldg_slot = movable.iter().position(|&i| i == 3).unwrap();
        assert!(!mask[ldg_slot * 2 + 1]);
        // It can move up past the unrelated IADD3 R6 (no shared registers).
        assert!(mask[ldg_slot * 2]);
    }

    #[test]
    fn stall_count_violations_are_masked() {
        // Moving the STG up right below its producer chain would shrink the
        // accumulated stall below the IADD3 latency.
        let text = "\
[B------:R-:W-:-:S04] MOV R4, 0x100 ;
[B------:R-:W-:-:S02] IADD3 R7, R4, 0x1, RZ ;
[B------:R-:W-:-:S01] NOP ;
[B------:R-:W-:-:S01] NOP ;
[B------:R-:W-:-:S02] STG.E [R4], R7 ;
[B------:R-:W-:-:S05] EXIT ;
";
        let program: Program = text.parse().unwrap();
        let table = StallTable::builtin_a100();
        let analysis = analyze(&program, &table);
        let movable = analysis.movable_memory_indices();
        let stg_slot = movable.iter().position(|&i| i == 4).unwrap();
        let mask = action_mask(&program, &movable, &analysis, &table);
        // Moving up once (above one NOP) leaves accumulated 2+1 = 3 < 4.
        assert!(!mask[stg_slot * 2], "stall-count violation must be masked");
    }

    #[test]
    fn fences_and_boundaries_are_masked() {
        let (program, analysis, table) = setup();
        let movable = analysis.movable_memory_indices();
        let mask = action_mask(&program, &movable, &analysis, &table);
        // The STG (last memory instruction) cannot move down into EXIT.
        let stg_slot = movable.iter().position(|&i| i == 5).unwrap();
        assert!(!mask[stg_slot * 2 + 1]);
    }

    #[test]
    fn ldgsts_group_members_never_reorder() {
        let text = "\
[B------:R-:W-:-:S04] MOV R74, 0x0 ;
[B------:R-:W-:-:S04] MOV R10, 0x1000 ;
[B------:R-:W0:-:S02] LDGSTS.E.128 [R74+0x0], desc[UR16][R10.64] ;
[B------:R-:W0:-:S02] LDGSTS.E.128 [R74+0x100], desc[UR16][R10.64+0x200] ;
[B------:R-:W-:-:S05] EXIT ;
";
        let program: Program = text.parse().unwrap();
        let table = StallTable::builtin_a100();
        let analysis = analyze(&program, &table);
        let movable = analysis.movable_memory_indices();
        let mask = action_mask(&program, &movable, &analysis, &table);
        let second_slot = movable.iter().position(|&i| i == 3).unwrap();
        assert!(!mask[second_slot * 2], "group members must not reorder");
    }

    #[test]
    fn masked_actions_keep_the_simulation_hazard_free() {
        // Apply every legal action once and verify the simulator agrees.
        use gpusim::{simulate_launch, GpuConfig, LaunchConfig};
        let (program, analysis, table) = setup();
        let movable = analysis.movable_memory_indices();
        let mask = action_mask(&program, &movable, &analysis, &table);
        let launch = LaunchConfig::default();
        let baseline = simulate_launch(&GpuConfig::small(), &program, &launch);
        for (id, allowed) in mask.iter().enumerate() {
            if !allowed {
                continue;
            }
            let (slot, kind) = ActionSpace::AdjacentSwap.decode(id);
            let index = movable[slot];
            let mut mutated = program.clone();
            let (a, b) = match kind {
                EditKind::SwapUp => (index - 1, index),
                _ => (index, index + 1),
            };
            mutated.swap_instructions(a, b).unwrap();
            let run = simulate_launch(&GpuConfig::small(), &mutated, &launch);
            assert_eq!(run.sm.hazards, 0, "legal action {id} must stay hazard-free");
            assert_eq!(run.sm.output_digest, baseline.sm.output_digest);
        }
    }
}
