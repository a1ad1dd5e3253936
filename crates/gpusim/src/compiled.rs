//! One-time lowering of a SASS program into a dense, pre-decoded IR.
//!
//! The reward signal of the assembly game re-simulates the whole kernel
//! cycle by cycle after every single move, and the interpretive executor
//! ([`crate::execute`]) re-decodes each [`sass::Instruction`] on every issue:
//! it re-derives destination counts, re-reads opcode modifiers, allocates
//! operand and register vectors, and formats opcode names just to seed the
//! value-mixing hash. [`CompiledProgram::compile`] performs all of that
//! exactly once per schedule:
//!
//! * operands are lowered into [`LoweredOperand`]s with immediates,
//!   special-register dispatch and constant-bank fallbacks pre-resolved,
//! * branch labels are resolved to instruction indices,
//! * per-instruction scheduling metadata (stall, barriers, latency class,
//!   fixed latency, LDGSTS group key, the deduplicated register-bank
//!   source list and the reuse list with their bank indices) is captured
//!   into plain fields the cycle loop reads without touching `sass` structs
//!   or allocating,
//! * the value-mixing tags of the generic floating-point/tensor semantics
//!   are precomputed so the hot loop never formats a string.
//!
//! The lowering is semantics-preserving by construction: for any program,
//! warp count and constant bank, [`crate::SmSimulator::run`] (which
//! interprets the compiled form) produces reports and memory images
//! bit-identical to [`crate::SmSimulator::run_reference`] (the original
//! instruction-at-a-time interpreter, kept as the executable specification).
//! The `compiled_matches_reference` tests and the workspace-level
//! `compiled_equivalence` suite enforce this.

use sass::{Instruction, LatencyClass, MemorySpace, Mnemonic, Operand, Program, Register};

use crate::config::GpuConfig;
use crate::exec::{
    access_bytes, const_fallback, mix_values, Cmp, ExecContext, MemAccess, SpecialReg,
};
use crate::memory::{splitmix64, MemorySubsystem};
use crate::regfile::{banked_operands, RegisterFile};

/// A source operand lowered to its pre-resolved evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LoweredOperand {
    /// Non-predicate register read with its arithmetic modifiers.
    Gpr {
        /// The register to read.
        reg: Register,
        /// Arithmetic negation (`-R4`).
        negated: bool,
        /// Absolute value (`|R4|`).
        absolute: bool,
    },
    /// Predicate register read, optionally logically inverted (`!P0`).
    Pred {
        /// The predicate register to read.
        reg: Register,
        /// Logical not prefix.
        not: bool,
    },
    /// A value known at compile time: immediates, float bit patterns,
    /// labels/memory placeholders (0) and hashed unknown special registers.
    Value(u64),
    /// A constant-bank read with its miss fallback precomputed.
    Const {
        /// Constant bank index.
        bank: u32,
        /// Byte offset within the bank.
        offset: u32,
        /// Deterministic value used when the launch did not bind the slot.
        fallback: u64,
    },
    /// A special register, classified once through the shared `SR_*` table.
    Special(SpecialReg),
}

impl LoweredOperand {
    fn lower(operand: &Operand) -> Self {
        match operand {
            Operand::Reg(r) if r.reg.is_predicate() => LoweredOperand::Pred {
                reg: r.reg,
                not: r.not,
            },
            Operand::Reg(r) => LoweredOperand::Gpr {
                reg: r.reg,
                negated: r.negated,
                absolute: r.absolute,
            },
            Operand::Imm(v) => LoweredOperand::Value(*v as u64),
            Operand::FImm(v) => LoweredOperand::Value(v.to_bits()),
            Operand::Const { bank, offset } => LoweredOperand::Const {
                bank: *bank,
                offset: *offset,
                fallback: const_fallback(*bank, *offset),
            },
            // Memory references among value sources evaluate to zero (their
            // registers are read during address formation instead).
            Operand::Mem(_) => LoweredOperand::Value(0),
            Operand::Special(name) => LoweredOperand::Special(SpecialReg::classify(name)),
            Operand::Label(_) => LoweredOperand::Value(0),
        }
    }

    #[inline]
    fn eval(&self, regs: &mut RegisterFile, ctx: &ExecContext<'_>) -> u64 {
        match *self {
            LoweredOperand::Gpr {
                reg,
                negated,
                absolute,
            } => {
                let mut v = regs.read(reg, ctx.cycle);
                if negated {
                    v = v.wrapping_neg();
                }
                if absolute {
                    v = (v as i64).unsigned_abs();
                }
                v
            }
            LoweredOperand::Pred { reg, not } => {
                let v = regs.read(reg, ctx.cycle);
                if not {
                    u64::from(v == 0)
                } else {
                    v
                }
            }
            LoweredOperand::Value(v) => v,
            LoweredOperand::Const {
                bank,
                offset,
                fallback,
            } => ctx.constants.get(bank, offset).unwrap_or(fallback),
            LoweredOperand::Special(sr) => sr.value(ctx),
        }
    }
}

/// A memory-reference operand lowered for address formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoweredMemRef {
    descriptor: Option<Register>,
    base: Option<Register>,
    offset: i64,
}

impl LoweredMemRef {
    fn lower(operand: &Operand) -> Option<Self> {
        let m = operand.as_mem()?;
        Some(LoweredMemRef {
            descriptor: m.descriptor,
            base: m.base.as_ref().map(|b| b.reg),
            offset: m.offset,
        })
    }

    #[inline]
    fn address(&self, regs: &mut RegisterFile, cycle: u64) -> u64 {
        let mut addr = 0u64;
        if let Some(desc) = self.descriptor {
            addr = addr.wrapping_add(regs.read(desc, cycle));
        }
        if let Some(base) = self.base {
            addr = addr.wrapping_add(regs.read(base, cycle));
        }
        addr.wrapping_add(self.offset as u64)
    }
}

/// Resolved control transfer of a branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BranchTarget {
    /// No label operand: the branch falls through.
    None,
    /// The label resolved to this instruction index.
    Index(usize),
    /// The label does not exist in the program: the warp finishes.
    Invalid,
}

/// Functional dispatch class, mirroring the mnemonic match of
/// [`crate::execute`] with all static decisions pre-resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecKind {
    /// `MOV`.
    Mov,
    /// `IADD3` / `LEA`: sum of every source, zeroed carry-out predicates.
    Sum,
    /// `IMAD`: multiply-accumulate.
    Mad,
    /// `SEL` / `FSEL`.
    Select,
    /// `IABS`.
    Abs,
    /// `SHF` (direction pre-resolved).
    Shift { right: bool },
    /// `IMNMX`.
    Min,
    /// `ISETP` / `FSETP` / `HSETP2` (comparison pre-resolved).
    Setp(Cmp),
    /// `CS2R` / `S2R`.
    MoveSpecial,
    /// `LDG` / `LD` / `LDC`.
    LoadGlobal,
    /// `LDS` / `LDSM`.
    LoadShared,
    /// `LDL`.
    LoadLocal,
    /// `STG` / `ST` / `RED` / `ATOMG` / `ATOM`.
    StoreGlobal,
    /// `STS` / `STL` / `ATOMS`.
    StoreShared,
    /// `LDGSTS`.
    GlobalToShared,
    /// `BRA` / `BRX` / `JMP`.
    Branch,
    /// `EXIT` / `RET`.
    Exit,
    /// Barriers, fences and other architecturally silent instructions.
    Quiet,
    /// Everything else: deterministic value mixing.
    Mix,
}

/// Control transfer produced by one compiled execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Fall through to the next instruction.
    Next,
    /// Jump to the given instruction index.
    Jump(usize),
    /// The warp finishes (EXIT, or a branch to an unknown label).
    Finish,
}

/// Architectural effects of one compiled execution. Register writes are
/// returned through the caller-provided scratch buffer so the hot loop
/// performs no per-issue allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ExecEffects {
    pub(crate) access: Option<MemAccess>,
    pub(crate) flow: Flow,
    pub(crate) predicated_off: bool,
}

/// One fully decoded instruction: the functional recipe plus every piece of
/// scheduling metadata the cycle loop needs, in dense pre-computed fields.
#[derive(Debug, Clone)]
pub(crate) struct CompiledInst {
    // --- functional ---
    guard: Option<(Register, bool)>,
    kind: ExecKind,
    sources: Vec<LoweredOperand>,
    first_dest: Option<Register>,
    /// Carry-out destinations of `Sum` (written zero), or every predicate
    /// destination of `Setp` (all written with the comparison result).
    extra_dests: Vec<Register>,
    /// `(destination, mixing tag)` pairs of the generic `Mix` semantics.
    mix_dests: Vec<(Register, u64)>,
    /// Load address / store address / LDGSTS shared destination.
    mem: Option<LoweredMemRef>,
    /// LDGSTS global source.
    mem2: Option<LoweredMemRef>,
    /// Store data operand (re-evaluated after address formation, exactly as
    /// the interpretive executor does).
    store_data: Option<LoweredOperand>,
    access_bytes: u64,
    bypass_l1: bool,
    branch: BranchTarget,
    // --- scheduling ---
    pub(crate) stall: u64,
    pub(crate) yield_flag: bool,
    pub(crate) wait_mask: u8,
    pub(crate) read_barrier: Option<u8>,
    pub(crate) write_barrier: Option<u8>,
    pub(crate) fixed_latency: u64,
    pub(crate) is_memory: bool,
    pub(crate) is_mma: bool,
    pub(crate) is_bar: bool,
    pub(crate) is_depbar: bool,
    pub(crate) is_ldgsts: bool,
    pub(crate) variable_latency: bool,
    pub(crate) mma_busy: u64,
    /// Distinct general-purpose source registers with their bank indices
    /// (for register-bank conflicts).
    pub(crate) bank_sources: Vec<(Register, usize)>,
    /// Registers flagged `.reuse`, with their bank indices (for the
    /// operand-reuse cache).
    pub(crate) reuse_regs: Vec<(Register, usize)>,
    /// LDGSTS ascending-group key (shared base register, offset).
    pub(crate) ldgsts_key: Option<(Register, i64)>,
}

impl CompiledInst {
    #[allow(clippy::too_many_lines)] // one arm per mnemonic class, like the interpreter
    fn compile(inst: &Instruction, config: &GpuConfig) -> Self {
        let opcode = inst.opcode();
        let n_dest = inst.dest_operand_count();
        let dests: Vec<&Operand> = inst.operands().iter().take(n_dest).collect();
        let source_ops: Vec<&Operand> = inst.operands().iter().skip(n_dest).collect();
        let sources: Vec<LoweredOperand> = source_ops
            .iter()
            .map(|o| LoweredOperand::lower(o))
            .collect();
        let opcode_tag = splitmix64(opcode.full_name().len() as u64 ^ 0xC0DE);
        let live = |reg: Register| (!reg.is_zero_or_true()).then_some(reg);
        let first_dest = dests
            .first()
            .and_then(|o| o.as_reg())
            .map(|r| r.reg)
            .and_then(live);

        let mut extra_dests = Vec::new();
        let mut mix_dests = Vec::new();
        let mut mem = None;
        let mut mem2 = None;
        let mut store_data = None;
        let mut branch = BranchTarget::None;

        let kind = match opcode.base() {
            Mnemonic::Mov => ExecKind::Mov,
            Mnemonic::Iadd3 | Mnemonic::Lea => {
                extra_dests = dests
                    .iter()
                    .skip(1)
                    .filter_map(|o| o.as_reg())
                    .filter_map(|r| live(r.reg))
                    .collect();
                ExecKind::Sum
            }
            Mnemonic::Imad => ExecKind::Mad,
            Mnemonic::Sel | Mnemonic::Fsel => ExecKind::Select,
            Mnemonic::Iabs => ExecKind::Abs,
            Mnemonic::Shf => ExecKind::Shift {
                right: opcode.has_modifier("R"),
            },
            Mnemonic::Imnmx => ExecKind::Min,
            Mnemonic::Isetp | Mnemonic::Fsetp | Mnemonic::Hsetp2 => {
                extra_dests = dests
                    .iter()
                    .filter_map(|o| o.as_reg())
                    .filter_map(|r| live(r.reg))
                    .collect();
                ExecKind::Setp(Cmp::lower(opcode.modifiers().first()))
            }
            Mnemonic::Cs2r | Mnemonic::S2r => ExecKind::MoveSpecial,
            Mnemonic::Ldg | Mnemonic::Ld | Mnemonic::Ldc => {
                mem = source_ops.iter().find_map(|o| LoweredMemRef::lower(o));
                ExecKind::LoadGlobal
            }
            Mnemonic::Lds | Mnemonic::Ldsm => {
                mem = source_ops.iter().find_map(|o| LoweredMemRef::lower(o));
                ExecKind::LoadShared
            }
            Mnemonic::Ldl => {
                mem = source_ops.iter().find_map(|o| LoweredMemRef::lower(o));
                ExecKind::LoadLocal
            }
            Mnemonic::Stg | Mnemonic::St | Mnemonic::Red | Mnemonic::Atomg | Mnemonic::Atom => {
                mem = inst.operands().iter().find_map(LoweredMemRef::lower);
                store_data = inst
                    .operands()
                    .iter()
                    .rfind(|o| o.as_mem().is_none())
                    .map(LoweredOperand::lower);
                ExecKind::StoreGlobal
            }
            Mnemonic::Sts | Mnemonic::Stl | Mnemonic::Atoms => {
                mem = inst.operands().iter().find_map(LoweredMemRef::lower);
                store_data = inst
                    .operands()
                    .iter()
                    .rfind(|o| o.as_mem().is_none())
                    .map(LoweredOperand::lower);
                ExecKind::StoreShared
            }
            Mnemonic::Ldgsts => {
                let mut mems = inst.operands().iter().filter_map(LoweredMemRef::lower);
                mem = mems.next();
                mem2 = mems.next();
                ExecKind::GlobalToShared
            }
            Mnemonic::Bra | Mnemonic::Brx | Mnemonic::Jmp => ExecKind::Branch,
            Mnemonic::Exit | Mnemonic::Ret => ExecKind::Exit,
            Mnemonic::Nop
            | Mnemonic::Bar
            | Mnemonic::Depbar
            | Mnemonic::Ldgdepbar
            | Mnemonic::Membar
            | Mnemonic::Errbar
            | Mnemonic::Cctl
            | Mnemonic::Fence
            | Mnemonic::Bssy
            | Mnemonic::Bsync
            | Mnemonic::Warpsync
            | Mnemonic::Yield
            | Mnemonic::Nanosleep => ExecKind::Quiet,
            _ => {
                mix_dests = dests
                    .iter()
                    .filter_map(|o| o.as_reg())
                    .filter(|r| !r.reg.is_zero_or_true())
                    .map(|r| (r.reg, opcode_tag ^ r.reg.to_string().len() as u64))
                    .collect();
                ExecKind::Mix
            }
        };
        if matches!(kind, ExecKind::Branch) {
            branch = match inst
                .operands()
                .iter()
                .find(|o| matches!(o, Operand::Label(_)))
            {
                Some(Operand::Label(_)) => BranchTarget::Invalid, // resolved later
                _ => BranchTarget::None,
            };
        }

        let control = inst.control();
        let arch = &config.arch;
        let fixed_latency = arch.fixed_latency(opcode);
        let banks = arch.banks.banks.max(1);
        CompiledInst {
            guard: inst.guard().map(|g| (g.pred, g.negated)),
            kind,
            sources,
            first_dest,
            extra_dests,
            mix_dests,
            mem,
            mem2,
            store_data,
            access_bytes: access_bytes(inst),
            bypass_l1: opcode.has_modifier("BYPASS"),
            branch,
            stall: u64::from(control.stall()).max(arch.min_stall),
            yield_flag: control.yield_flag(),
            wait_mask: control.wait_mask(),
            read_barrier: control.read_barrier(),
            write_barrier: control.write_barrier(),
            fixed_latency,
            is_memory: opcode.is_memory(),
            is_mma: opcode.is_mma(),
            is_bar: matches!(opcode.base(), Mnemonic::Bar),
            is_depbar: matches!(opcode.base(), Mnemonic::Depbar | Mnemonic::Ldgdepbar),
            is_ldgsts: matches!(opcode.base(), Mnemonic::Ldgsts),
            variable_latency: opcode.latency_class() == LatencyClass::Variable,
            mma_busy: arch.mma_busy,
            bank_sources: banked_operands(inst.uses(), banks, true),
            reuse_regs: banked_operands(
                inst.operands()
                    .iter()
                    .filter(|o| o.has_reuse())
                    .flat_map(Operand::registers),
                banks,
                false,
            ),
            ldgsts_key: inst
                .operands()
                .iter()
                .find_map(Operand::as_mem)
                .and_then(|m| m.base.map(|b| (b.reg, m.offset))),
        }
    }

    /// Executes this instruction: evaluates operands against the register
    /// file and memory, appends register writes to `writes` (whose
    /// visibility time the caller decides) and returns the remaining
    /// effects. Bit-for-bit equivalent to [`crate::execute`].
    #[inline]
    pub(crate) fn execute(
        &self,
        regs: &mut RegisterFile,
        mem: &mut MemorySubsystem,
        ctx: &ExecContext<'_>,
        writes: &mut Vec<(Register, u64)>,
        values: &mut Vec<u64>,
    ) -> ExecEffects {
        writes.clear();
        let mut effects = ExecEffects {
            access: None,
            flow: Flow::Next,
            predicated_off: false,
        };
        if let Some((pred, negated)) = self.guard {
            let v = regs.read(pred, ctx.cycle) != 0;
            if v == negated {
                effects.predicated_off = true;
                return effects;
            }
        }
        values.clear();
        values.extend(self.sources.iter().map(|s| s.eval(regs, ctx)));

        match self.kind {
            ExecKind::Mov | ExecKind::MoveSpecial => {
                if let Some(reg) = self.first_dest {
                    writes.push((reg, values.first().copied().unwrap_or(0)));
                }
            }
            ExecKind::Sum => {
                if let Some(reg) = self.first_dest {
                    let sum = values.iter().fold(0u64, |acc, v| acc.wrapping_add(*v));
                    writes.push((reg, sum));
                }
                for &reg in &self.extra_dests {
                    writes.push((reg, 0));
                }
            }
            ExecKind::Mad => {
                if let Some(reg) = self.first_dest {
                    let a = values.first().copied().unwrap_or(0);
                    let b = values.get(1).copied().unwrap_or(0);
                    let c = values.get(2).copied().unwrap_or(0);
                    writes.push((reg, a.wrapping_mul(b).wrapping_add(c)));
                }
            }
            ExecKind::Select => {
                if let Some(reg) = self.first_dest {
                    let pred = values.last().copied().unwrap_or(1);
                    let a = values.first().copied().unwrap_or(0);
                    let b = values.get(1).copied().unwrap_or(0);
                    writes.push((reg, if pred != 0 { a } else { b }));
                }
            }
            ExecKind::Abs => {
                if let Some(reg) = self.first_dest {
                    let v = values.first().copied().unwrap_or(0) as i64;
                    writes.push((reg, v.unsigned_abs()));
                }
            }
            ExecKind::Shift { right } => {
                if let Some(reg) = self.first_dest {
                    let a = values.first().copied().unwrap_or(0);
                    let sh = values.get(1).copied().unwrap_or(0) & 63;
                    writes.push((reg, if right { a >> sh } else { a << sh }));
                }
            }
            ExecKind::Min => {
                if let Some(reg) = self.first_dest {
                    let a = values.first().copied().unwrap_or(0) as i64;
                    let b = values.get(1).copied().unwrap_or(0) as i64;
                    writes.push((reg, a.min(b) as u64));
                }
            }
            ExecKind::Setp(cmp) => {
                let a = values.first().copied().unwrap_or(0) as i64;
                let b = values.get(1).copied().unwrap_or(0) as i64;
                let result = u64::from(cmp.apply(a, b));
                for &reg in &self.extra_dests {
                    writes.push((reg, result));
                }
            }
            ExecKind::LoadGlobal => {
                let addr = self.mem.map_or(0, |m| m.address(regs, ctx.cycle));
                let value = mem.load_global(addr);
                mem.record_global_load(self.access_bytes);
                if let Some(reg) = self.first_dest {
                    writes.push((reg, value));
                }
                effects.access = Some(MemAccess {
                    space: MemorySpace::Global,
                    addr,
                    bytes: self.access_bytes,
                    is_load: true,
                    bypass_l1: false,
                });
            }
            ExecKind::LoadShared => {
                let addr = self.mem.map_or(0, |m| m.address(regs, ctx.cycle));
                let value = mem.load_shared(addr);
                mem.record_shared_load(self.access_bytes);
                if let Some(reg) = self.first_dest {
                    writes.push((reg, value));
                }
                effects.access = Some(MemAccess {
                    space: MemorySpace::Shared,
                    addr,
                    bytes: self.access_bytes,
                    is_load: true,
                    bypass_l1: false,
                });
            }
            ExecKind::LoadLocal => {
                let addr = self.mem.map_or(0, |m| m.address(regs, ctx.cycle));
                let value = mem.load_global(addr ^ 0x4c4f43414c); // distinct local window
                if let Some(reg) = self.first_dest {
                    writes.push((reg, value));
                }
                effects.access = Some(MemAccess {
                    space: MemorySpace::Local,
                    addr,
                    bytes: self.access_bytes,
                    is_load: true,
                    bypass_l1: false,
                });
            }
            ExecKind::StoreGlobal => {
                let addr = self.mem.map_or(0, |m| m.address(regs, ctx.cycle));
                let data = self.store_data.map_or(0, |d| d.eval(regs, ctx));
                mem.store_global(addr, data, self.access_bytes);
                effects.access = Some(MemAccess {
                    space: MemorySpace::Global,
                    addr,
                    bytes: self.access_bytes,
                    is_load: false,
                    bypass_l1: false,
                });
            }
            ExecKind::StoreShared => {
                let addr = self.mem.map_or(0, |m| m.address(regs, ctx.cycle));
                let data = self.store_data.map_or(0, |d| d.eval(regs, ctx));
                mem.store_shared(addr, data, self.access_bytes);
                effects.access = Some(MemAccess {
                    space: MemorySpace::Shared,
                    addr,
                    bytes: self.access_bytes,
                    is_load: false,
                    bypass_l1: false,
                });
            }
            ExecKind::GlobalToShared => {
                let shared_dst = self.mem.map_or(0, |m| m.address(regs, ctx.cycle));
                let global_src = self.mem2.map_or(0, |m| m.address(regs, ctx.cycle));
                let value = mem.load_global(global_src);
                mem.store_shared(shared_dst, value, self.access_bytes);
                mem.record_global_to_shared(self.access_bytes);
                effects.access = Some(MemAccess {
                    space: MemorySpace::GlobalToShared,
                    addr: global_src,
                    bytes: self.access_bytes,
                    is_load: true,
                    bypass_l1: self.bypass_l1,
                });
            }
            ExecKind::Branch => {
                effects.flow = match self.branch {
                    BranchTarget::None => Flow::Next,
                    BranchTarget::Index(idx) => Flow::Jump(idx),
                    BranchTarget::Invalid => Flow::Finish,
                };
            }
            ExecKind::Exit => {
                effects.flow = Flow::Finish;
            }
            ExecKind::Quiet => {}
            ExecKind::Mix => {
                for &(reg, tag) in &self.mix_dests {
                    writes.push((reg, mix_values(tag, values)));
                }
            }
        }
        effects
    }
}

/// A SASS program lowered into the dense pre-decoded form the cycle loop
/// interprets. The lowering captures the opcode latency table and stall
/// rules of one [`GpuConfig`]'s architecture backend
/// ([`crate::ArchSpec`]); compile once per (schedule, device) pair — a
/// program compiled for one architecture must not be run under another.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) insts: Vec<CompiledInst>,
}

impl CompiledProgram {
    /// Lowers `program` for the given device. Labels are resolved to
    /// instruction indices; unknown branch labels terminate their warp at
    /// run time (matching the interpretive executor).
    #[must_use]
    pub fn compile(program: &Program, config: &GpuConfig) -> Self {
        let insts = program
            .instructions()
            .iter()
            .map(|inst| {
                let mut lowered = CompiledInst::compile(inst, config);
                if matches!(lowered.branch, BranchTarget::Invalid) {
                    let target = inst.operands().iter().find_map(|o| match o {
                        Operand::Label(name) => Some(name),
                        _ => None,
                    });
                    if let Some(&(at, _)) =
                        target.and_then(|name| program.labels().iter().find(|(_, l)| l == name))
                    {
                        lowered.branch = BranchTarget::Index(at);
                    }
                }
                lowered
            })
            .collect();
        CompiledProgram { insts }
    }

    /// Swaps the instructions at positions `a` and `b`, mirroring
    /// [`sass::Program::swap_instructions`] on the lowered form. Labels sit
    /// *between* instructions and branch targets are stored as absolute
    /// instruction indices, so swapping two lowered instructions yields
    /// exactly what recompiling the swapped source program would — the
    /// `compiled_equivalence` suite pins this. Out-of-range indices are
    /// ignored.
    pub fn swap_insts(&mut self, a: usize, b: usize) {
        if a < self.insts.len() && b < self.insts.len() {
            self.insts.swap(a, b);
        }
    }

    /// Re-lowers the instruction at `index` from `inst`, mirroring an
    /// in-place edit of the source program (control-code retuning, reuse-flag
    /// toggling, ...). The replacement must not change which label the
    /// instruction branches to: labels are resolved during whole-program
    /// compilation, so a fresh single-instruction lowering inherits the old
    /// slot's resolved branch target when its own is still unresolved.
    /// Out-of-range indices are ignored.
    pub fn replace_inst(&mut self, index: usize, inst: &Instruction, config: &GpuConfig) {
        let Some(slot) = self.insts.get_mut(index) else {
            return;
        };
        let mut fresh = CompiledInst::compile(inst, config);
        if matches!(fresh.branch, BranchTarget::Invalid) {
            fresh.branch = slot.branch;
        }
        *slot = fresh;
    }

    /// Number of instructions in the compiled program.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns true for an empty program.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}
