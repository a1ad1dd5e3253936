//! Opcodes, modifiers and instruction classification.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::SassError;

/// Latency class of an instruction (§2.3.1 of the paper).
///
/// Fixed-latency instructions (mostly ALU operations) complete in a known
/// number of cycles and resolve their hazards through the stall count.
/// Variable-latency instructions (memory operations, transcendentals) signal
/// completion through scoreboard barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LatencyClass {
    /// Completes after a fixed number of pipeline cycles.
    Fixed,
    /// Completion time depends on the memory hierarchy or a long-latency unit.
    Variable,
}

/// Memory space targeted by a memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemorySpace {
    /// Off-chip global memory (through L1/L2).
    Global,
    /// On-chip shared memory.
    Shared,
    /// Per-thread local memory.
    Local,
    /// Constant bank.
    Constant,
    /// Asynchronous global-to-shared copy path (`LDGSTS`).
    GlobalToShared,
}

/// Declares [`Mnemonic`] from one `Variant => "TEXT"` list, so the enum,
/// [`Mnemonic::as_str`] and its `FromStr` are both `match`es over the same
/// spellings and can never disagree.
macro_rules! mnemonics {
    ($($variant:ident => $text:literal,)*) => {
        /// The base mnemonic of a SASS instruction.
        ///
        /// The set below covers every mnemonic that appears in the kernels
        /// evaluated by the paper (Table 2) plus the mnemonics used by the
        /// microbenchmarks. Unknown mnemonics are preserved verbatim in
        /// [`Mnemonic::Other`] so that a listing always round-trips.
        #[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
        #[allow(missing_docs)]
        pub enum Mnemonic {
            $($variant,)*
            /// Any mnemonic not in the list above, preserved verbatim.
            Other(String),
        }

        impl Mnemonic {
            /// Canonical upper-case text of the mnemonic.
            #[must_use]
            pub fn as_str(&self) -> &str {
                match self {
                    $(Mnemonic::$variant => $text,)*
                    Mnemonic::Other(s) => s,
                }
            }
        }

        impl FromStr for Mnemonic {
            type Err = SassError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                if s.is_empty() {
                    return Err(SassError::Operand("empty mnemonic".to_string()));
                }
                Ok(match s {
                    $($text => Mnemonic::$variant,)*
                    other => Mnemonic::Other(other.to_string()),
                })
            }
        }
    };
}

mnemonics! {
    // Integer ALU (fixed latency).
    Iadd3 => "IADD3",
    Imad => "IMAD",
    Imnmx => "IMNMX",
    Lea => "LEA",
    Sel => "SEL",
    Mov => "MOV",
    Iabs => "IABS",
    Shf => "SHF",
    Lop3 => "LOP3",
    Isetp => "ISETP",
    Iset => "ISET",
    Plop3 => "PLOP3",
    Popc => "POPC",
    Flo => "FLO",
    Vote => "VOTE",
    // Floating point ALU (fixed latency).
    Fadd => "FADD",
    Fmul => "FMUL",
    Ffma => "FFMA",
    Fsel => "FSEL",
    Fsetp => "FSETP",
    Fmnmx => "FMNMX",
    Hadd2 => "HADD2",
    Hmul2 => "HMUL2",
    Hfma2 => "HFMA2",
    Hset2 => "HSET2",
    Hsetp2 => "HSETP2",
    F2f => "F2F",
    F2i => "F2I",
    I2f => "I2F",
    // Tensor core.
    Hmma => "HMMA",
    Imma => "IMMA",
    // Special function unit (variable latency).
    Mufu => "MUFU",
    // Register / system moves.
    Cs2r => "CS2R",
    S2r => "S2R",
    R2p => "R2P",
    P2r => "P2R",
    Shfl => "SHFL",
    // Memory (variable latency).
    Ldg => "LDG",
    Stg => "STG",
    Lds => "LDS",
    Sts => "STS",
    Ldsm => "LDSM",
    Ldgsts => "LDGSTS",
    Ldl => "LDL",
    Stl => "STL",
    Ld => "LD",
    St => "ST",
    Atom => "ATOM",
    Atoms => "ATOMS",
    Atomg => "ATOMG",
    Red => "RED",
    Ldc => "LDC",
    // Barriers and synchronisation.
    Bar => "BAR",
    Depbar => "DEPBAR",
    Ldgdepbar => "LDGDEPBAR",
    Membar => "MEMBAR",
    Errbar => "ERRBAR",
    Cctl => "CCTL",
    Fence => "FENCE",
    Bssy => "BSSY",
    Bsync => "BSYNC",
    // Control flow.
    Bra => "BRA",
    Brx => "BRX",
    Jmp => "JMP",
    Call => "CALL",
    Ret => "RET",
    Exit => "EXIT",
    Nop => "NOP",
    Warpsync => "WARPSYNC",
    Yield => "YIELD",
    Nanosleep => "NANOSLEEP",
}

impl fmt::Display for Mnemonic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An opcode: the base mnemonic plus its dot-separated modifiers.
///
/// For example `IMAD.WIDE.U32` has base [`Mnemonic::Imad`] and modifiers
/// `["WIDE", "U32"]`, and `LDGSTS.E.BYPASS.LTC128B.128` has base
/// [`Mnemonic::Ldgsts`] with four modifiers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Opcode {
    base: Mnemonic,
    modifiers: Vec<String>,
}

impl Opcode {
    /// Creates an opcode with no modifiers.
    #[must_use]
    pub fn new(base: Mnemonic) -> Self {
        Opcode {
            base,
            modifiers: Vec::new(),
        }
    }

    /// The base mnemonic.
    #[must_use]
    pub fn base(&self) -> &Mnemonic {
        &self.base
    }

    /// The dot-separated modifiers, in order.
    #[must_use]
    pub fn modifiers(&self) -> &[String] {
        &self.modifiers
    }

    /// Returns true if the opcode carries the given modifier.
    #[must_use]
    pub fn has_modifier(&self, modifier: &str) -> bool {
        self.modifiers.iter().any(|m| m == modifier)
    }

    /// The full dotted name, e.g. `IMAD.WIDE.U32`.
    #[must_use]
    pub fn full_name(&self) -> String {
        self.to_string()
    }

    /// Returns true for memory load/store instructions (the instructions the
    /// CuAsmRL action space is restricted to).
    #[must_use]
    pub fn is_memory(&self) -> bool {
        self.memory_space().is_some()
    }

    /// Returns true for loads (instructions that read memory into registers
    /// or into shared memory).
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(
            self.base,
            Mnemonic::Ldg
                | Mnemonic::Lds
                | Mnemonic::Ldsm
                | Mnemonic::Ldgsts
                | Mnemonic::Ldl
                | Mnemonic::Ld
                | Mnemonic::Ldc
        )
    }

    /// Returns true for stores.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(
            self.base,
            Mnemonic::Stg | Mnemonic::Sts | Mnemonic::Stl | Mnemonic::St | Mnemonic::Red
        )
    }

    /// The memory space accessed, if this is a memory instruction.
    #[must_use]
    pub fn memory_space(&self) -> Option<MemorySpace> {
        Some(match self.base {
            Mnemonic::Ldg | Mnemonic::Stg | Mnemonic::Atomg | Mnemonic::Red => MemorySpace::Global,
            Mnemonic::Lds | Mnemonic::Sts | Mnemonic::Ldsm | Mnemonic::Atoms => MemorySpace::Shared,
            Mnemonic::Ldgsts => MemorySpace::GlobalToShared,
            Mnemonic::Ldl | Mnemonic::Stl => MemorySpace::Local,
            Mnemonic::Ldc => MemorySpace::Constant,
            Mnemonic::Ld | Mnemonic::St | Mnemonic::Atom => MemorySpace::Global,
            _ => return None,
        })
    }

    /// Latency class (§2.3.1): fixed for ALU operations, variable for memory
    /// and long-latency units.
    #[must_use]
    pub fn latency_class(&self) -> LatencyClass {
        if self.is_memory() {
            return LatencyClass::Variable;
        }
        match self.base {
            Mnemonic::Mufu | Mnemonic::S2r | Mnemonic::I2f | Mnemonic::F2i | Mnemonic::Shfl => {
                LatencyClass::Variable
            }
            _ => LatencyClass::Fixed,
        }
    }

    /// Returns true for barrier / synchronisation instructions, across which
    /// the CuAsmRL action space never reorders (§3.5).
    #[must_use]
    pub fn is_barrier_or_sync(&self) -> bool {
        matches!(
            self.base,
            Mnemonic::Bar
                | Mnemonic::Depbar
                | Mnemonic::Ldgdepbar
                | Mnemonic::Membar
                | Mnemonic::Errbar
                | Mnemonic::Fence
                | Mnemonic::Bssy
                | Mnemonic::Bsync
                | Mnemonic::Warpsync
                | Mnemonic::Cctl
        )
    }

    /// Returns true for control-flow instructions (basic-block terminators).
    #[must_use]
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self.base,
            Mnemonic::Bra
                | Mnemonic::Brx
                | Mnemonic::Jmp
                | Mnemonic::Call
                | Mnemonic::Ret
                | Mnemonic::Exit
        )
    }

    /// Returns true if the instruction may not be moved by the scheduler,
    /// nor may other instructions be moved across it.
    #[must_use]
    pub fn is_scheduling_fence(&self) -> bool {
        self.is_barrier_or_sync() || self.is_control_flow()
    }

    /// Returns true for tensor-core matrix-multiply-accumulate instructions.
    #[must_use]
    pub fn is_mma(&self) -> bool {
        matches!(self.base, Mnemonic::Hmma | Mnemonic::Imma)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for m in &self.modifiers {
            write!(f, ".{m}")?;
        }
        Ok(())
    }
}

impl FromStr for Opcode {
    type Err = SassError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let base_text = parts
            .next()
            .ok_or_else(|| SassError::Operand("empty opcode".to_string()))?;
        let base: Mnemonic = base_text.parse()?;
        let modifiers: Vec<String> = parts.map(str::to_string).collect();
        Ok(Opcode { base, modifiers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_opcode_with_modifiers() {
        let op: Opcode = "LDGSTS.E.BYPASS.LTC128B.128".parse().unwrap();
        assert_eq!(*op.base(), Mnemonic::Ldgsts);
        assert_eq!(op.modifiers(), ["E", "BYPASS", "LTC128B", "128"]);
        assert!(op.has_modifier("BYPASS"));
        assert!(!op.has_modifier("WIDE"));
        assert_eq!(op.to_string(), "LDGSTS.E.BYPASS.LTC128B.128");
    }

    #[test]
    fn classification_of_memory_ops() {
        for (text, space) in [
            ("LDG.E", MemorySpace::Global),
            ("STG.E", MemorySpace::Global),
            ("LDS.128", MemorySpace::Shared),
            ("STS", MemorySpace::Shared),
            ("LDGSTS.E.BYPASS", MemorySpace::GlobalToShared),
            ("LDC", MemorySpace::Constant),
            ("LDL", MemorySpace::Local),
        ] {
            let op: Opcode = text.parse().unwrap();
            assert!(op.is_memory(), "{text} should be memory");
            assert_eq!(op.memory_space(), Some(space), "{text}");
            assert_eq!(op.latency_class(), LatencyClass::Variable, "{text}");
        }
    }

    #[test]
    fn classification_of_alu_ops() {
        for text in [
            "IADD3",
            "IMAD.WIDE",
            "MOV",
            "FFMA",
            "HADD2",
            "SEL",
            "LEA",
            "HMMA.16816.F32",
        ] {
            let op: Opcode = text.parse().unwrap();
            assert!(!op.is_memory(), "{text}");
            assert_eq!(op.latency_class(), LatencyClass::Fixed, "{text}");
        }
    }

    #[test]
    fn classification_of_sync_and_control_flow() {
        for text in [
            "BAR.SYNC",
            "DEPBAR.LE",
            "LDGDEPBAR",
            "MEMBAR.GPU",
            "BSSY",
            "BSYNC",
        ] {
            let op: Opcode = text.parse().unwrap();
            assert!(op.is_barrier_or_sync(), "{text}");
            assert!(op.is_scheduling_fence(), "{text}");
        }
        for text in ["BRA", "EXIT", "RET.ABS.NODEC"] {
            let op: Opcode = text.parse().unwrap();
            assert!(op.is_control_flow(), "{text}");
            assert!(op.is_scheduling_fence(), "{text}");
        }
        let imad: Opcode = "IMAD".parse().unwrap();
        assert!(!imad.is_scheduling_fence());
    }

    #[test]
    fn unknown_mnemonics_round_trip() {
        let op: Opcode = "FRobNICATE.X.Y".parse().unwrap();
        assert_eq!(op.to_string(), "FRobNICATE.X.Y");
        assert!(!op.is_memory());
    }

    #[test]
    fn variable_latency_non_memory() {
        for text in ["MUFU.RCP", "S2R", "I2F.F32.S32"] {
            let op: Opcode = text.parse().unwrap();
            assert_eq!(op.latency_class(), LatencyClass::Variable, "{text}");
        }
    }

    #[test]
    fn mma_detection() {
        assert!("HMMA.16816.F32".parse::<Opcode>().unwrap().is_mma());
        assert!(!"FFMA".parse::<Opcode>().unwrap().is_mma());
    }
}
