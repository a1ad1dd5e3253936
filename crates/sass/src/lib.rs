//! Structural model of NVIDIA Ampere GPU SASS assembly.
//!
//! SASS is the native, undocumented assembly language of NVIDIA GPUs. This
//! crate provides a faithful *structural* model of Ampere-era SASS as it
//! appears in `nvdisasm`/CuAssembler listings, sufficient to drive the
//! CuAsmRL assembly game:
//!
//! * [`ControlCode`] — the per-instruction scheduling control word
//!   (`[B------:R-:W2:Y:S02]`): wait-barrier mask, read/write scoreboard
//!   barriers, yield flag and stall count.
//! * [`Register`] — general-purpose, uniform and predicate registers,
//!   including the adjacent-register pairing rule used by `.64` operands.
//! * [`Opcode`] — the opcode together with its modifiers (`.WIDE`, `.E`,
//!   `.BYPASS`, ...), and classification into fixed-latency, variable-latency,
//!   memory, and barrier/synchronisation instructions.
//! * [`Operand`] — registers, immediates, constant-bank references, and
//!   memory references with descriptor (`desc[UR18][R18.64]`) addressing.
//! * [`Instruction`] — a full instruction: guard predicate, opcode, operands
//!   and control code, with use/def analysis.
//! * [`Program`] — a kernel section: its instructions and the labels
//!   anchored between them, with basic block boundaries.
//! * [`Cubin`] — an ELF-like container whose kernel text section holds the
//!   listing's text, plus the metadata sections (symbol table, headers)
//!   that must be preserved when the scheduler rewrites only that section.
//!
//! # Example
//!
//! ```
//! use sass::{Instruction, Program};
//!
//! let listing = "\
//! [B------:R-:W2:Y:S02] LDG.E R0, [R2.64] ;
//! [B--2---:R-:W-:-:S04] IADD3 R4, R0, 0x1, RZ ;
//! [B------:R-:W-:-:S01] EXIT ;";
//! let program: Program = listing.parse()?;
//! assert_eq!(program.instruction_count(), 3);
//! let first: &Instruction = &program.instructions()[0];
//! assert!(first.opcode().is_memory());
//! assert_eq!(first.control().write_barrier(), Some(2));
//! # Ok::<(), sass::SassError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod control;
mod cubin;
mod error;
mod instruction;
mod opcode;
mod operand;
mod parser;
mod program;
mod register;

pub use control::{ArchClass, ControlCode, NUM_BARRIERS};
pub use cubin::{Cubin, Section, SectionKind, Symbol};
pub use error::SassError;
pub use instruction::{Guard, Instruction};
pub use opcode::{LatencyClass, MemorySpace, Mnemonic, Opcode};
pub use operand::{MemRef, Operand, RegOperand};
pub use program::{BasicBlock, Program};
pub use register::{adjacent_register, Register};
