//! A kernel section: its instructions plus the labels anchored between them.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::parser::parse_program;
use crate::{Instruction, SassError};

/// A basic block: a maximal range of instructions with no label in the
/// middle and no scheduling fence (branch, barrier, synchronisation) other
/// than possibly the final instruction.
///
/// CuAsmRL only reorders instructions *within* a basic block (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Index (into [`Program::instructions`]) of the first instruction.
    pub start: usize,
    /// One past the index of the last instruction.
    pub end: usize,
}

impl BasicBlock {
    /// Number of instructions in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns true if the block contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns true if the given instruction index lies in this block.
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        index >= self.start && index < self.end
    }
}

/// A parsed kernel section.
///
/// Scheduling only reorders instructions inside basic blocks, so a label
/// never moves: it is stored once, anchored at the index of the instruction
/// it precedes (the instruction count for a trailing label), and every
/// instruction position is a plain index into [`Program::instructions`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    instructions: Vec<Instruction>,
    /// `(anchor, name)` in listing order, so anchors never decrease. Only
    /// the parser adds a label, and it rejects a name defined twice.
    labels: Vec<(usize, String)>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Program::default()
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: Instruction) {
        self.instructions.push(instruction);
    }

    /// Appends a label before the next instruction pushed. The caller
    /// guarantees the name is not yet defined.
    pub(crate) fn push_label(&mut self, name: String) {
        self.labels.push((self.instructions.len(), name));
    }

    /// The instructions in listing order.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// The labels in listing order, each with the index of the instruction
    /// it precedes (the instruction count for a trailing label).
    #[must_use]
    pub fn labels(&self) -> &[(usize, String)] {
        &self.labels
    }

    /// Number of instructions (labels excluded).
    #[must_use]
    pub fn instruction_count(&self) -> usize {
        self.instructions.len()
    }

    /// Returns the instruction with the given instruction index (labels are
    /// not counted), or `None` if out of range.
    #[must_use]
    pub fn instruction(&self, index: usize) -> Option<&Instruction> {
        self.instructions.get(index)
    }

    /// Mutable access to the instruction with the given instruction index.
    pub fn instruction_mut(&mut self, index: usize) -> Option<&mut Instruction> {
        self.instructions.get_mut(index)
    }

    /// Swaps the instructions at instruction indices `a` and `b`; labels
    /// stay anchored where they were. This is the primitive mutation
    /// applied by the assembly game.
    ///
    /// # Errors
    ///
    /// Returns an error if either index is out of range.
    pub fn swap_instructions(&mut self, a: usize, b: usize) -> Result<(), SassError> {
        let index = a.max(b);
        if index >= self.instructions.len() {
            return Err(SassError::Index(index));
        }
        self.instructions.swap(a, b);
        Ok(())
    }

    /// Basic blocks of the program, as ranges of instruction indices.
    ///
    /// A block ends at a label, after a control-flow instruction, or after a
    /// barrier/synchronisation instruction (the fences across which CuAsmRL
    /// never moves instructions).
    #[must_use]
    pub fn basic_blocks(&self) -> Vec<BasicBlock> {
        let mut blocks = Vec::new();
        let mut anchors = self.labels.iter().map(|&(at, _)| at).peekable();
        let mut start = 0usize;
        for (index, inst) in self.instructions.iter().enumerate() {
            let mut labelled = false;
            while anchors.next_if_eq(&index).is_some() {
                labelled = true;
            }
            if labelled && index > start {
                blocks.push(BasicBlock { start, end: index });
                start = index;
            }
            if inst.opcode().is_scheduling_fence() {
                blocks.push(BasicBlock {
                    start,
                    end: index + 1,
                });
                start = index + 1;
            }
        }
        if self.instructions.len() > start {
            blocks.push(BasicBlock {
                start,
                end: self.instructions.len(),
            });
        }
        blocks
    }

    /// The basic block containing the given instruction index, if any.
    #[must_use]
    pub fn block_of(&self, index: usize) -> Option<BasicBlock> {
        self.basic_blocks().into_iter().find(|b| b.contains(index))
    }

    /// Indices of all memory load/store instructions (the CuAsmRL action
    /// space is restricted to these).
    #[must_use]
    pub fn memory_instruction_indices(&self) -> Vec<usize> {
        self.instructions
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| inst.opcode().is_memory().then_some(i))
            .collect()
    }

    /// The largest operand count over all instructions; operand embeddings
    /// are padded to this width (§3.4).
    #[must_use]
    pub fn max_operand_count(&self) -> usize {
        self.instructions
            .iter()
            .map(|i| i.operands().len())
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut labels = self.labels.iter().peekable();
        for (index, inst) in self.instructions.iter().enumerate() {
            while let Some((_, name)) = labels.next_if(|(at, _)| *at == index) {
                writeln!(f, "{name}:")?;
            }
            writeln!(f, "{inst}")?;
        }
        for (_, name) in labels {
            writeln!(f, "{name}:")?;
        }
        Ok(())
    }
}

impl FromStr for Program {
    type Err = SassError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_program(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
[B------:R-:W0:-:S02] LDG.E R2, [R10.64] ;
[B------:R-:W-:-:S04] IADD3 R4, R6, 0x1, RZ ;
.L_x_1:
[B0-----:R-:W-:-:S04] IMAD R8, R4, R2, RZ ;
[B------:R-:W-:-:S02] STG.E [R12.64], R8 ;
[B------:R-:W-:-:S05] EXIT ;
";

    fn sample() -> Program {
        SAMPLE.parse().unwrap()
    }

    #[test]
    fn instruction_iteration_skips_labels() {
        let p = sample();
        assert_eq!(p.instruction_count(), 5);
        assert_eq!(p.labels(), [(2, ".L_x_1".to_string())]);
    }

    #[test]
    fn basic_blocks_split_on_labels_and_fences() {
        let p = sample();
        let blocks = p.basic_blocks();
        assert_eq!(
            blocks,
            vec![
                BasicBlock { start: 0, end: 2 },
                BasicBlock { start: 2, end: 5 },
            ]
        );
        assert_eq!(p.block_of(1), Some(BasicBlock { start: 0, end: 2 }));
        assert_eq!(p.block_of(3), Some(BasicBlock { start: 2, end: 5 }));
        assert_eq!(p.block_of(10), None);
    }

    #[test]
    fn memory_instruction_indices() {
        let p = sample();
        assert_eq!(p.memory_instruction_indices(), vec![0, 3]);
    }

    #[test]
    fn swap_moves_instructions_but_not_labels() {
        let mut p = sample();
        p.swap_instructions(2, 3).unwrap();
        // The label stays anchored before instruction 2.
        assert_eq!(p.labels(), [(2, ".L_x_1".to_string())]);
        assert!(p.instruction(2).unwrap().opcode().is_memory());
        assert!(!p.instruction(3).unwrap().opcode().is_memory());
    }

    #[test]
    fn labels_anchor_before_the_instruction_they_precede() {
        let text = "\
.L_entry:
[B------:R-:W-:-:S04] MOV R0, 0x1 ;
.L_a:
.L_b:
[B------:R-:W-:-:S04] MOV R1, 0x2 ;
[B------:R-:W-:-:S05] EXIT ;
.L_end:
";
        let p: Program = text.parse().unwrap();
        let anchors: Vec<(usize, &str)> = p
            .labels()
            .iter()
            .map(|(at, name)| (*at, name.as_str()))
            .collect();
        assert_eq!(
            anchors,
            [(0, ".L_entry"), (1, ".L_a"), (1, ".L_b"), (3, ".L_end")]
        );
        assert_eq!(
            p.basic_blocks(),
            [
                BasicBlock { start: 0, end: 1 },
                BasicBlock { start: 1, end: 3 },
            ]
        );
        assert_eq!(p.to_string(), text);
    }

    #[test]
    fn swap_out_of_range_is_an_error() {
        let mut p = sample();
        assert!(p.swap_instructions(0, 99).is_err());
        assert!(p.swap_instructions(5, 0).is_err());
        assert_eq!(p, sample());
    }

    #[test]
    fn display_round_trip() {
        let p = sample();
        let printed = p.to_string();
        let reparsed: Program = printed.parse().unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn max_operand_count() {
        let p = sample();
        assert_eq!(p.max_operand_count(), 4);
        assert_eq!(Program::new().max_operand_count(), 0);
    }

    #[test]
    fn push_and_block_of_empty() {
        assert!(Program::new().basic_blocks().is_empty());
        let mut p: Program = ".L_start:\n".parse().unwrap();
        p.push("MOV R0, 0x1 ;".parse().unwrap());
        assert_eq!(p.instruction_count(), 1);
        assert_eq!(p.basic_blocks().len(), 1);
    }
}
