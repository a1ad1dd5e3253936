//! A kernel section: an ordered list of labels and instructions.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::{parse_program, Instruction, SassError};

/// One item of a SASS listing: either a label or an instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Item {
    /// A code label such as `.L_x_1:`.
    Label(String),
    /// An instruction.
    Instr(Instruction),
}

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
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Program {
    items: Vec<Item>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Program { items: Vec::new() }
    }

    /// Creates a program from a list of items.
    #[must_use]
    pub fn from_items(items: Vec<Item>) -> Self {
        Program { items }
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: Instruction) {
        self.items.push(Item::Instr(instruction));
    }

    /// The raw items (labels and instructions) in listing order.
    #[must_use]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Iterates over the instructions in listing order, skipping labels.
    pub fn instructions(&self) -> impl Iterator<Item = &Instruction> {
        self.items.iter().filter_map(|item| match item {
            Item::Instr(i) => Some(i),
            Item::Label(_) => None,
        })
    }

    /// Number of instructions (labels excluded).
    #[must_use]
    pub fn instruction_count(&self) -> usize {
        self.instructions().count()
    }

    /// Returns the instruction with the given instruction index (labels are
    /// not counted), or `None` if out of range.
    #[must_use]
    pub fn instruction(&self, index: usize) -> Option<&Instruction> {
        self.instructions().nth(index)
    }

    /// Mutable access to the instruction with the given instruction index.
    pub fn instruction_mut(&mut self, index: usize) -> Option<&mut Instruction> {
        self.items
            .iter_mut()
            .filter_map(|item| match item {
                Item::Instr(i) => Some(i),
                Item::Label(_) => None,
            })
            .nth(index)
    }

    /// Swaps the instructions at instruction indices `a` and `b`.
    ///
    /// Labels keep their positions in the item list; only the instructions
    /// move. This is the primitive mutation applied by the assembly game.
    ///
    /// # Errors
    ///
    /// Returns an error if either index is out of range.
    pub fn swap_instructions(&mut self, a: usize, b: usize) -> Result<(), SassError> {
        // One scan up to the later of the two instructions.
        let (mut ia, mut ib) = (None, None);
        let mut index = 0usize;
        for (position, item) in self.items.iter().enumerate() {
            if let Item::Instr(_) = item {
                if index == a {
                    ia = Some(position);
                }
                if index == b {
                    ib = Some(position);
                }
                if ia.is_some() && ib.is_some() {
                    break;
                }
                index += 1;
            }
        }
        let out_of_range =
            |index: usize| SassError::Encoding(format!("instruction index {index} out of range"));
        let ia = ia.ok_or_else(|| out_of_range(a))?;
        let ib = ib.ok_or_else(|| out_of_range(b))?;
        self.items.swap(ia, ib);
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
        let mut start = 0usize;
        let mut index = 0usize;
        for item in &self.items {
            match item {
                Item::Label(_) => {
                    if index > start {
                        blocks.push(BasicBlock { start, end: index });
                    }
                    start = index;
                }
                Item::Instr(inst) => {
                    index += 1;
                    if inst.opcode().is_scheduling_fence() {
                        blocks.push(BasicBlock { start, end: index });
                        start = index;
                    }
                }
            }
        }
        if index > start {
            blocks.push(BasicBlock { start, end: index });
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
        self.instructions()
            .enumerate()
            .filter_map(|(i, inst)| inst.opcode().is_memory().then_some(i))
            .collect()
    }

    /// The largest operand count over all instructions; operand embeddings
    /// are padded to this width (§3.4).
    #[must_use]
    pub fn max_operand_count(&self) -> usize {
        self.instructions()
            .map(|i| i.operands().len())
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in &self.items {
            match item {
                Item::Label(name) => writeln!(f, "{name}:")?,
                Item::Instr(inst) => writeln!(f, "{inst}")?,
            }
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
        assert_eq!(p.items().len(), 6);
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
        // The label stays at the same item position.
        assert!(matches!(p.items()[2], Item::Label(_)));
        assert!(p.instruction(2).unwrap().opcode().is_memory());
        assert!(!p.instruction(3).unwrap().opcode().is_memory());
    }

    #[test]
    fn swap_out_of_range_is_an_error() {
        let mut p = sample();
        assert!(p.swap_instructions(0, 99).is_err());
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
        let mut p = Program::from_items(vec![Item::Label(".L_start".to_string())]);
        p.push("MOV R0, 0x1 ;".parse().unwrap());
        assert_eq!(p.instruction_count(), 1);
        assert_eq!(p.basic_blocks().len(), 1);
    }
}
