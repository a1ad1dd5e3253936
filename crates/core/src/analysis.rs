//! Pre-game static analysis passes (§3.2).
//!
//! Before the assembly game starts, three passes run over the disassembled
//! kernel:
//!
//! 1. a **stall-count inference** pass records, for every memory instruction
//!    that consumes the output of a fixed-latency instruction in the same
//!    basic block, the accumulated stall count between the def and the use;
//!    this either confirms a table entry or infers a new (safe, possibly
//!    over-estimated) latency for opcodes missing from the table. Memory
//!    instructions whose producers cannot be found inside the block are
//!    added to a **denylist** and never moved;
//! 2. an **embedding preparation** pass builds the operand/memory tables and
//!    records the maximum operand count (used for padding);
//! 3. a **memory instruction** pass counts the (non-denylisted) memory
//!    instructions, which defines the action space.

use std::collections::{HashMap, HashSet};

use sass::{Operand, Program, Register};
use serde::{Deserialize, Serialize};

use crate::stall_table::StallTable;

/// How a memory instruction's stall-count dependencies were resolved
/// (Figure 7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Resolution {
    /// Every fixed-latency producer was found in the built-in stall table.
    Table,
    /// At least one producer latency had to be inferred from the schedule.
    Inferred,
    /// A producer could not be resolved inside the basic block; the
    /// instruction is denylisted.
    Denylisted,
}

/// Breakdown of dependency resolutions over a kernel (Figure 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResolutionBreakdown {
    /// Memory instructions fully resolved by the built-in table.
    pub table: usize,
    /// Memory instructions that needed at least one inferred latency.
    pub inferred: usize,
    /// Denylisted memory instructions.
    pub denylisted: usize,
}

impl ResolutionBreakdown {
    /// Total classified memory instructions.
    #[must_use]
    pub fn total(&self) -> usize {
        self.table + self.inferred + self.denylisted
    }

    /// Percentages `(table, inferred, denylisted)` summing to ~100.
    #[must_use]
    pub fn percentages(&self) -> (f64, f64, f64) {
        let total = self.total().max(1) as f64;
        (
            self.table as f64 / total * 100.0,
            self.inferred as f64 / total * 100.0,
            self.denylisted as f64 / total * 100.0,
        )
    }
}

/// The result of the pre-game analysis.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Analysis {
    /// Stall table augmented with inferred entries.
    pub stalls: StallTable,
    /// Instruction indices of denylisted memory instructions (never moved).
    pub denylist: HashSet<usize>,
    /// Indices of all memory instructions.
    pub memory_indices: Vec<usize>,
    /// Map from register to a small integer used by the operand embedding.
    pub register_table: HashMap<Register, usize>,
    /// Maximum operand count over the kernel (embedding padding width).
    pub max_operands: usize,
    /// Figure 7 resolution breakdown.
    pub breakdown: ResolutionBreakdown,
}

impl Analysis {
    /// Memory instructions that may be moved (not denylisted).
    #[must_use]
    pub fn movable_memory_indices(&self) -> Vec<usize> {
        self.memory_indices
            .iter()
            .copied()
            .filter(|i| !self.denylist.contains(i))
            .collect()
    }
}

/// Runs the pre-game analysis passes over a program.
#[must_use]
pub fn analyze(program: &Program, builtin: &StallTable) -> Analysis {
    let instructions = program.instructions();
    let blocks = program.basic_blocks();
    let block_of = |idx: usize| blocks.iter().find(|b| b.contains(idx)).copied();

    let mut stalls = builtin.clone();
    let mut denylist = HashSet::new();
    let mut breakdown = ResolutionBreakdown::default();
    let memory_indices: Vec<usize> = program.memory_instruction_indices();
    // Hoisted per-instruction facts: the reverse scans below visit each
    // (memory instruction, use, producer candidate) triple, so decoding
    // defs/stalls/latency classes inside them is quadratic in block size.
    // Decoding once per instruction keeps the scans allocation-free without
    // changing a single comparison.
    let defs: Vec<Vec<Register>> = instructions.iter().map(|inst| inst.defs()).collect();
    let issue_stall: Vec<u64> = instructions
        .iter()
        .map(|inst| u64::from(inst.control().stall()).max(1))
        .collect();
    let fixed_latency: Vec<bool> = instructions
        .iter()
        .map(|inst| inst.opcode().latency_class() == sass::LatencyClass::Fixed)
        .collect();
    // Registers that are never written anywhere in the kernel are inputs set
    // up by the driver (e.g. uniform descriptor registers); they carry no
    // intra-kernel dependence.
    let ever_defined: HashSet<Register> = defs.iter().flatten().copied().collect();

    // Pass 1: stall-count inference / denylist construction.
    for &mem_idx in &memory_indices {
        let Some(block) = block_of(mem_idx) else {
            denylist.insert(mem_idx);
            breakdown.denylisted += 1;
            continue;
        };
        let uses = instructions[mem_idx].uses();
        let mut all_in_table = true;
        let mut any_unresolved = false;
        for reg in uses {
            // Scan preceding instructions within the block for the defining
            // instruction, accumulating stall counts along the way.
            let mut accumulated: u64 = 0;
            let mut found = false;
            for j in (block.start..mem_idx).rev() {
                accumulated += issue_stall[j];
                if defs[j].contains(&reg) {
                    found = true;
                    if fixed_latency[j] {
                        let name = instructions[j].opcode().full_name();
                        if builtin.lookup(&name).is_none() {
                            // Infer: the original schedule is valid, so the
                            // accumulated distance is a safe (possibly
                            // over-estimated) latency for this opcode.
                            stalls.insert_min(name, accumulated.min(15) as u8);
                            all_in_table = false;
                        }
                    }
                    break;
                }
            }
            if !found && ever_defined.contains(&reg) {
                // Defined outside the basic block (or by a variable-latency
                // instruction protected by barriers elsewhere): if no
                // definition is visible at all within the block and the
                // register is not protected by a wait barrier, the
                // dependence cannot be checked — denylist the instruction.
                let protected = instructions[mem_idx].control().wait_mask() != 0;
                if !protected {
                    any_unresolved = true;
                }
            }
        }
        if any_unresolved {
            denylist.insert(mem_idx);
            breakdown.denylisted += 1;
        } else if all_in_table {
            breakdown.table += 1;
        } else {
            breakdown.inferred += 1;
        }
    }

    // Pass 2: embedding preparation.
    let mut register_table = HashMap::new();
    for inst in instructions {
        for operand in inst.operands() {
            for reg in operand.registers() {
                let next = register_table.len();
                register_table.entry(reg).or_insert(next);
            }
        }
        // Memory locations referenced through constant banks also get slots.
        for operand in inst.operands() {
            if let Operand::Const { .. } = operand {
                // Constants are embedded by value, no table entry needed.
            }
        }
    }
    let max_operands = program.max_operand_count();

    Analysis {
        stalls,
        denylist,
        memory_indices,
        register_table,
        max_operands,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
[B------:R-:W-:-:S04] MOV R4, 0x100 ;
[B------:R-:W-:-:S05] FROBNICATE R8, R4, 0x2 ;
[B------:R-:W-:-:S02] STG.E [R4], R8 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
.L_next:
[B0-----:R-:W-:-:S04] IADD3 R6, R2, 0x1, RZ ;
[B------:R-:W-:-:S02] STG.E [R6], R4 ;
[B------:R-:W-:-:S05] EXIT ;
";

    fn sample_analysis() -> Analysis {
        let program: Program = SAMPLE.parse().unwrap();
        analyze(&program, &StallTable::builtin_a100())
    }

    #[test]
    fn memory_instructions_are_found() {
        let analysis = sample_analysis();
        assert_eq!(analysis.memory_indices, vec![2, 3, 5]);
    }

    #[test]
    fn unknown_fixed_latency_producers_are_inferred_from_the_schedule() {
        let analysis = sample_analysis();
        // FROBNICATE is not in the table; the distance to its consumer STG
        // is its own stall count (5), which becomes the inferred latency.
        assert_eq!(analysis.stalls.lookup("FROBNICATE"), Some(5));
        assert!(analysis.breakdown.inferred >= 1);
    }

    #[test]
    fn producers_outside_the_block_denylist_the_consumer() {
        let analysis = sample_analysis();
        // The final STG uses R4, which is defined in the *previous* block
        // and not protected by a wait barrier; the cross-block dependence
        // denylists it.
        assert!(analysis.denylist.contains(&5));
        assert!(analysis.breakdown.denylisted >= 1);
        // Denylisted instructions are excluded from the movable set.
        assert!(!analysis.movable_memory_indices().contains(&5));
        assert!(analysis.movable_memory_indices().contains(&2));
    }

    #[test]
    fn table_resolved_instructions_are_counted() {
        let analysis = sample_analysis();
        assert!(analysis.breakdown.table >= 1);
        let (db, inf, deny) = analysis.breakdown.percentages();
        assert!((db + inf + deny - 100.0).abs() < 1e-9);
    }

    #[test]
    fn register_table_and_padding_width_are_recorded() {
        let analysis = sample_analysis();
        assert!(analysis.register_table.contains_key(&Register::Gpr(4)));
        assert!(analysis.max_operands >= 3);
    }

    #[test]
    fn generated_kernels_mostly_resolve_from_the_table() {
        // Figure 7: on the evaluated kernels a large fraction of stall-count
        // dependencies resolve from the built-in table, some are inferred,
        // and some are denylisted.
        use kernels::{generate, KernelConfig, KernelKind, KernelSpec, ScheduleStyle};
        let spec = KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16);
        let kernel = generate(
            &spec,
            &KernelConfig::default_compute(),
            ScheduleStyle::Baseline,
        );
        let analysis = analyze(&kernel.program, &StallTable::builtin_a100());
        assert!(analysis.breakdown.total() > 0);
        assert!(analysis.breakdown.table > 0);
        assert!(!analysis.movable_memory_indices().is_empty());
    }
}
