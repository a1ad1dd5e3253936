//! State embedding (§3.4).
//!
//! Each SASS instruction is embedded into a fixed-width vector: the control
//! code fields (wait mask, read/write barrier, yield, stall), a memory /
//! non-memory opcode flag, the operand register indices normalized by the
//! size of the register table (padded with `-1` to the maximum operand count
//! of the kernel), and a trailing block of **architecture features** — a
//! normalized description of the GPU backend the schedule is being timed on
//! (compute capability, ALU/MMA latency, register banks), so one policy can
//! condition on which architecture it is optimizing for. The whole schedule
//! becomes a matrix with one row per instruction — the observation consumed
//! by the RL agent.

use gpusim::ArchSpec;
use nn::Matrix;
use sass::Program;

use crate::analysis::Analysis;

/// Number of fixed (non-operand) features per instruction.
pub const FIXED_FEATURES: usize = 11;

/// Number of architecture features appended to every instruction row.
pub const ARCH_FEATURES: usize = 4;

/// The normalized architecture-feature block shared by every row of an
/// observation: compute capability, ALU latency, MMA latency and register
/// bank count, each scaled into roughly `[0, 1]`.
#[must_use]
pub fn arch_features(arch: &ArchSpec) -> [f32; ARCH_FEATURES] {
    [
        arch.class.sm_version() as f32 / 100.0,
        arch.latency.alu as f32 / 16.0,
        arch.latency.mma as f32 / 64.0,
        arch.banks.banks as f32 / 8.0,
    ]
}

/// Embeds one instruction into `features` values.
fn embed_instruction(
    inst: &sass::Instruction,
    analysis: &Analysis,
    features: usize,
    arch: &[f32; ARCH_FEATURES],
) -> Vec<f32> {
    let mut row = Vec::with_capacity(features);
    let cc = inst.control();
    for b in 0..6u8 {
        row.push(if cc.waits_on(b) { 1.0 } else { -1.0 });
    }
    row.push(cc.read_barrier().map_or(-1.0, f32::from));
    row.push(cc.write_barrier().map_or(-1.0, f32::from));
    row.push(if cc.yield_flag() { 1.0 } else { -1.0 });
    row.push(f32::from(cc.stall()) / 15.0);
    row.push(if inst.opcode().is_memory() { 1.0 } else { -1.0 });
    let table_len = analysis.register_table.len().max(1) as f32;
    for operand in inst.operands().iter().take(analysis.max_operands) {
        let value = operand
            .registers()
            .first()
            .and_then(|r| analysis.register_table.get(r))
            .map_or(-1.0, |idx| *idx as f32 / table_len);
        row.push(value);
    }
    while row.len() < features - ARCH_FEATURES {
        row.push(-1.0);
    }
    row.extend_from_slice(arch);
    row
}

/// Embeds the whole schedule as a `[instructions x features]` matrix, with
/// the given architecture-feature block appended to every row.
#[must_use]
pub fn embed_program(program: &Program, analysis: &Analysis, arch: &ArchSpec) -> Matrix {
    let features = feature_count(analysis);
    let arch_row = arch_features(arch);
    let rows: Vec<Vec<f32>> = program
        .instructions()
        .iter()
        .map(|inst| embed_instruction(inst, analysis, features, &arch_row))
        .collect();
    let mut matrix = Matrix::zeros(rows.len(), features);
    for (r, row) in rows.iter().enumerate() {
        for (c, v) in row.iter().enumerate() {
            matrix.set(r, c, *v);
        }
    }
    matrix
}

/// Re-embeds only the given instruction rows of an existing observation
/// matrix in place. A row's embedding depends solely on its own instruction
/// plus the analysis-wide register table, operand padding width and the
/// architecture block, so after an adjacent swap only the two moved rows
/// change — provided the register table and padding width are unchanged
/// (the caller checks this and falls back to [`embed_program`] otherwise).
/// Rows outside the matrix are ignored.
pub fn embed_rows_into(
    matrix: &mut Matrix,
    program: &Program,
    rows: &[usize],
    analysis: &Analysis,
    arch: &ArchSpec,
) {
    let features = feature_count(analysis);
    debug_assert_eq!(matrix.cols(), features);
    let arch_row = arch_features(arch);
    for &r in rows {
        let Some(inst) = program.instruction(r) else {
            continue;
        };
        if r >= matrix.rows() {
            continue;
        }
        let row = embed_instruction(inst, analysis, features, &arch_row);
        for (c, v) in row.iter().enumerate() {
            matrix.set(r, c, *v);
        }
    }
}

/// Number of embedding features for a program analysed with `analysis`.
#[must_use]
pub fn feature_count(analysis: &Analysis) -> usize {
    FIXED_FEATURES + analysis.max_operands + ARCH_FEATURES
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::stall_table::StallTable;

    const SAMPLE: &str = "\
[B------:R-:W2:Y:S02] LDG.E R0, [R2.64] ;
[B--2---:R-:W-:-:S04] IADD3 R4, R0, 0x1, RZ ;
[B------:R-:W-:-:S05] EXIT ;
";

    #[test]
    fn embedding_has_one_row_per_instruction_and_fixed_width() {
        let program: Program = SAMPLE.parse().unwrap();
        let analysis = analyze(&program, &StallTable::builtin_a100());
        let m = embed_program(&program, &analysis, &ArchSpec::ampere());
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), feature_count(&analysis));
        // First instruction: memory flag is +1, write barrier is 2, yield set.
        let row = m.row(0);
        assert_eq!(row[7], 2.0);
        assert_eq!(row[8], 1.0);
        assert_eq!(row[10], 1.0);
        // Second instruction: non-memory flag is -1 and it waits on barrier 2.
        assert_eq!(m.row(1)[10], -1.0);
        assert_eq!(m.row(1)[2], 1.0);
    }

    #[test]
    fn missing_operands_are_padded_with_minus_one() {
        let program: Program = SAMPLE.parse().unwrap();
        let analysis = analyze(&program, &StallTable::builtin_a100());
        let m = embed_program(&program, &analysis, &ArchSpec::ampere());
        let exit_row = m.row(2);
        let operand_cols = FIXED_FEATURES..FIXED_FEATURES + analysis.max_operands;
        assert!(exit_row[operand_cols].iter().all(|&v| v == -1.0));
    }

    #[test]
    fn operand_indices_are_normalized() {
        let program: Program = SAMPLE.parse().unwrap();
        let analysis = analyze(&program, &StallTable::builtin_a100());
        let m = embed_program(&program, &analysis, &ArchSpec::ampere());
        for r in 0..m.rows() {
            for &v in &m.row(r)[FIXED_FEATURES..FIXED_FEATURES + analysis.max_operands] {
                assert!((-1.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn arch_features_distinguish_backends_and_fill_the_tail_columns() {
        let program: Program = SAMPLE.parse().unwrap();
        let analysis = analyze(&program, &StallTable::builtin_a100());
        let ampere = embed_program(&program, &analysis, &ArchSpec::ampere());
        let hopper = embed_program(&program, &analysis, &ArchSpec::hopper());
        assert_eq!(ampere.cols(), hopper.cols());
        let tail = ampere.cols() - ARCH_FEATURES;
        // Every row carries its backend's feature block...
        for r in 0..ampere.rows() {
            assert_eq!(ampere.row(r)[tail..], arch_features(&ArchSpec::ampere()));
            assert_eq!(hopper.row(r)[tail..], arch_features(&ArchSpec::hopper()));
        }
        // ...and the blocks differ across backends.
        assert_ne!(
            arch_features(&ArchSpec::ampere()),
            arch_features(&ArchSpec::hopper())
        );
        assert_ne!(
            arch_features(&ArchSpec::ampere()),
            arch_features(&ArchSpec::turing())
        );
    }
}
