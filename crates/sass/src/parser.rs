//! Listing-level parser: turns a textual SASS dump into a [`Program`].

use std::collections::HashSet;

use crate::{Instruction, Program, SassError};

/// Parses a complete SASS listing.
///
/// The accepted format mirrors CuAssembler/`nvdisasm` dumps:
///
/// * blank lines and `//` comment lines are skipped,
/// * a line ending in `:` (and not containing an instruction) is a label,
/// * any other line is an instruction, optionally prefixed by its control
///   code and guard predicate and optionally followed by a `//` comment.
///
/// # Errors
///
/// Returns a [`SassError::Parse`] identifying the offending line when any
/// instruction fails to parse or a label is defined a second time.
pub(crate) fn parse_program(text: &str) -> Result<Program, SassError> {
    let mut program = Program::new();
    let mut defined = HashSet::new();
    for (line_no, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        // Header lines emitted by disassemblers (e.g. `.headerflags`,
        // `.section`) are ignored: they are metadata, not instructions.
        if line.starts_with('.') && !line.starts_with(".L") {
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            if !label.contains(' ') && !label.contains('[') {
                if !defined.insert(label) {
                    return Err(SassError::parse(
                        line_no + 1,
                        format!("label `{label}` is already defined"),
                    ));
                }
                program.push_label(label.to_string());
                continue;
            }
        }
        let instruction: Instruction = line.parse().map_err(|e: SassError| match e {
            SassError::Parse { message, .. } => SassError::parse(line_no + 1, message),
            other => SassError::parse(line_no + 1, other.to_string()),
        })?;
        program.push(instruction);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing_with_comments_and_directives() {
        let text = "\
// disassembled kernel
.headerflags @\"EF_CUDA_SM80\"
.L_x_0:
[B------:R-:W0:-:S02] LDG.E R2, [R4.64] ; // load tile
[B0-----:R-:W-:-:S04] IADD3 R6, R2, 0x1, RZ ;

[B------:R-:W-:-:S05] EXIT ;
";
        let program = parse_program(text).unwrap();
        assert_eq!(program.instruction_count(), 3);
        assert_eq!(program.labels(), [(0, ".L_x_0".to_string())]);
    }

    #[test]
    fn reports_line_number_on_error() {
        let text = "MOV R0, 0x1 ;\nNOT_AN INSTRUCTION @@ ;\n";
        let err = parse_program(text).unwrap_err();
        match err {
            SassError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_label_defined_twice_is_an_error_on_its_second_line() {
        // A branch to `.L_a` would have two targets: the loop head or the
        // exit.
        let text = "\
.L_a:
[B------:R-:W-:-:S04] IADD3 R10, R10, 0x1, RZ ;
[B------:R-:W-:-:S04] ISETP.LT.AND P0, PT, R10, 0x3, PT ;
[B------:R-:W-:-:S06] @P0 BRA `(.L_a) ;
.L_a:
[B------:R-:W-:-:S05] EXIT ;
";
        match parse_program(text).unwrap_err() {
            SassError::Parse { line, message } => {
                assert_eq!(line, 5);
                assert!(message.contains(".L_a"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn empty_listing_is_an_empty_program() {
        let program = parse_program("\n\n// nothing\n").unwrap();
        assert_eq!(program.instruction_count(), 0);
    }

    #[test]
    fn labels_with_spaces_are_not_labels() {
        // A line such as `BAR.SYNC 0x0 ;` must not be mistaken for a label
        // even if a malformed variant ends with a colon.
        let text = ".L_loop:\nBAR.SYNC 0x0 ;\n";
        let program = parse_program(text).unwrap();
        assert_eq!(program.instruction_count(), 1);
    }
}
