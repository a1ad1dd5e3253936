//! Binary encoding of a kernel section.
//!
//! Real Ampere cubins encode each SASS instruction as a 128-bit word whose
//! layout is undocumented. The CuAsmRL optimizer never needs to interpret
//! those bits — it always works on the disassembled text — so this crate uses
//! a self-describing encoding: a fixed header, the packed control codes (one
//! 32-bit word per instruction, exercising [`ControlCode::to_bits`]), and the
//! canonical text of the listing. The encoding is deterministic and
//! round-trips exactly, which is what the cubin interception workflow of
//! §4.1 relies on.

use crate::{ControlCode, Program, SassError};

/// Magic bytes identifying an encoded kernel section.
const MAGIC: &[u8; 4] = b"SASS";
/// Encoding format version.
const VERSION: u32 = 1;

/// Encodes a program into a byte vector.
///
/// The result contains a header, the packed control code of every
/// instruction, and the canonical listing text.
#[must_use]
pub fn encode_program(program: &Program) -> Vec<u8> {
    let text = program.to_string();
    let control_words: Vec<u32> = program
        .instructions()
        .iter()
        .map(|inst| inst.control().to_bits())
        .collect();
    let mut buf = Vec::with_capacity(16 + control_words.len() * 4 + text.len());
    let count = u32::try_from(control_words.len()).expect("instruction count fits in u32");
    let text_len = u32::try_from(text.len()).expect("listing length fits in u32");
    buf.extend_from_slice(MAGIC);
    for word in [VERSION, count, text_len].into_iter().chain(control_words) {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    buf.extend_from_slice(text.as_bytes());
    buf
}

/// Decodes a byte vector produced by [`encode_program`].
///
/// # Errors
///
/// Returns [`SassError::Encoding`] if the header is malformed, the buffer is
/// truncated, or the control-code words disagree with the listing text.
pub fn decode_program(bytes: &[u8]) -> Result<Program, SassError> {
    let Some((header, body)) = bytes.split_first_chunk::<16>() else {
        return Err(SassError::Encoding("truncated header".to_string()));
    };
    let ([magic, version, count, text_len], []) = header.as_chunks::<4>() else {
        unreachable!("a 16-byte header is four words")
    };
    if magic != MAGIC {
        return Err(SassError::Encoding(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let version = u32::from_le_bytes(*version);
    if version != VERSION {
        return Err(SassError::Encoding(format!(
            "unsupported encoding version {version}"
        )));
    }
    let instruction_count = u32::from_le_bytes(*count) as usize;
    let text_len = u32::from_le_bytes(*text_len) as usize;
    if body.len() < instruction_count * 4 + text_len {
        return Err(SassError::Encoding("truncated body".to_string()));
    }
    let (words, text) = body.split_at(instruction_count * 4);
    let control_words = words
        .as_chunks::<4>()
        .0
        .iter()
        .map(|w| u32::from_le_bytes(*w));
    let text = std::str::from_utf8(&text[..text_len])
        .map_err(|e| SassError::Encoding(format!("listing is not valid UTF-8: {e}")))?;
    let program: Program = text.parse()?;
    if program.instruction_count() != instruction_count {
        return Err(SassError::Encoding(format!(
            "instruction count mismatch: header says {instruction_count}, listing has {}",
            program.instruction_count()
        )));
    }
    for (inst, word) in program.instructions().iter().zip(control_words) {
        let expected = ControlCode::from_bits(word)?;
        if *inst.control() != expected {
            return Err(SassError::Encoding(
                "control code table disagrees with listing".to_string(),
            ));
        }
    }
    Ok(program)
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

    #[test]
    fn encode_decode_round_trip() {
        let program: Program = SAMPLE.parse().unwrap();
        let bytes = encode_program(&program);
        assert_eq!(&bytes[..4], MAGIC);
        let decoded = decode_program(&bytes).unwrap();
        assert_eq!(program, decoded);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let program: Program = SAMPLE.parse().unwrap();
        let mut bytes = encode_program(&program);
        bytes[0] = b'X';
        assert!(decode_program(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let program: Program = SAMPLE.parse().unwrap();
        let bytes = encode_program(&program);
        assert!(decode_program(&bytes[..bytes.len() / 2]).is_err());
        assert!(decode_program(&bytes[..8]).is_err());
    }

    #[test]
    fn empty_program_round_trips() {
        let program = Program::new();
        let decoded = decode_program(&encode_program(&program)).unwrap();
        assert_eq!(decoded.instruction_count(), 0);
    }
}
