//! An ELF-like cubin container.
//!
//! When CuAsmRL intercepts the compiled cubin (§4.1), it must replace *only*
//! the kernel text section while preserving every other section byte for
//! byte — symbol tables, relocation info and the ELF headers must stay
//! intact or the module will not load. This module models that constraint:
//! a [`Cubin`] is a list of named [`Section`]s plus a symbol table, and
//! [`Cubin::replace_kernel_section`] rewrites the text section of one kernel
//! without touching anything else.

use serde::{Deserialize, Serialize};

use crate::{decode_program, encode_program, Program, SassError};

/// The role of a section within the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SectionKind {
    /// Executable kernel text (encoded SASS).
    Text,
    /// Symbol table.
    SymbolTable,
    /// Kernel metadata (register counts, shared memory sizes, ...).
    Info,
    /// Constant bank initial data.
    Constant,
    /// Anything else.
    Other,
}

/// A named section of the cubin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Section {
    /// Section name, e.g. `.text.matmul_kernel`.
    pub name: String,
    /// Section role.
    pub kind: SectionKind,
    /// Raw section contents.
    pub data: Vec<u8>,
}

/// A symbol table entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Symbol {
    /// Symbol name (the kernel entry point name for text symbols).
    pub name: String,
    /// Name of the section the symbol lives in.
    pub section: String,
    /// Offset of the symbol within its section.
    pub offset: u64,
    /// Size of the symbol in bytes.
    pub size: u64,
}

/// A binary kernel container, standing in for an NVIDIA cubin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cubin {
    architecture: String,
    sections: Vec<Section>,
    symbols: Vec<Symbol>,
}

const CUBIN_MAGIC: &[u8; 4] = b"CUBN";

impl Cubin {
    /// Creates a cubin containing a single kernel.
    ///
    /// Besides the text section this synthesises the metadata sections a real
    /// cubin carries (symbol table entry, `.nv.info` blob, constant bank),
    /// so that the interception workflow has realistic invariants to
    /// preserve.
    #[must_use]
    pub fn from_kernel(architecture: &str, kernel_name: &str, program: &Program) -> Self {
        let text_name = format!(".text.{kernel_name}");
        let text = encode_program(program);
        let text_len = text.len() as u64;
        let info = format!("EIATTR_KERNEL {kernel_name} regs=255 smem=49152 arch={architecture}")
            .into_bytes();
        let sections = vec![
            Section {
                name: text_name.clone(),
                kind: SectionKind::Text,
                data: text,
            },
            Section {
                name: format!(".nv.info.{kernel_name}"),
                kind: SectionKind::Info,
                data: info,
            },
            Section {
                name: ".nv.constant0".to_string(),
                kind: SectionKind::Constant,
                data: vec![0u8; 256],
            },
        ];
        let symbols = vec![Symbol {
            name: kernel_name.to_string(),
            section: text_name,
            offset: 0,
            size: text_len,
        }];
        Cubin {
            architecture: architecture.to_string(),
            sections,
            symbols,
        }
    }

    /// Target architecture string (e.g. `sm_80`).
    #[must_use]
    pub fn architecture(&self) -> &str {
        &self.architecture
    }

    /// All sections, in order.
    #[must_use]
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// The symbol table.
    #[must_use]
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Names of all kernels (text-section symbols) in the container.
    #[must_use]
    pub fn kernel_names(&self) -> Vec<&str> {
        self.symbols
            .iter()
            .filter(|s| {
                self.sections
                    .iter()
                    .any(|sec| sec.name == s.section && sec.kind == SectionKind::Text)
            })
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Disassembles the text section of the named kernel.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel or its section is missing or its text
    /// section cannot be decoded.
    pub fn kernel_program(&self, kernel_name: &str) -> Result<Program, SassError> {
        let section = self.text_section(kernel_name)?;
        decode_program(&section.data)
    }

    /// Replaces the text section of the named kernel with a new schedule,
    /// leaving every other section untouched and updating the symbol size.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel is unknown.
    pub fn replace_kernel_section(
        &mut self,
        kernel_name: &str,
        program: &Program,
    ) -> Result<(), SassError> {
        let section_name = self.symbol(kernel_name)?.section.clone();
        let encoded = encode_program(program);
        let new_size = encoded.len() as u64;
        let section = self
            .sections
            .iter_mut()
            .find(|s| s.name == section_name)
            .ok_or_else(|| SassError::Cubin(format!("missing section `{section_name}`")))?;
        section.data = encoded;
        let symbol = self
            .symbols
            .iter_mut()
            .find(|s| s.name == kernel_name)
            .ok_or_else(|| SassError::Cubin(format!("missing symbol `{kernel_name}`")))?;
        symbol.size = new_size;
        Ok(())
    }

    fn symbol(&self, kernel_name: &str) -> Result<&Symbol, SassError> {
        self.symbols
            .iter()
            .find(|s| s.name == kernel_name)
            .ok_or_else(|| SassError::Cubin(format!("unknown kernel `{kernel_name}`")))
    }

    fn text_section(&self, kernel_name: &str) -> Result<&Section, SassError> {
        let symbol = self.symbol(kernel_name)?;
        self.sections
            .iter()
            .find(|s| s.name == symbol.section)
            .ok_or_else(|| SassError::Cubin(format!("missing section `{}`", symbol.section)))
    }

    /// Serializes the container to bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(CUBIN_MAGIC);
        put_string(&mut buf, &self.architecture);
        buf.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for section in &self.sections {
            put_string(&mut buf, &section.name);
            buf.push(match section.kind {
                SectionKind::Text => 0,
                SectionKind::SymbolTable => 1,
                SectionKind::Info => 2,
                SectionKind::Constant => 3,
                SectionKind::Other => 4,
            });
            buf.extend_from_slice(&(section.data.len() as u32).to_le_bytes());
            buf.extend_from_slice(&section.data);
        }
        buf.extend_from_slice(&(self.symbols.len() as u32).to_le_bytes());
        for symbol in &self.symbols {
            put_string(&mut buf, &symbol.name);
            put_string(&mut buf, &symbol.section);
            buf.extend_from_slice(&symbol.offset.to_le_bytes());
            buf.extend_from_slice(&symbol.size.to_le_bytes());
        }
        buf
    }

    /// Deserializes a container produced by [`Cubin::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer is truncated or malformed, including
    /// when it claims more sections or symbols than its bytes can hold.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SassError> {
        let Some((magic, mut buf)) = bytes.split_first_chunk::<4>() else {
            return Err(SassError::Cubin("truncated container".to_string()));
        };
        if magic != CUBIN_MAGIC {
            return Err(SassError::Cubin("bad container magic".to_string()));
        }
        let architecture = get_string(&mut buf)?;
        // The counts are untrusted: reserve only what the rest of the input
        // could fill (a section takes at least 9 bytes, a symbol 24).
        let section_count = get_u32(&mut buf)? as usize;
        let mut sections = Vec::with_capacity(section_count.min(buf.len() / 9));
        for _ in 0..section_count {
            let name = get_string(&mut buf)?;
            let [kind] = take(&mut buf, "truncated container")?;
            let kind = match kind {
                0 => SectionKind::Text,
                1 => SectionKind::SymbolTable,
                2 => SectionKind::Info,
                3 => SectionKind::Constant,
                _ => SectionKind::Other,
            };
            let len = get_u32(&mut buf)? as usize;
            let data = get_bytes(&mut buf, len, "truncated section")?.to_vec();
            sections.push(Section { name, kind, data });
        }
        let symbol_count = get_u32(&mut buf)? as usize;
        let mut symbols = Vec::with_capacity(symbol_count.min(buf.len() / 24));
        for _ in 0..symbol_count {
            let name = get_string(&mut buf)?;
            let section = get_string(&mut buf)?;
            let offset = u64::from_le_bytes(take(&mut buf, "truncated symbol")?);
            let size = u64::from_le_bytes(take(&mut buf, "truncated symbol")?);
            symbols.push(Symbol {
                name,
                section,
                offset,
                size,
            });
        }
        Ok(Cubin {
            architecture,
            sections,
            symbols,
        })
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Splits the first `len` bytes off `buf`, or fails with `what` when fewer
/// remain.
fn get_bytes<'a>(buf: &mut &'a [u8], len: usize, what: &str) -> Result<&'a [u8], SassError> {
    let (head, rest) = buf
        .split_at_checked(len)
        .ok_or_else(|| SassError::Cubin(what.to_string()))?;
    *buf = rest;
    Ok(head)
}

/// Splits the first `N` bytes off `buf`, or fails with `what` when fewer
/// remain.
fn take<const N: usize>(buf: &mut &[u8], what: &str) -> Result<[u8; N], SassError> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| SassError::Cubin(what.to_string()))?;
    *buf = rest;
    Ok(*head)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, SassError> {
    take(buf, "truncated container").map(u32::from_le_bytes)
}

fn get_string(buf: &mut &[u8]) -> Result<String, SassError> {
    let len = get_u32(buf)? as usize;
    let data = get_bytes(buf, len, "truncated string")?;
    String::from_utf8(data.to_vec()).map_err(|e| SassError::Cubin(format!("invalid UTF-8: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
[B------:R-:W0:-:S02] LDG.E R2, [R10.64] ;
[B0-----:R-:W-:-:S04] IMAD R8, R4, R2, RZ ;
[B------:R-:W-:-:S02] STG.E [R12.64], R8 ;
[B------:R-:W-:-:S05] EXIT ;
";

    fn sample_program() -> Program {
        SAMPLE.parse().unwrap()
    }

    #[test]
    fn build_and_read_back_kernel() {
        let program = sample_program();
        let cubin = Cubin::from_kernel("sm_80", "matmul_kernel", &program);
        assert_eq!(cubin.kernel_names(), vec!["matmul_kernel"]);
        assert_eq!(cubin.kernel_program("matmul_kernel").unwrap(), program);
        assert_eq!(cubin.architecture(), "sm_80");
    }

    #[test]
    fn replace_kernel_section_preserves_metadata() {
        let program = sample_program();
        let mut cubin = Cubin::from_kernel("sm_80", "matmul_kernel", &program);
        let metadata_before: Vec<Section> = cubin
            .sections()
            .iter()
            .filter(|s| s.kind != SectionKind::Text)
            .cloned()
            .collect();

        let mut optimized = program.clone();
        optimized.swap_instructions(1, 2).unwrap();
        cubin
            .replace_kernel_section("matmul_kernel", &optimized)
            .unwrap();

        let metadata_after: Vec<Section> = cubin
            .sections()
            .iter()
            .filter(|s| s.kind != SectionKind::Text)
            .cloned()
            .collect();
        assert_eq!(metadata_before, metadata_after);
        assert_eq!(cubin.kernel_program("matmul_kernel").unwrap(), optimized);
    }

    #[test]
    fn replace_unknown_kernel_is_an_error() {
        let mut cubin = Cubin::from_kernel("sm_80", "k", &sample_program());
        assert!(cubin
            .replace_kernel_section("missing", &sample_program())
            .is_err());
        assert!(cubin.kernel_program("missing").is_err());
    }

    #[test]
    fn container_bytes_round_trip() {
        let cubin = Cubin::from_kernel("sm_80", "softmax_kernel", &sample_program());
        let bytes = cubin.to_bytes();
        let decoded = Cubin::from_bytes(&bytes).unwrap();
        assert_eq!(cubin, decoded);
    }

    #[test]
    fn container_rejects_corruption() {
        let cubin = Cubin::from_kernel("sm_80", "k", &sample_program());
        let bytes = cubin.to_bytes();
        assert!(Cubin::from_bytes(&bytes[..10]).is_err());
        let mut corrupted = bytes.clone();
        corrupted[0] = b'X';
        assert!(Cubin::from_bytes(&corrupted).is_err());
    }

    /// A 16-byte container claiming `u32::MAX` sections, or `u32::MAX`
    /// symbols, is a typed error: the claimed count reserves nothing the
    /// input could not fill.
    #[test]
    fn hostile_counts_are_errors_not_reservations() {
        let container = |section_count: u32, symbol_count: u32| {
            let mut bytes = CUBIN_MAGIC.to_vec();
            bytes.extend_from_slice(&0u32.to_le_bytes()); // empty architecture
            bytes.extend_from_slice(&section_count.to_le_bytes());
            bytes.extend_from_slice(&symbol_count.to_le_bytes());
            assert_eq!(bytes.len(), 16);
            bytes
        };
        for bytes in [container(u32::MAX, 0), container(0, u32::MAX)] {
            assert!(matches!(
                Cubin::from_bytes(&bytes),
                Err(SassError::Cubin(_))
            ));
        }
    }
}
