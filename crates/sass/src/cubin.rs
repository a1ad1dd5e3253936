//! An ELF-like cubin container.
//!
//! When CuAsmRL intercepts the compiled cubin (§4.1), it must replace *only*
//! the kernel text section while preserving every other section byte for
//! byte — symbol tables, relocation info and the ELF headers must stay
//! intact or the module will not load. This module models that constraint:
//! a [`Cubin`] is a list of named [`Section`]s plus a symbol table, and
//! [`Cubin::replace_kernel_section`] rewrites the text section of one kernel
//! without touching anything else. A text section holds its listing's
//! canonical text, which the optimizer reads back with
//! [`Cubin::kernel_program`]: real cubins encode each instruction as an
//! undocumented 128-bit word, but CuAsmRL only ever works on the
//! disassembled text.

use serde::{Deserialize, Serialize};

use crate::{ArchClass, Program, SassError};

/// The role of a section within the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SectionKind {
    /// Executable kernel text (the SASS listing).
    Text,
    /// Kernel metadata (register counts, shared memory sizes, ...).
    Info,
    /// Constant bank initial data.
    Constant,
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

impl Cubin {
    /// Creates a cubin containing a single kernel, compiled for `arch`
    /// (labelled `sm_XX`).
    ///
    /// Besides the text section this synthesises the metadata sections a real
    /// cubin carries (symbol table entry, `.nv.info` blob, constant bank),
    /// so that the interception workflow has realistic invariants to
    /// preserve.
    #[must_use]
    pub fn from_kernel(arch: ArchClass, kernel_name: &str, program: &Program) -> Self {
        let architecture = format!("sm_{}", arch.sm_version());
        let text_name = format!(".text.{kernel_name}");
        let text = program.to_string().into_bytes();
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
            architecture,
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
    /// Returns [`SassError::Cubin`] if the kernel or its section is missing
    /// or the section is not UTF-8, and the parser's error if its text is
    /// not SASS.
    pub fn kernel_program(&self, kernel_name: &str) -> Result<Program, SassError> {
        let section = self.text_section(kernel_name)?;
        std::str::from_utf8(&section.data)
            .map_err(|e| SassError::Cubin(format!("`{}` is not UTF-8: {e}", section.name)))?
            .parse()
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
        let text = program.to_string().into_bytes();
        let new_size = text.len() as u64;
        let section = self
            .sections
            .iter_mut()
            .find(|s| s.name == section_name)
            .ok_or_else(|| SassError::Cubin(format!("missing section `{section_name}`")))?;
        section.data = text;
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
        let cubin = Cubin::from_kernel(ArchClass::Ampere, "matmul_kernel", &program);
        assert_eq!(cubin.kernel_names(), vec!["matmul_kernel"]);
        assert_eq!(cubin.kernel_program("matmul_kernel").unwrap(), program);
        assert_eq!(cubin.architecture(), "sm_80");
    }

    #[test]
    fn replace_kernel_section_preserves_metadata() {
        let program = sample_program();
        let mut cubin = Cubin::from_kernel(ArchClass::Ampere, "matmul_kernel", &program);
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
        let mut cubin = Cubin::from_kernel(ArchClass::Ampere, "k", &sample_program());
        assert!(cubin
            .replace_kernel_section("missing", &sample_program())
            .is_err());
        assert!(cubin.kernel_program("missing").is_err());
    }

    #[test]
    fn an_empty_program_round_trips() {
        let cubin = Cubin::from_kernel(ArchClass::Turing, "k", &Program::new());
        assert_eq!(cubin.kernel_program("k").unwrap(), Program::new());
        assert_eq!(cubin.architecture(), "sm_75");
    }

    /// A text section that is not UTF-8, or is text but not SASS, is a
    /// typed error.
    #[test]
    fn a_text_section_that_is_not_a_listing_is_an_error() {
        let mut cubin = Cubin::from_kernel(ArchClass::Ampere, "k", &sample_program());
        cubin.sections[0].data = vec![0xff, 0xfe, b'\n'];
        assert!(matches!(
            cubin.kernel_program("k"),
            Err(SassError::Cubin(_))
        ));
        cubin.sections[0].data = b"this is not SASS".to_vec();
        assert!(matches!(
            cubin.kernel_program("k"),
            Err(SassError::Parse { .. })
        ));
    }
}
