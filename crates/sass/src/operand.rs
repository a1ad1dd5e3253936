//! Instruction operands: registers, immediates, constant banks and memory
//! references.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::{Register, SassError};

/// A register operand together with its per-use flags.
///
/// SASS register operands carry flags that affect scheduling: the `.64`
/// suffix pairs the register with its adjacent register (equation 2 of the
/// paper), and the `.reuse` suffix asks the issue stage to keep the operand
/// in the operand-reuse cache to avoid a register-bank conflict (§5.7.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegOperand {
    /// The register itself.
    pub reg: Register,
    /// `.64` suffix: the adjacent register also participates.
    pub wide: bool,
    /// `.reuse` suffix: operand-reuse-cache hint.
    pub reuse: bool,
    /// Arithmetic negation prefix (`-R4`).
    pub negated: bool,
    /// Absolute-value modifier (`|R4|`).
    pub absolute: bool,
    /// Logical not prefix on a predicate (`!P0`).
    pub not: bool,
}

impl RegOperand {
    /// A plain register operand with no flags.
    #[must_use]
    pub fn new(reg: Register) -> Self {
        RegOperand {
            reg,
            wide: false,
            reuse: false,
            negated: false,
            absolute: false,
            not: false,
        }
    }

    /// Builder-style setter for the `.64` flag.
    #[must_use]
    pub fn wide(mut self) -> Self {
        self.wide = true;
        self
    }

    /// Builder-style setter for the `.reuse` flag.
    #[must_use]
    pub fn reuse(mut self) -> Self {
        self.reuse = true;
        self
    }

    /// Builder-style setter for the negation prefix.
    #[must_use]
    pub fn negated(mut self) -> Self {
        self.negated = true;
        self
    }

    /// Builder-style setter for the logical-not prefix.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // builder setter, not `std::ops::Not`
    pub fn not(mut self) -> Self {
        self.not = true;
        self
    }

    /// Every register touched by this operand, expanding the `.64` pair.
    #[must_use]
    pub fn registers(&self) -> Vec<Register> {
        let mut regs = vec![self.reg];
        if self.wide {
            if let Some(adj) = self.reg.adjacent() {
                regs.push(adj);
            }
        }
        regs
    }
}

impl fmt::Display for RegOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.not {
            write!(f, "!")?;
        }
        if self.negated {
            write!(f, "-")?;
        }
        if self.absolute {
            write!(f, "|")?;
        }
        write!(f, "{}", self.reg)?;
        if self.absolute {
            write!(f, "|")?;
        }
        if self.wide {
            write!(f, ".64")?;
        }
        if self.reuse {
            write!(f, ".reuse")?;
        }
        Ok(())
    }
}

impl FromStr for RegOperand {
    type Err = SassError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut text = s.trim();
        let mut op = RegOperand {
            reg: Register::Rz,
            wide: false,
            reuse: false,
            negated: false,
            absolute: false,
            not: false,
        };
        if let Some(rest) = text.strip_prefix('!') {
            op.not = true;
            text = rest;
        }
        if let Some(rest) = text.strip_prefix('-') {
            op.negated = true;
            text = rest;
        }
        if text.starts_with('|') && text.ends_with('|') && text.len() >= 2 {
            op.absolute = true;
            text = &text[1..text.len() - 1];
        }
        let mut core = text;
        loop {
            if let Some(rest) = core.strip_suffix(".reuse") {
                op.reuse = true;
                core = rest;
            } else if let Some(rest) = core.strip_suffix(".64") {
                op.wide = true;
                core = rest;
            } else {
                break;
            }
        }
        op.reg = core.parse()?;
        Ok(op)
    }
}

/// A memory reference such as `[R74]`, `[R219+0x4000]` or
/// `desc[UR16][R10.64]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemRef {
    /// Descriptor (uniform) register for descriptor-based addressing.
    pub descriptor: Option<Register>,
    /// Base address register, if any.
    pub base: Option<RegOperand>,
    /// Immediate byte offset added to the base.
    pub offset: i64,
}

impl MemRef {
    /// Builder-style setter for the immediate offset.
    #[must_use]
    pub fn offset(mut self, offset: i64) -> Self {
        self.offset = offset;
        self
    }

    /// Builder-style setter for the descriptor register.
    #[must_use]
    pub fn descriptor(mut self, descriptor: Register) -> Self {
        self.descriptor = Some(descriptor);
        self
    }

    /// Every register read to form this address.
    #[must_use]
    pub fn registers(&self) -> Vec<Register> {
        let mut regs = Vec::new();
        if let Some(d) = self.descriptor {
            regs.push(d);
        }
        if let Some(base) = &self.base {
            regs.extend(base.registers());
        }
        regs
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(d) = self.descriptor {
            write!(f, "desc[{d}]")?;
        }
        write!(f, "[")?;
        if let Some(base) = &self.base {
            write!(f, "{base}")?;
        }
        match self.offset {
            0 if self.base.is_some() => {}
            offset if offset < 0 => write!(f, "-{:#x}", offset.unsigned_abs())?,
            offset if self.base.is_some() => write!(f, "+{offset:#x}")?,
            offset => write!(f, "{offset:#x}")?,
        }
        write!(f, "]")
    }
}

/// A single operand of a SASS instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// A register operand (general purpose, uniform or predicate).
    Reg(RegOperand),
    /// An integer immediate (`0x160`, `18432`, `-4`).
    Imm(i64),
    /// A floating-point immediate.
    FImm(f64),
    /// A constant bank reference `c[bank][offset]`.
    Const {
        /// Constant bank index.
        bank: u32,
        /// Byte offset within the bank.
        offset: u32,
    },
    /// A memory reference (`[R2.64]`, `desc[UR18][R18.64]`, `[R219+0x4000]`).
    Mem(MemRef),
    /// A special register such as `SR_CLOCKLO` or `SR_TID.X`.
    Special(String),
    /// A code label, used by branches.
    Label(String),
}

impl Operand {
    /// Convenience constructor: a plain register operand.
    #[must_use]
    pub fn reg(reg: Register) -> Self {
        Operand::Reg(RegOperand::new(reg))
    }

    /// Every register referenced by this operand (expanding `.64` pairs and
    /// descriptor registers).
    #[must_use]
    pub fn registers(&self) -> Vec<Register> {
        match self {
            Operand::Reg(r) => r.registers(),
            Operand::Mem(m) => m.registers(),
            _ => Vec::new(),
        }
    }

    /// Returns the register operand if this is one.
    #[must_use]
    pub fn as_reg(&self) -> Option<&RegOperand> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Returns the memory reference if this is one.
    #[must_use]
    pub fn as_mem(&self) -> Option<&MemRef> {
        match self {
            Operand::Mem(m) => Some(m),
            _ => None,
        }
    }

    /// Returns true if any register in this operand carries the `.reuse` flag.
    #[must_use]
    pub fn has_reuse(&self) -> bool {
        match self {
            Operand::Reg(r) => r.reuse,
            Operand::Mem(m) => m.base.is_some_and(|b| b.reuse),
            _ => false,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) if *v < 0 => write!(f, "-{:#x}", v.unsigned_abs()),
            Operand::Imm(v) => write!(f, "{v:#x}"),
            // The shortest text that reads back to the same bits, always
            // with the `.` the parser's float form requires: `2.0`, `-0.0`,
            // `1.0e20` (`{v}` alone prints `2`, an integer immediate).
            Operand::FImm(v) => {
                let text = format!("{v:?}");
                match text.split_once('e') {
                    Some((mantissa, exponent)) if !mantissa.contains('.') => {
                        write!(f, "{mantissa}.0e{exponent}")
                    }
                    _ => f.write_str(&text),
                }
            }
            Operand::Const { bank, offset } => write!(f, "c[{bank:#x}][{offset:#x}]"),
            Operand::Mem(m) => write!(f, "{m}"),
            Operand::Special(name) => write!(f, "{name}"),
            Operand::Label(name) => write!(f, "`({name})"),
        }
    }
}

impl FromStr for Operand {
    type Err = SassError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let text = s.trim();
        if text.is_empty() {
            return Err(SassError::Operand("empty operand".to_string()));
        }
        // Label reference: `(.L_x_1) or a bare label starting with a dot.
        if let Some(rest) = text.strip_prefix("`(") {
            let name = rest
                .strip_suffix(')')
                .ok_or_else(|| SassError::Operand(format!("unterminated label `{text}`")))?;
            return Ok(Operand::Label(name.to_string()));
        }
        if text.starts_with(".L") {
            return Ok(Operand::Label(text.to_string()));
        }
        // Special registers.
        if text.starts_with("SR_") {
            return Ok(Operand::Special(text.to_string()));
        }
        // Constant bank: c[0x0][0x160]
        if let Some(rest) = text.strip_prefix("c[") {
            let (bank_text, rest) = rest
                .split_once("][")
                .ok_or_else(|| SassError::Operand(format!("malformed constant `{text}`")))?;
            let offset_text = rest
                .strip_suffix(']')
                .ok_or_else(|| SassError::Operand(format!("malformed constant `{text}`")))?;
            let field = |text: &str, what: &str| {
                parse_uint(text)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| SassError::Operand(format!("bad constant {what} `{text}`")))
            };
            return Ok(Operand::Const {
                bank: field(bank_text, "bank")?,
                offset: field(offset_text, "offset")?,
            });
        }
        // Memory reference, optionally with a descriptor: desc[UR16][R10.64]
        if text.starts_with("desc[") || text.starts_with('[') {
            return parse_memref(text).map(Operand::Mem);
        }
        // Immediates.
        if let Some(v) = parse_int(text) {
            return Ok(Operand::Imm(v));
        }
        if text.contains('.') && !text.starts_with('R') && !text.starts_with('U') {
            if let Ok(v) = text.parse::<f64>() {
                return Ok(Operand::FImm(v));
            }
        }
        // Fall back to a register operand.
        text.parse::<RegOperand>().map(Operand::Reg)
    }
}

fn parse_memref(text: &str) -> Result<MemRef, SassError> {
    let err = || SassError::Operand(format!("malformed memory reference `{text}`"));
    let mut descriptor = None;
    let mut rest = text;
    if let Some(after) = rest.strip_prefix("desc[") {
        let (desc_text, after_desc) = after.split_once(']').ok_or_else(err)?;
        descriptor = Some(desc_text.parse::<Register>()?);
        rest = after_desc;
    }
    let inner = rest
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(err)?;
    // The inner text is either `base`, `base+off`, `base-off` or a bare offset.
    let (base_text, offset) = split_base_offset(inner);
    let base = if base_text.is_empty() {
        None
    } else {
        Some(base_text.parse::<RegOperand>()?)
    };
    Ok(MemRef {
        descriptor,
        base,
        offset,
    })
}

/// Splits `R219+0x4000` into a base register text and an offset. A leading
/// bare number (no register) yields an empty base.
fn split_base_offset(inner: &str) -> (&str, i64) {
    if let Some(idx) = inner.rfind('+') {
        if idx > 0 {
            if let Some(off) = parse_int(&inner[idx + 1..]) {
                return (&inner[..idx], off);
            }
        }
    }
    if let Some(idx) = inner.rfind('-') {
        if idx > 0 {
            if let Some(off) = parse_int(&inner[idx..]) {
                return (&inner[..idx], off);
            }
        }
    }
    if let Some(v) = parse_int(inner) {
        return ("", v);
    }
    (inner, 0)
}

fn parse_uint(text: &str) -> Option<u64> {
    let t = text.trim();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse::<u64>().ok()
    }
}

/// A signed integer; `None` for a magnitude outside `i64` (never wraps).
fn parse_int(text: &str) -> Option<i64> {
    let t = text.trim();
    if let Some(neg) = t.strip_prefix('-') {
        return 0i64.checked_sub_unsigned(parse_uint(neg)?);
    }
    i64::try_from(parse_uint(t)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_immediates_print_with_a_point() {
        for (text, printed) in [
            ("2.0", "2.0"),
            ("-0.0", "-0.0"),
            ("0.5", "0.5"),
            ("100000000000000000000.0", "1.0e20"),
            ("1.5e-7", "1.5e-7"),
        ] {
            let op: Operand = text.parse().unwrap();
            let Operand::FImm(v) = op else {
                panic!("{text} parses as {op:?}");
            };
            assert_eq!(op.to_string(), printed);
            let again: Operand = printed.parse().unwrap();
            assert!(matches!(again, Operand::FImm(w) if w.to_bits() == v.to_bits()));
        }
    }

    #[test]
    fn parse_plain_register() {
        let op: Operand = "R84".parse().unwrap();
        assert_eq!(op.registers(), vec![Register::Gpr(84)]);
    }

    #[test]
    fn parse_wide_register_expands_adjacent() {
        let op: Operand = "R18.64".parse().unwrap();
        assert_eq!(op.registers(), vec![Register::Gpr(18), Register::Gpr(19)]);
        let op: Operand = "R5.64".parse().unwrap();
        assert_eq!(op.registers(), vec![Register::Gpr(5), Register::Gpr(4)]);
    }

    #[test]
    fn parse_reuse_flag() {
        let op: Operand = "R84.reuse".parse().unwrap();
        assert!(op.has_reuse());
        assert_eq!(op.to_string(), "R84.reuse");
    }

    #[test]
    fn parse_constant_bank() {
        let op: Operand = "c[0x0][0x160]".parse().unwrap();
        assert_eq!(
            op,
            Operand::Const {
                bank: 0,
                offset: 0x160
            }
        );
        assert_eq!(op.to_string(), "c[0x0][0x160]");
    }

    #[test]
    fn parse_descriptor_memref() {
        let op: Operand = "desc[UR18][R18.64]".parse().unwrap();
        let mem = op.as_mem().unwrap();
        assert_eq!(mem.descriptor, Some(Register::Ur(18)));
        assert_eq!(
            op.registers(),
            vec![Register::Ur(18), Register::Gpr(18), Register::Gpr(19)]
        );
        assert_eq!(op.to_string(), "desc[UR18][R18.64]");
    }

    #[test]
    fn parse_memref_with_offset() {
        let op: Operand = "[R219+0x4000]".parse().unwrap();
        let mem = op.as_mem().unwrap();
        assert_eq!(mem.offset, 0x4000);
        assert_eq!(mem.base.unwrap().reg, Register::Gpr(219));
        assert_eq!(op.to_string(), "[R219+0x4000]");
    }

    #[test]
    fn parse_bare_offset_memref() {
        let op: Operand = "[0x20]".parse().unwrap();
        let mem = op.as_mem().unwrap();
        assert!(mem.base.is_none());
        assert_eq!(mem.offset, 0x20);
    }

    #[test]
    fn parse_immediates() {
        assert_eq!("0x1".parse::<Operand>().unwrap(), Operand::Imm(1));
        assert_eq!("18432".parse::<Operand>().unwrap(), Operand::Imm(18432));
        assert_eq!("-4".parse::<Operand>().unwrap(), Operand::Imm(-4));
    }

    #[test]
    fn parse_predicates_and_negation() {
        let op: Operand = "!P4".parse().unwrap();
        let reg = op.as_reg().unwrap();
        assert!(reg.not);
        assert_eq!(reg.reg, Register::Pred(4));
        let op: Operand = "-R2".parse().unwrap();
        assert!(op.as_reg().unwrap().negated);
    }

    #[test]
    fn parse_special_and_label() {
        assert_eq!(
            "SR_CLOCKLO".parse::<Operand>().unwrap(),
            Operand::Special("SR_CLOCKLO".to_string())
        );
        assert_eq!(
            "`(.L_x_3)".parse::<Operand>().unwrap(),
            Operand::Label(".L_x_3".to_string())
        );
        assert_eq!(
            ".L_x_3".parse::<Operand>().unwrap(),
            Operand::Label(".L_x_3".to_string())
        );
    }

    #[test]
    fn rejects_empty_and_garbage() {
        assert!("".parse::<Operand>().is_err());
        assert!("@@@@".parse::<Operand>().is_err());
    }

    #[test]
    fn display_negative_immediate() {
        assert_eq!(Operand::Imm(-16).to_string(), "-0x10");
    }

    #[test]
    fn integers_outside_their_field_are_errors_never_wrapped() {
        for text in [
            "0x8000000000000000",
            "0xffffffffffffffff",
            "[R4.64+0x8000000000000000]",
            "[0x8000000000000000]",
            "c[0x100000000][0x0]",
            "c[0x0][0x100000000]",
        ] {
            assert!(text.parse::<Operand>().is_err(), "{text}");
        }
    }

    #[test]
    fn integer_extremes_round_trip() {
        let min = |base| {
            Operand::Mem(MemRef {
                descriptor: None,
                base,
                offset: i64::MIN,
            })
        };
        let r4 = Some(RegOperand::new(Register::Gpr(4)).wide());
        for (text, expected) in [
            ("-0x8000000000000000", Operand::Imm(i64::MIN)),
            ("0x7fffffffffffffff", Operand::Imm(i64::MAX)),
            ("[R4.64-0x8000000000000000]", min(r4)),
            ("[-0x8000000000000000]", min(None)),
            (
                "c[0xffffffff][0xffffffff]",
                Operand::Const {
                    bank: u32::MAX,
                    offset: u32::MAX,
                },
            ),
        ] {
            let op: Operand = text.parse().unwrap();
            assert_eq!(op, expected, "{text}");
            assert_eq!(op.to_string(), text);
            assert_eq!(op.to_string().parse::<Operand>().unwrap(), op);
        }
    }
}
