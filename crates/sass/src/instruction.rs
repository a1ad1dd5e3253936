//! A full SASS instruction: guard predicate, opcode, operands and control
//! code, plus use/def analysis.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::{ControlCode, Mnemonic, Opcode, Operand, Register, SassError};

/// A guard predicate (`@P0`, `@!PT`) controlling conditional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Guard {
    /// True for `@!P` (execute when the predicate is false).
    pub negated: bool,
    /// The predicate register.
    pub pred: Register,
}

impl Guard {
    /// Creates a guard on the given predicate register.
    #[must_use]
    pub fn new(pred: Register) -> Self {
        Guard {
            negated: false,
            pred,
        }
    }

    /// Creates a negated guard (`@!P`).
    #[must_use]
    pub fn negated(pred: Register) -> Self {
        Guard {
            negated: true,
            pred,
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}{}", if self.negated { "!" } else { "" }, self.pred)
    }
}

/// A single SASS instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instruction {
    control: ControlCode,
    guard: Option<Guard>,
    opcode: Opcode,
    operands: Vec<Operand>,
}

impl Instruction {
    /// Creates an instruction with the given parts.
    #[must_use]
    pub fn new(control: ControlCode, opcode: Opcode, operands: Vec<Operand>) -> Self {
        Instruction {
            control,
            guard: None,
            opcode,
            operands,
        }
    }

    /// The scheduling control code.
    #[must_use]
    pub fn control(&self) -> &ControlCode {
        &self.control
    }

    /// Mutable access to the control code.
    pub fn control_mut(&mut self) -> &mut ControlCode {
        &mut self.control
    }

    /// The guard predicate, if any.
    #[must_use]
    pub fn guard(&self) -> Option<&Guard> {
        self.guard.as_ref()
    }

    /// The opcode.
    #[must_use]
    pub fn opcode(&self) -> &Opcode {
        &self.opcode
    }

    /// The operands, in listing order.
    #[must_use]
    pub fn operands(&self) -> &[Operand] {
        &self.operands
    }

    /// Number of leading operands that are destinations.
    ///
    /// Stores, global-to-shared copies, branches and synchronisation
    /// instructions have no register destination. Predicate-setting
    /// instructions (`ISETP`, `FSETP`, ...) write their first two predicate
    /// operands. ALU instructions write their first operand, and
    /// carry-producing forms (`IADD3 R6, P0, ...`) additionally write the
    /// predicate operands that immediately follow it.
    #[must_use]
    pub fn dest_operand_count(&self) -> usize {
        let op = &self.opcode;
        if op.is_store()
            || matches!(op.base(), Mnemonic::Ldgsts)
            || op.is_scheduling_fence()
            || matches!(
                op.base(),
                Mnemonic::Nop | Mnemonic::Yield | Mnemonic::Nanosleep
            )
        {
            return 0;
        }
        if self.operands.is_empty() {
            return 0;
        }
        let is_pred = |o: &Operand| o.as_reg().map(|r| r.reg.is_predicate()).unwrap_or(false);
        match op.base() {
            Mnemonic::Isetp | Mnemonic::Fsetp | Mnemonic::Hsetp2 | Mnemonic::Plop3 => {
                // The first two predicate operands are both destinations.
                let mut count = 0;
                for o in self.operands.iter().take(2) {
                    if is_pred(o) {
                        count += 1;
                    } else {
                        break;
                    }
                }
                count.max(1)
            }
            _ => {
                // First operand is the destination; trailing predicates
                // directly after it are carry-out destinations.
                let mut count = 1;
                for o in self.operands.iter().skip(1) {
                    if is_pred(o) && count < 3 {
                        count += 1;
                    } else {
                        break;
                    }
                }
                count
            }
        }
    }

    /// Registers written by this instruction.
    ///
    /// `RZ`, `URZ` and `PT` writes are discarded by the hardware and are not
    /// reported.
    #[must_use]
    pub fn defs(&self) -> Vec<Register> {
        let n = self.dest_operand_count();
        let mut regs = Vec::new();
        for operand in self.operands.iter().take(n) {
            // Destination memory references (stores) never define registers;
            // dest_operand_count already excludes them, so only register
            // operands appear here.
            if let Operand::Reg(r) = operand {
                for reg in r.registers() {
                    if !reg.is_zero_or_true() {
                        regs.push(reg);
                    }
                }
            }
        }
        regs
    }

    /// Registers read by this instruction: the guard predicate, every source
    /// operand, and every register used in address formation (including
    /// descriptor registers and `.64` pairs).
    #[must_use]
    pub fn uses(&self) -> Vec<Register> {
        let n = self.dest_operand_count();
        let mut regs = Vec::new();
        if let Some(guard) = &self.guard {
            if !guard.pred.is_zero_or_true() {
                regs.push(guard.pred);
            }
        }
        for operand in self.operands.iter().skip(n) {
            for reg in operand.registers() {
                if !reg.is_zero_or_true() {
                    regs.push(reg);
                }
            }
        }
        // Destination memory operands (stores, LDGSTS shared destination)
        // still *read* their address registers.
        for operand in self.operands.iter().take(n) {
            if let Operand::Mem(m) = operand {
                for reg in m.registers() {
                    if !reg.is_zero_or_true() {
                        regs.push(reg);
                    }
                }
            }
        }
        regs
    }

    /// Sets or clears the `.reuse` operand-cache hint on one operand.
    ///
    /// Returns false (leaving the instruction unchanged) when `operand` is
    /// out of range or names an operand kind that cannot carry a reuse flag
    /// (immediates, constants, specials, labels, or a memory reference with
    /// no base register).
    pub fn set_operand_reuse(&mut self, operand: usize, reuse: bool) -> bool {
        match self.operands.get_mut(operand) {
            Some(Operand::Reg(r)) => {
                r.reuse = reuse;
                true
            }
            Some(Operand::Mem(m)) => match &mut m.base {
                Some(base) => {
                    base.reuse = reuse;
                    true
                }
                None => false,
            },
            _ => false,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.control)?;
        if let Some(guard) = &self.guard {
            write!(f, "{guard} ")?;
        }
        write!(f, "{}", self.opcode)?;
        for (i, operand) in self.operands.iter().enumerate() {
            if i == 0 {
                write!(f, " {operand}")?;
            } else {
                write!(f, ", {operand}")?;
            }
        }
        write!(f, " ;")
    }
}

impl FromStr for Instruction {
    type Err = SassError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut text = s.trim();
        // Strip a trailing comment.
        if let Some(idx) = text.find("//") {
            text = text[..idx].trim_end();
        }
        // Control code.
        let control = if text.starts_with('[') {
            let end = text.find(']').ok_or_else(|| {
                SassError::ControlCode(format!("unterminated control code in `{s}`"))
            })?;
            let cc: ControlCode = text[..=end].parse()?;
            text = text[end + 1..].trim_start();
            cc
        } else {
            ControlCode::default()
        };
        // Trailing semicolon.
        let text = text.trim_end();
        let text = text.strip_suffix(';').unwrap_or(text).trim_end();
        if text.is_empty() {
            return Err(SassError::Operand(format!("no opcode in `{s}`")));
        }
        // Guard predicate.
        let (guard, text) = if let Some(rest) = text.strip_prefix('@') {
            let (guard_text, rest) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| SassError::Operand(format!("guard without opcode in `{s}`")))?;
            let (negated, pred_text) = match guard_text.strip_prefix('!') {
                Some(p) => (true, p),
                None => (false, guard_text),
            };
            let pred: Register = pred_text.parse()?;
            (Some(Guard { negated, pred }), rest.trim_start())
        } else {
            (None, text)
        };
        // Opcode and operands.
        let (opcode_text, operand_text) = match text.split_once(char::is_whitespace) {
            Some((op, rest)) => (op, rest.trim()),
            None => (text, ""),
        };
        let opcode: Opcode = opcode_text.parse()?;
        let mut operands = Vec::new();
        if !operand_text.is_empty() {
            for token in split_operands(operand_text) {
                let token = token.trim();
                if token.is_empty() {
                    continue;
                }
                operands.push(token.parse::<Operand>()?);
            }
        }
        Ok(Instruction {
            control,
            guard,
            opcode,
            operands,
        })
    }
}

/// Splits an operand list on commas that are not inside brackets, so that
/// `desc[UR18][R18.64], P4` and `c[0x0][0x160]` are tokenised correctly.
fn split_operands(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in text.char_indices() {
        match ch {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::RegOperand;

    #[test]
    fn parse_paper_ldg_example() {
        let inst: Instruction = "[B------:R-:W2:Y:S02] LDG.E R0, [R2.64] ;".parse().unwrap();
        assert!(inst.opcode().is_memory());
        assert_eq!(inst.control().write_barrier(), Some(2));
        assert_eq!(inst.defs(), vec![Register::Gpr(0)]);
        assert_eq!(inst.uses(), vec![Register::Gpr(2), Register::Gpr(3)]);
        assert_eq!(
            inst.to_string(),
            "[B------:R-:W2:Y:S02] LDG.E R0, [R2.64] ;"
        );
    }

    #[test]
    fn parse_ldgsts_with_descriptor_and_predicate_source() {
        let text =
            "[B------:R0:W-:-:S02] LDGSTS.E.BYPASS.LTC128B.128 [R74], desc[UR18][R18.64], P4 ;";
        let inst: Instruction = text.parse().unwrap();
        assert!(inst.opcode().is_memory());
        // LDGSTS has no register destination; every register is a use.
        assert!(inst.defs().is_empty());
        let uses = inst.uses();
        assert!(uses.contains(&Register::Gpr(74)));
        assert!(uses.contains(&Register::Ur(18)));
        assert!(uses.contains(&Register::Gpr(18)));
        assert!(uses.contains(&Register::Gpr(19)));
        assert!(uses.contains(&Register::Pred(4)));
    }

    #[test]
    fn parse_imad_wide_with_constant() {
        let text = "[B------:R-:W-:-:S04] IMAD.WIDE R14, R84, R8, c[0x0][0x160] ;";
        let inst: Instruction = text.parse().unwrap();
        // IMAD.WIDE writes a 64-bit pair.
        assert_eq!(inst.defs(), vec![Register::Gpr(14)]);
        assert_eq!(inst.uses(), vec![Register::Gpr(84), Register::Gpr(8)]);
    }

    #[test]
    fn iadd3_with_carry_out_predicate() {
        let text = "[B------:R-:W-:-:S04] IADD3 R6, P0, -R2, R6, RZ ;";
        let inst: Instruction = text.parse().unwrap();
        let defs = inst.defs();
        assert!(defs.contains(&Register::Gpr(6)));
        assert!(defs.contains(&Register::Pred(0)));
        let uses = inst.uses();
        assert!(uses.contains(&Register::Gpr(2)));
        assert!(uses.contains(&Register::Gpr(6)));
    }

    #[test]
    fn isetp_writes_predicates() {
        let text = "[B------:R-:W-:-:S01] ISETP.GE.AND P0, PT, R4, 0x10, PT ;";
        let inst: Instruction = text.parse().unwrap();
        assert_eq!(inst.defs(), vec![Register::Pred(0)]);
        assert_eq!(inst.uses(), vec![Register::Gpr(4)]);
    }

    #[test]
    fn store_has_no_defs_and_reads_data_register() {
        let text = "[B------:R-:W-:-:S04] STG.E desc[UR4][R4.64], R15 ;";
        let inst: Instruction = text.parse().unwrap();
        assert!(inst.defs().is_empty());
        let uses = inst.uses();
        assert!(uses.contains(&Register::Gpr(15)));
        assert!(uses.contains(&Register::Gpr(4)));
        assert!(uses.contains(&Register::Gpr(5)));
        assert!(uses.contains(&Register::Ur(4)));
    }

    #[test]
    fn guard_predicate_parsing_and_display() {
        let text = "[B------:R-:W-:-:S01] @!PT LDS.U.128 R76, [R156] ;";
        let inst: Instruction = text.parse().unwrap();
        assert_eq!(inst.guard(), Some(&Guard::negated(Register::Pt)));
        assert_eq!(inst.to_string(), text);
        let text2 = "[B------:R-:W-:-:S01] @P2 BRA `(.L_x_1) ;";
        let inst2: Instruction = text2.parse().unwrap();
        assert_eq!(inst2.guard(), Some(&Guard::new(Register::Pred(2))));
        assert!(inst2.uses().contains(&Register::Pred(2)));
    }

    #[test]
    fn default_control_code_when_missing() {
        let inst: Instruction = "MOV R1, 0x7 ;".parse().unwrap();
        assert_eq!(inst.control().stall(), 1);
        assert_eq!(inst.defs(), vec![Register::Gpr(1)]);
    }

    #[test]
    fn trailing_comment_is_ignored() {
        let inst: Instruction = "CS2R R2, SR_CLOCKLO ; // t1".parse().unwrap();
        assert_eq!(inst.defs(), vec![Register::Gpr(2)]);
        assert_eq!(inst.operands().len(), 2);
    }

    #[test]
    fn reuse_hint_detection() {
        let inst: Instruction = "[B------:R-:W-:-:S02] HMMA.16816.F32 R24, R84.reuse, R90, R24 ;"
            .parse()
            .unwrap();
        let reused: Vec<bool> = inst.operands().iter().map(Operand::has_reuse).collect();
        assert_eq!(reused, [false, true, false, false]);
    }

    #[test]
    fn exit_and_nop_have_no_defs_or_uses() {
        for text in ["EXIT ;", "NOP ;", "BAR.SYNC 0x0 ;"] {
            let inst: Instruction = text.parse().unwrap();
            assert!(inst.defs().is_empty(), "{text}");
        }
    }

    #[test]
    fn rz_writes_are_discarded() {
        let inst: Instruction = "IADD3 RZ, R2, R3, RZ ;".parse().unwrap();
        assert!(inst.defs().is_empty());
        assert_eq!(inst.uses(), vec![Register::Gpr(2), Register::Gpr(3)]);
    }

    #[test]
    fn display_round_trip_preserves_structure() {
        let cases = [
            "[B------:R-:W2:Y:S02] LDG.E R0, [R2.64] ;",
            "[B0-----:R-:W-:-:S04] IADD3 R4, R0, 0x1, RZ ;",
            "[B------:R0:W1:-:S01] LDGSTS.E.BYPASS.128 [R74+0x800], desc[UR18][R18.64] ;",
            "[B------:R-:W-:-:S01] @!P3 STG.E desc[UR4][R4.64], R15 ;",
        ];
        for text in cases {
            let inst: Instruction = text.parse().unwrap();
            let printed = inst.to_string();
            let reparsed: Instruction = printed.parse().unwrap();
            assert_eq!(inst, reparsed, "{text}");
        }
    }

    #[test]
    fn builder_constructors() {
        let inst = Instruction::new(
            ControlCode::with_stall(4),
            Opcode::new(Mnemonic::Mov),
            vec![Operand::reg(Register::Gpr(1)), Operand::Imm(7)],
        );
        assert_eq!(inst.guard(), None);
        assert_eq!(inst.defs(), vec![Register::Gpr(1)]);
        assert_eq!(inst.to_string(), "[B------:R-:W-:-:S04] MOV R1, 0x7 ;");
        let _ = RegOperand::new(Register::Gpr(0)).wide().reuse();
    }
}
