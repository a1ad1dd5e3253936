//! The per-instruction scheduling control code.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::SassError;

/// Number of scoreboard wait barriers available per warp on Ampere.
pub const NUM_BARRIERS: u8 = 6;

/// The GPU architecture generation a SASS listing targets.
///
/// The textual control-code format (`[B------:R-:W-:-:Sxx]`) is shared by
/// every generation this crate models, but its *interpretation* is
/// architecture-specific: how many scoreboard barriers a warp owns, how wide
/// the stall field is, and whether asynchronous `LDGSTS` copies exist at
/// all. [`crate::ControlCode`] stores the syntactic fields; this enum
/// answers the semantic questions, and `gpusim::ArchSpec` builds its
/// simulation parameters on top of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArchClass {
    /// Turing (sm_75): 6 scoreboard barriers, no `LDGSTS` asynchronous
    /// copies (they are accepted but behave like fused `LDG`+`STS`).
    Turing,
    /// Ampere (sm_80/sm_86): the generation the paper evaluates.
    Ampere,
    /// Hopper (sm_90): Ampere semantics plus the TMA-era extensions (still
    /// expressed through `LDGSTS` in this model).
    Hopper,
}

impl ArchClass {
    /// The `sm_XX` compute-capability number of this generation.
    #[must_use]
    pub fn sm_version(&self) -> u32 {
        match self {
            ArchClass::Turing => 75,
            ArchClass::Ampere => 80,
            ArchClass::Hopper => 90,
        }
    }

    /// Number of scoreboard wait barriers one warp owns. Every generation
    /// this crate models exposes the six `B0..B5` slots of the textual
    /// control-code format.
    #[must_use]
    pub fn scoreboard_barriers(&self) -> u8 {
        NUM_BARRIERS
    }

    /// Lower-case generation name (`"turing"`, `"ampere"`, `"hopper"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ArchClass::Turing => "turing",
            ArchClass::Ampere => "ampere",
            ArchClass::Hopper => "hopper",
        }
    }
}

/// The scheduling control word attached to every Ampere SASS instruction.
///
/// In CuAssembler-style listings it is rendered as
/// `[B------:R-:W2:Y:S02]`:
///
/// * the **wait barrier mask** (`B` field): a bitmask over the six scoreboard
///   barriers; the instruction stalls at issue until every barrier in the
///   mask has been cleared,
/// * the **read barrier** (`R` field): the barrier this instruction sets and
///   clears once its source operands have been read (used by
///   variable-latency instructions that read registers late),
/// * the **write barrier** (`W` field): the barrier this instruction sets and
///   clears once its destination register is ready,
/// * the **yield flag** (`Y`): a hint to the warp scheduler that it may
///   switch to another warp after issuing this instruction,
/// * the **stall count** (`S` field): the number of cycles to stall before
///   issuing the next instruction from the same warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ControlCode {
    wait_mask: u8,
    read_barrier: Option<u8>,
    write_barrier: Option<u8>,
    yield_flag: bool,
    stall: u8,
}

impl ControlCode {
    /// Creates a control code with no barriers, no yield, and the given stall
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `stall > 15`: the stall field is 4 bits wide.
    #[must_use]
    pub fn with_stall(stall: u8) -> Self {
        assert!(stall <= 15, "stall count must fit in 4 bits, got {stall}");
        ControlCode {
            wait_mask: 0,
            read_barrier: None,
            write_barrier: None,
            yield_flag: false,
            stall,
        }
    }

    /// The wait barrier bitmask (bit `i` set means "wait for barrier `i`").
    #[must_use]
    pub fn wait_mask(&self) -> u8 {
        self.wait_mask
    }

    /// Returns true if this instruction waits on the given barrier index.
    #[must_use]
    pub fn waits_on(&self, barrier: u8) -> bool {
        barrier < NUM_BARRIERS && self.wait_mask & (1 << barrier) != 0
    }

    /// The read barrier set by this instruction, if any.
    #[must_use]
    pub fn read_barrier(&self) -> Option<u8> {
        self.read_barrier
    }

    /// The write barrier set by this instruction, if any.
    #[must_use]
    pub fn write_barrier(&self) -> Option<u8> {
        self.write_barrier
    }

    /// The yield flag.
    #[must_use]
    pub fn yield_flag(&self) -> bool {
        self.yield_flag
    }

    /// The stall count in cycles.
    #[must_use]
    pub fn stall(&self) -> u8 {
        self.stall
    }

    /// Replaces the stall count.
    ///
    /// # Panics
    ///
    /// Panics if `stall > 15`.
    pub fn set_stall(&mut self, stall: u8) {
        assert!(stall <= 15, "stall count must fit in 4 bits, got {stall}");
        self.stall = stall;
    }

    /// Adds (`wait = true`) or removes (`wait = false`) one barrier from the
    /// wait mask.
    ///
    /// # Panics
    ///
    /// Panics if `barrier >= NUM_BARRIERS`.
    pub fn set_wait(&mut self, barrier: u8, wait: bool) {
        assert!(barrier < NUM_BARRIERS, "barrier index out of range");
        if wait {
            self.wait_mask |= 1 << barrier;
        } else {
            self.wait_mask &= !(1 << barrier);
        }
    }
}

impl Default for ControlCode {
    fn default() -> Self {
        ControlCode::with_stall(1)
    }
}

impl fmt::Display for ControlCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[B")?;
        for i in 0..NUM_BARRIERS {
            if self.waits_on(i) {
                write!(f, "{i}")?;
            } else {
                write!(f, "-")?;
            }
        }
        write!(f, ":R")?;
        match self.read_barrier {
            Some(b) => write!(f, "{b}")?,
            None => write!(f, "-")?,
        }
        write!(f, ":W")?;
        match self.write_barrier {
            Some(b) => write!(f, "{b}")?,
            None => write!(f, "-")?,
        }
        write!(f, ":{}", if self.yield_flag { "Y" } else { "-" })?;
        write!(f, ":S{:02}]", self.stall)
    }
}

impl FromStr for ControlCode {
    type Err = SassError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| SassError::ControlCode(format!("missing brackets in `{s}`")))?;
        let fields: Vec<&str> = body.split(':').collect();
        if fields.len() != 5 {
            return Err(SassError::ControlCode(format!(
                "expected 5 colon-separated fields, got {} in `{s}`",
                fields.len()
            )));
        }
        // Wait mask: `B` followed by six characters, each either `-` or the
        // barrier digit.
        let wait = fields[0].strip_prefix('B').ok_or_else(|| {
            SassError::ControlCode(format!("wait field must start with B: `{s}`"))
        })?;
        if wait.len() != NUM_BARRIERS as usize {
            return Err(SassError::ControlCode(format!(
                "wait field must have {NUM_BARRIERS} slots: `{s}`"
            )));
        }
        let mut wait_mask = 0u8;
        for (i, ch) in wait.chars().enumerate() {
            match ch {
                '-' => {}
                c if c.is_ascii_digit() => {
                    let idx = c as u8 - b'0';
                    if idx as usize != i || idx >= NUM_BARRIERS {
                        return Err(SassError::ControlCode(format!(
                            "wait slot {i} holds barrier digit {c} in `{s}`"
                        )));
                    }
                    wait_mask |= 1 << idx;
                }
                c => {
                    return Err(SassError::ControlCode(format!(
                        "unexpected character `{c}` in wait field of `{s}`"
                    )))
                }
            }
        }
        let parse_barrier = |field: &str, prefix: char| -> Result<Option<u8>, SassError> {
            let rest = field.strip_prefix(prefix).ok_or_else(|| {
                SassError::ControlCode(format!("field `{field}` must start with {prefix}"))
            })?;
            match rest {
                "-" => Ok(None),
                digit => {
                    let idx: u8 = digit.parse().map_err(|_| {
                        SassError::ControlCode(format!("invalid barrier index `{digit}`"))
                    })?;
                    if idx >= NUM_BARRIERS {
                        return Err(SassError::ControlCode(format!(
                            "barrier index {idx} out of range"
                        )));
                    }
                    Ok(Some(idx))
                }
            }
        };
        let read_barrier = parse_barrier(fields[1], 'R')?;
        let write_barrier = parse_barrier(fields[2], 'W')?;
        let yield_flag = match fields[3] {
            "Y" => true,
            "-" => false,
            other => {
                return Err(SassError::ControlCode(format!(
                    "yield field must be Y or -, got `{other}`"
                )))
            }
        };
        let stall_text = fields[4].strip_prefix('S').ok_or_else(|| {
            SassError::ControlCode(format!("stall field must start with S: `{s}`"))
        })?;
        let stall: u8 = stall_text
            .parse()
            .map_err(|_| SassError::ControlCode(format!("invalid stall count `{stall_text}`")))?;
        if stall > 15 {
            return Err(SassError::ControlCode(format!(
                "stall count {stall} exceeds 15"
            )));
        }
        Ok(ControlCode {
            wait_mask,
            read_barrier,
            write_barrier,
            yield_flag,
            stall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_example() {
        // The example given in §2.3 of the paper.
        let cc: ControlCode = "[B------:R-:W2:Y:S02]".parse().unwrap();
        assert_eq!(cc.wait_mask(), 0);
        assert_eq!(cc.read_barrier(), None);
        assert_eq!(cc.write_barrier(), Some(2));
        assert!(cc.yield_flag());
        assert_eq!(cc.stall(), 2);
    }

    #[test]
    fn parse_wait_mask() {
        let cc: ControlCode = "[B0-2--5:R1:W-:-:S04]".parse().unwrap();
        assert!(cc.waits_on(0));
        assert!(!cc.waits_on(1));
        assert!(cc.waits_on(2));
        assert!(cc.waits_on(5));
        assert_eq!(cc.read_barrier(), Some(1));
    }

    #[test]
    fn display_round_trips() {
        let cases = [
            "[B------:R-:W2:Y:S02]",
            "[B0-2--5:R1:W-:-:S04]",
            "[B------:R-:W-:-:S15]",
            "[B012345:R0:W5:Y:S00]",
        ];
        for text in cases {
            let cc: ControlCode = text.parse().unwrap();
            assert_eq!(cc.to_string(), text);
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        for text in [
            "B------:R-:W2:Y:S02",   // missing brackets
            "[B-----:R-:W2:Y:S02]",  // wait too short
            "[B------:R-:W2:Y]",     // missing stall
            "[B------:R-:W9:Y:S02]", // barrier out of range
            "[B------:R-:W2:Y:S99]", // stall out of range
            "[B------:X-:W2:Y:S02]", // wrong prefix
            "[B--1---:R-:W-:-:S01]", // digit in wrong slot
        ] {
            assert!(
                text.parse::<ControlCode>().is_err(),
                "should reject `{text}`"
            );
        }
    }

    #[test]
    fn with_stall_panics_above_15() {
        let result = std::panic::catch_unwind(|| ControlCode::with_stall(16));
        assert!(result.is_err());
    }

    #[test]
    fn barrier_free_detection() {
        let free = ControlCode::with_stall(4);
        assert_eq!(
            (free.wait_mask(), free.read_barrier(), free.write_barrier()),
            (0, None, None)
        );
        let writes: ControlCode = "[B------:R-:W0:-:S04]".parse().unwrap();
        assert_eq!(writes.write_barrier(), Some(0));
        let mut waits = free;
        waits.set_wait(3, true);
        assert_eq!(waits.wait_mask(), 1 << 3);
    }
}
