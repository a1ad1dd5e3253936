//! Pluggable GPU architecture backends.
//!
//! The simulator used to hard-code one Ampere-like microarchitecture. This
//! module turns every per-SM microarchitectural parameter into data — an
//! [`ArchSpec`] — so that the same cycle loop can model different GPU
//! generations:
//!
//! * the **opcode latency table** ([`LatencyModel`] plus per-opcode
//!   overrides),
//! * the **issue and stall rules** (issue width, minimum stall, tensor-pipe
//!   issue gap),
//! * the **register-bank model** ([`BankModel`]: bank count, conflict
//!   penalty, operand-reuse cache),
//! * the **scoreboard-barrier semantics** (via [`sass::ArchClass`]),
//! * the **SM resource limits** (resident warps, LSU queue depth,
//!   LSU bytes per cycle).
//!
//! Three built-in profiles are provided: [`ArchSpec::ampere`] (bit-identical
//! to the pre-refactor hard-coded behaviour, enforced by golden tests),
//! [`ArchSpec::turing`] and [`ArchSpec::hopper`]. Profiles are selected by
//! name through [`ArchSpec::by_name`] / [`crate::GpuConfig::by_name`] and
//! travel inside [`crate::GpuConfig`], so every consumer — program lowering,
//! both simulator loops, the stall-table micro-benchmarks, action masking
//! and the schedule-evaluation cache keys — sees the same profile.

use sass::{ArchClass, Mnemonic, Opcode};
use serde::{Deserialize, Serialize};

use crate::config::LatencyModel;

/// The register-file bank model of one architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankModel {
    /// Number of register banks (operand collectors). Register `Rn` lives in
    /// bank `n % banks`.
    pub banks: usize,
    /// Extra issue cycles paid per conflicting source operand.
    pub conflict_penalty: u64,
    /// Whether the operand-reuse cache (`.reuse` flag) exists. When false,
    /// reuse hints are accepted but have no timing effect.
    pub reuse_cache: bool,
}

/// A complete per-SM microarchitecture description.
///
/// The chip-level parameters (SM count, clock, memory system) stay in
/// [`crate::GpuConfig`]; everything the warp scheduler and the execution
/// pipelines decide per cycle lives here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchSpec {
    /// Profile name (`"ampere"`, `"turing"`, `"hopper"`); part of the
    /// schedule-evaluation cache key.
    pub name: String,
    /// The architecture generation (control-code interpretation).
    pub class: ArchClass,
    /// Instructions the warp scheduler can issue per cycle per SM. A value
    /// above 1 models dual-issue schedulers.
    pub issue_width: usize,
    /// Maximum warps resident on one SM.
    pub max_warps_per_sm: usize,
    /// Maximum outstanding off-SM memory requests per SM.
    pub lsu_queue_depth: usize,
    /// Register-file bank model.
    pub banks: BankModel,
    /// Pipeline latencies by instruction class.
    pub latency: LatencyModel,
    /// Per-opcode latency overrides consulted before the class table. Keys
    /// are full dotted opcode names (`"MUFU.RSQ"`) or base mnemonics.
    pub op_latency_overrides: Vec<(String, u64)>,
    /// Minimum effective stall count (a stall of 0 in the listing still
    /// stalls this many cycles).
    pub min_stall: u64,
    /// An MMA may not issue while the tensor pipe is busy beyond
    /// `cycle + mma_issue_gap`.
    pub mma_issue_gap: u64,
    /// Cycles after a request leaves the LSU before its read barrier clears.
    pub read_barrier_drain: u64,
    /// Warp-wide bytes the LSU accepts per cycle.
    pub lsu_bytes_per_cycle: u64,
    /// Tensor-pipe occupancy per MMA instruction.
    pub mma_busy: u64,
}

impl ArchSpec {
    /// The Ampere-like baseline profile. Its parameters are exactly the
    /// constants the simulator hard-coded before architectures became
    /// pluggable; the `arch_golden` workspace test pins this bit for bit.
    #[must_use]
    pub fn ampere() -> Self {
        let latency = LatencyModel::default();
        ArchSpec {
            name: "ampere".to_string(),
            class: ArchClass::Ampere,
            issue_width: 1,
            max_warps_per_sm: 64,
            lsu_queue_depth: 64,
            banks: BankModel {
                banks: 4,
                conflict_penalty: 1,
                reuse_cache: true,
            },
            mma_busy: latency.mma / 2,
            latency,
            op_latency_overrides: Vec::new(),
            min_stall: 1,
            mma_issue_gap: 4,
            read_barrier_drain: 4,
            lsu_bytes_per_cycle: 128,
        }
    }

    /// A Turing-like profile (sm_75): a two-bank register file, a slower
    /// first-generation tensor pipe, a narrower LSU and higher memory
    /// latencies.
    ///
    /// Like every built-in profile, its *unprotected* fixed latencies stay
    /// within the stall budget the `kernels` generators emit (ALU ≤ 4,
    /// `IMAD.WIDE` ≤ 6, `S2R` ≤ 13): the generators model Ampere-era
    /// `ptxas -O3` output, and a real compiler targeting each architecture
    /// would emit arch-appropriate stall counts. Barrier-protected classes
    /// (memory, `MUFU`, MMA accumulators) are free to differ arbitrarily.
    #[must_use]
    pub fn turing() -> Self {
        let latency = LatencyModel {
            alu: 4,
            imad_wide: 6,
            mma: 32,
            sfu: 20,
            s2r: 13,
            shared: 26,
            l1_hit: 38,
            l2_hit: 216,
            dram: 560,
        };
        ArchSpec {
            name: "turing".to_string(),
            class: ArchClass::Turing,
            issue_width: 1,
            max_warps_per_sm: 32,
            lsu_queue_depth: 32,
            banks: BankModel {
                banks: 2,
                conflict_penalty: 1,
                reuse_cache: true,
            },
            mma_busy: latency.mma / 2,
            latency,
            op_latency_overrides: vec![("MUFU.RSQ".to_string(), 24)],
            min_stall: 1,
            mma_issue_gap: 8,
            read_barrier_drain: 4,
            lsu_bytes_per_cycle: 64,
        }
    }

    /// A Hopper-like profile (sm_90): more register banks, a faster tensor
    /// pipe with a tighter re-issue window, a wider LSU and lower memory
    /// latencies.
    #[must_use]
    pub fn hopper() -> Self {
        let latency = LatencyModel {
            alu: 4,
            imad_wide: 5,
            mma: 8,
            sfu: 14,
            s2r: 10,
            shared: 19,
            l1_hit: 29,
            l2_hit: 170,
            dram: 410,
        };
        ArchSpec {
            name: "hopper".to_string(),
            class: ArchClass::Hopper,
            issue_width: 1,
            max_warps_per_sm: 64,
            lsu_queue_depth: 128,
            banks: BankModel {
                banks: 8,
                conflict_penalty: 1,
                reuse_cache: true,
            },
            mma_busy: latency.mma / 2,
            latency,
            op_latency_overrides: Vec::new(),
            min_stall: 1,
            mma_issue_gap: 2,
            read_barrier_drain: 4,
            lsu_bytes_per_cycle: 256,
        }
    }

    /// Looks a built-in profile up by name (case-insensitive). Accepts the
    /// generation names and the marketing aliases (`"a100"`, `"t4"`,
    /// `"h100"`, `"sm75"`, `"sm80"`, `"sm90"`).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "ampere" | "a100" | "sm80" | "sm_80" => Some(ArchSpec::ampere()),
            "turing" | "t4" | "sm75" | "sm_75" => Some(ArchSpec::turing()),
            "hopper" | "h100" | "sm90" | "sm_90" => Some(ArchSpec::hopper()),
            _ => None,
        }
    }

    /// Names of the built-in profiles, in `by_name` canonical form.
    #[must_use]
    pub fn builtin_names() -> [&'static str; 3] {
        ["ampere", "turing", "hopper"]
    }

    /// Fixed pipeline latency of a (non-memory) instruction: the per-opcode
    /// override table first (full dotted name, then base mnemonic), then the
    /// latency class of the mnemonic.
    #[must_use]
    pub fn fixed_latency(&self, opcode: &Opcode) -> u64 {
        // The override scan formats the opcode name; skip it entirely for
        // profiles without overrides — this runs once per instruction in
        // program lowering and per issue in the reference interpreter.
        if !self.op_latency_overrides.is_empty() {
            let full = opcode.full_name();
            let base = full.split('.').next().unwrap_or(&full);
            for (name, latency) in &self.op_latency_overrides {
                if name == &full || name == base {
                    return *latency;
                }
            }
        }
        match opcode.base() {
            Mnemonic::Imad if opcode.has_modifier("WIDE") => self.latency.imad_wide,
            Mnemonic::Hmma | Mnemonic::Imma => self.latency.mma,
            Mnemonic::Mufu => self.latency.sfu,
            Mnemonic::S2r => self.latency.s2r,
            _ => self.latency.alu,
        }
    }

    /// The opcode → minimum-stall entries of this architecture's Table-1
    /// analogue: the common fixed-latency opcodes at the ALU latency, wide
    /// multiply-adds at theirs and tensor MMAs at theirs. `cuasmrl`'s
    /// `StallTable::for_arch` is built from exactly this list.
    #[must_use]
    pub fn stall_entries(&self) -> Vec<(&'static str, u8)> {
        let clamp = |v: u64| u8::try_from(v).unwrap_or(u8::MAX);
        let alu = clamp(self.latency.alu);
        let mut entries: Vec<(&'static str, u8)> = [
            "IADD3",
            "IMAD.IADD",
            "IADD3.X",
            "MOV",
            "IABS",
            "IMAD",
            "FADD",
            "HADD2",
            "IMNMX",
            "SEL",
            "LEA",
            "FMUL",
            "FSETP",
            "ISETP",
            "LOP3",
            "SHF",
        ]
        .into_iter()
        .map(|op| (op, alu))
        .collect();
        let wide = clamp(self.latency.imad_wide);
        entries.push(("IMAD.WIDE", wide));
        entries.push(("IMAD.WIDE.U32", wide));
        let mma = clamp(self.latency.mma);
        entries.push(("HMMA", mma));
        entries.push(("HMMA.16816.F32", mma));
        entries
    }

    /// Number of scoreboard wait barriers one warp owns on this
    /// architecture.
    #[must_use]
    pub fn scoreboard_count(&self) -> usize {
        self.class.scoreboard_barriers() as usize
    }
}

impl Default for ArchSpec {
    fn default() -> Self {
        ArchSpec::ampere()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ampere_matches_the_pre_refactor_constants() {
        let arch = ArchSpec::ampere();
        assert_eq!(arch.latency, LatencyModel::default());
        assert_eq!(arch.issue_width, 1);
        assert_eq!(arch.max_warps_per_sm, 64);
        assert_eq!(arch.lsu_queue_depth, 64);
        assert_eq!(arch.banks.banks, 4);
        assert_eq!(arch.banks.conflict_penalty, 1);
        assert!(arch.banks.reuse_cache);
        assert_eq!(arch.min_stall, 1);
        assert_eq!(arch.mma_issue_gap, 4);
        assert_eq!(arch.read_barrier_drain, 4);
        assert_eq!(arch.lsu_bytes_per_cycle, 128);
        assert_eq!(arch.mma_busy, 8);
        assert!(arch.op_latency_overrides.is_empty());
        assert_eq!(arch.scoreboard_count(), 6);
    }

    #[test]
    fn profiles_resolve_by_name_and_alias() {
        assert_eq!(ArchSpec::by_name("ampere").unwrap().name, "ampere");
        assert_eq!(ArchSpec::by_name("A100").unwrap().name, "ampere");
        assert_eq!(ArchSpec::by_name("sm75").unwrap().name, "turing");
        assert_eq!(ArchSpec::by_name("H100").unwrap().name, "hopper");
        assert!(ArchSpec::by_name("pascal").is_none());
        for name in ArchSpec::builtin_names() {
            assert_eq!(ArchSpec::by_name(name).unwrap().name, name);
        }
    }

    #[test]
    fn profiles_differ_in_observable_parameters() {
        let a = ArchSpec::ampere();
        let t = ArchSpec::turing();
        let h = ArchSpec::hopper();
        assert_ne!(a.latency.mma, t.latency.mma);
        assert_ne!(a.latency.mma, h.latency.mma);
        assert_ne!(a.banks.banks, t.banks.banks);
        assert_ne!(a.banks.banks, h.banks.banks);
        assert_ne!(a.lsu_bytes_per_cycle, t.lsu_bytes_per_cycle);
        assert!(t.class.sm_version() < a.class.sm_version());
        assert!(a.class.sm_version() < h.class.sm_version());
    }

    #[test]
    fn opcode_latency_overrides_win_over_the_class_table() {
        let turing = ArchSpec::turing();
        let rsq: Opcode = "MUFU.RSQ".parse().unwrap();
        let rcp: Opcode = "MUFU.RCP".parse().unwrap();
        assert_eq!(turing.fixed_latency(&rsq), 24, "override by full name");
        assert_eq!(turing.fixed_latency(&rcp), turing.latency.sfu);
        let mut custom = ArchSpec::ampere();
        custom.op_latency_overrides.push(("MUFU".to_string(), 99));
        assert_eq!(custom.fixed_latency(&rcp), 99, "override by base name");
    }

    #[test]
    fn stall_entries_follow_the_latency_model() {
        let ampere = ArchSpec::ampere();
        let entries = ampere.stall_entries();
        let get = |name: &str| entries.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(get("IADD3"), Some(4));
        assert_eq!(get("IMAD.WIDE"), Some(5));
        assert_eq!(get("HMMA"), Some(16));
        let turing = ArchSpec::turing();
        let entries = turing.stall_entries();
        let get = |name: &str| entries.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(get("IMAD.WIDE"), Some(6));
        assert_eq!(get("HMMA"), Some(32));
    }
}
