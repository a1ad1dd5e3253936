//! Property-based tests for the SASS instruction model.

use proptest::prelude::*;
use sass::{adjacent_register, ArchClass, ControlCode, Cubin, Instruction, Operand, Program};

const LISTING: &str = "\
[B------:R-:W-:-:S04] MOV R4, 0x100 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
.L_mid:
[B0-----:R-:W-:-:S04] IADD3 R6, R2, 0x1, RZ ;
[B------:R-:W-:-:S04] IADD3 R8, R6, 0x2, RZ ;
[B------:R-:W-:-:S02] STG.E [R4], R8 ;
[B------:R-:W-:-:S05] EXIT ;
";

/// `program` read back out of the text section of a cubin built from it.
fn through_a_cubin(program: &Program) -> Program {
    Cubin::from_kernel(ArchClass::Ampere, "k", program)
        .kernel_program("k")
        .unwrap()
}

proptest! {
    /// The adjacent-register rule (equation 2) is an involution and always
    /// pairs an even register with the next odd one.
    #[test]
    fn adjacent_register_is_an_involution(n in 0u16..255) {
        let adj = adjacent_register(n);
        prop_assert_eq!(adjacent_register(adj), n);
        prop_assert_eq!(n / 2, adj / 2);
        prop_assert_ne!(n, adj);
    }

    /// Control codes round-trip through their textual representation.
    #[test]
    fn control_codes_round_trip(
        wait in 0u8..64,
        read in prop::option::of(0u8..6),
        write in prop::option::of(0u8..6),
        yld in any::<bool>(),
        stall in 0u8..16,
    ) {
        let slot = |b: u8| if wait & (1 << b) != 0 { char::from(b'0' + b) } else { '-' };
        let barrier = |b: Option<u8>| b.map_or("-".to_string(), |b| b.to_string());
        let text = format!(
            "[B{}:R{}:W{}:{}:S{stall:02}]",
            (0..6).map(slot).collect::<String>(),
            barrier(read),
            barrier(write),
            if yld { "Y" } else { "-" },
        );
        let cc: ControlCode = text.parse().unwrap();
        prop_assert_eq!(
            (cc.wait_mask(), cc.read_barrier(), cc.write_barrier(), cc.yield_flag(), cc.stall()),
            (wait, read, write, yld, stall)
        );
        prop_assert_eq!(cc.to_string(), text);
    }

    /// Any sequence of in-range adjacent swaps preserves the instruction
    /// multiset and the label positions, and the swapped program always
    /// round-trips through a cubin's text section.
    #[test]
    fn swaps_preserve_instructions_and_encoding_round_trips(
        swaps in prop::collection::vec(0usize..4, 0..16)
    ) {
        let original: Program = LISTING.parse().unwrap();
        let mut mutated = original.clone();
        for s in swaps {
            let _ = mutated.swap_instructions(s, s + 1);
        }
        prop_assert_eq!(mutated.instruction_count(), original.instruction_count());
        let mut original_texts: Vec<String> =
            original.instructions().iter().map(ToString::to_string).collect();
        let mut mutated_texts: Vec<String> =
            mutated.instructions().iter().map(ToString::to_string).collect();
        original_texts.sort();
        mutated_texts.sort();
        prop_assert_eq!(original_texts, mutated_texts);
        // Labels stay anchored where they were.
        prop_assert_eq!(mutated.labels(), original.labels());
        prop_assert_eq!(mutated.labels(), [(2, ".L_mid".to_string())]);
        prop_assert_eq!(through_a_cubin(&mutated), mutated);
    }

    /// A content edit — a new stall count, a wait barrier added or dropped
    /// and a reuse hint toggled — round-trips through a cubin's text
    /// section: the text is the only place those fields are stored.
    #[test]
    fn content_edits_round_trip_through_a_cubin(
        at in 0usize..6,
        stall in 0u8..16,
        barrier in 0u8..6,
        wait in any::<bool>(),
        operand in 0usize..3,
    ) {
        let mut program: Program = LISTING.parse().unwrap();
        let inst = program.instruction_mut(at).unwrap();
        inst.control_mut().set_stall(stall);
        inst.control_mut().set_wait(barrier, wait);
        let reused = inst.operands().get(operand).is_some_and(Operand::has_reuse);
        let _ = inst.set_operand_reuse(operand, !reused);
        prop_assert_eq!(through_a_cubin(&program), program);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    /// A finite float immediate prints as text that parses back to the same
    /// bits, on its own and inside an instruction: an arbitrary bit pattern
    /// (mostly exponent forms), an integral value and `-0.0` per case.
    #[test]
    fn float_immediates_round_trip_bit_exactly(
        high in any::<u32>(),
        low in any::<u32>(),
        integral in any::<i32>(),
    ) {
        let bits = u64::from(high) << 32 | u64::from(low);
        for v in [f64::from_bits(bits), f64::from(integral), -0.0] {
            if !v.is_finite() {
                continue;
            }
            let text = Operand::FImm(v).to_string();
            let parsed: Operand = text.parse().unwrap();
            prop_assert!(
                matches!(parsed, Operand::FImm(w) if w.to_bits() == v.to_bits()),
                "{text} parses as {parsed:?}"
            );
            let line = format!("[B------:R-:W-:-:S04] FMUL R1, R2, {text} ;");
            let inst: Instruction = line.parse().unwrap();
            prop_assert_eq!(inst.to_string(), line);
        }
    }
}
