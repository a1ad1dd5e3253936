//! Property-based tests for the SASS instruction model.

use proptest::prelude::*;
use sass::{adjacent_register, decode_program, encode_program, ControlCode, Program};

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

    /// Control codes round-trip through both the textual and the packed
    /// binary representation.
    #[test]
    fn control_codes_round_trip(
        wait in 0u8..64,
        read in prop::option::of(0u8..6),
        write in prop::option::of(0u8..6),
        yld in any::<bool>(),
        stall in 0u8..16,
    ) {
        let mut cc = ControlCode::with_stall(stall).set_yield(yld);
        for b in 0..6 {
            if wait & (1 << b) != 0 {
                cc = cc.wait_on(b);
            }
        }
        if let Some(r) = read {
            cc = cc.set_read_barrier(r);
        }
        if let Some(w) = write {
            cc = cc.set_write_barrier(w);
        }
        let text = cc.to_string();
        prop_assert_eq!(text.parse::<ControlCode>().unwrap(), cc);
        prop_assert_eq!(ControlCode::from_bits(cc.to_bits()).unwrap(), cc);
    }

    /// Any sequence of in-range adjacent swaps preserves the instruction
    /// multiset and the label positions, and the encoded program always
    /// round-trips.
    #[test]
    fn swaps_preserve_instructions_and_encoding_round_trips(
        swaps in prop::collection::vec(0usize..4, 0..16)
    ) {
        let text = "\
[B------:R-:W-:-:S04] MOV R4, 0x100 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
.L_mid:
[B0-----:R-:W-:-:S04] IADD3 R6, R2, 0x1, RZ ;
[B------:R-:W-:-:S04] IADD3 R8, R6, 0x2, RZ ;
[B------:R-:W-:-:S02] STG.E [R4], R8 ;
[B------:R-:W-:-:S05] EXIT ;
";
        let original: Program = text.parse().unwrap();
        let mut mutated = original.clone();
        for s in swaps {
            let _ = mutated.swap_instructions(s, s + 1);
        }
        prop_assert_eq!(mutated.instruction_count(), original.instruction_count());
        let mut original_texts: Vec<String> =
            original.instructions().map(ToString::to_string).collect();
        let mut mutated_texts: Vec<String> =
            mutated.instructions().map(ToString::to_string).collect();
        original_texts.sort();
        mutated_texts.sort();
        prop_assert_eq!(original_texts, mutated_texts);
        // Labels stay where they were in the item list.
        prop_assert!(matches!(mutated.items()[2], sass::Item::Label(_)));
        // Binary encoding round-trips the mutated schedule exactly.
        let decoded = decode_program(&encode_program(&mutated)).unwrap();
        prop_assert_eq!(decoded, mutated);
    }

    /// `clone_from` reaches exactly the source, whatever the target held:
    /// listings of different lengths, labels in different places, special
    /// and label operands, modifier lists of different sizes, and floating
    /// immediates that compare equal but differ in their bits (`0.0` and
    /// `-0.0`). A target that is the source reordered (the swap-back path)
    /// and then partly overwritten is covered too.
    #[test]
    fn clone_from_reaches_exactly_the_source(
        target in prop::collection::vec(0usize..CLONE_POOL.len(), 0..24),
        source in prop::collection::vec(0usize..CLONE_POOL.len(), 0..24),
        swaps in prop::collection::vec(0usize..24, 0..24),
        overwrite in prop::collection::vec(0usize..CLONE_POOL.len(), 0..3),
    ) {
        let source = listing(&source);
        let mut unrelated = listing(&target);
        unrelated.clone_from(&source);
        assert_exact(&unrelated, &source);

        let mut reordered = source.clone();
        for s in swaps {
            let _ = reordered.swap_instructions(s, s + 1);
        }
        let mut items = reordered.items().to_vec();
        for (slot, &line) in overwrite.iter().enumerate() {
            if let Some(item) = items.get_mut(slot * 5) {
                *item = listing(&[line]).items()[0].clone();
            }
        }
        let mut reordered = Program::from_items(items);
        reordered.clone_from(&source);
        assert_exact(&reordered, &source);
    }
}

/// Listing lines `clone_from_reaches_exactly_the_source` draws from.
const CLONE_POOL: &[&str] = &[
    ".L_a:",
    ".L_b:",
    "[B------:R-:W-:-:S04] MOV R4, 0x100 ;",
    "[B------:R-:W0:-:S02] LDG.E R2, [R4] ;",
    "[B------:R-:W0:-:S02] LDGSTS.E.BYPASS.LTC128B.128 [R74+0x100], desc[UR16][R10.64+0x200] ;",
    "[B------:R-:W-:-:S13] S2R R0, SR_CTAID.X ;",
    "[B------:R-:W-:-:S02] CS2R R6, SR_CLOCKLO ;",
    "[B------:R-:W-:-:S06] @P1 BRA `(.L_a) ;",
    "[B------:R-:W-:-:S06] BRA `(.L_b) ;",
    "[B------:R-:W-:-:S04] IMAD.WIDE.U32 R10, R8, 0x2000, R10 ;",
    "[B------:R-:W-:-:S04] FMUL R40, R162, 0.0 ;",
    "[B------:R-:W-:-:S04] FMUL R40, R162, -0.0 ;",
    "[B------:R-:W-:-:S02] HMMA.16816.F32 R162, R80.reuse, R84, R162 ;",
    "[B------:R-:W-:-:S05] EXIT ;",
];

fn listing(lines: &[usize]) -> Program {
    let text: String = lines
        .iter()
        .map(|&i| format!("{}\n", CLONE_POOL[i]))
        .collect();
    text.parse().unwrap()
}

/// Equal by `==` and by `Debug`, which tells `0.0` from `-0.0`.
fn assert_exact(actual: &Program, expected: &Program) {
    assert_eq!(actual, expected);
    assert_eq!(format!("{actual:?}"), format!("{expected:?}"));
}
