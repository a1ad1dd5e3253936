//! The lowered mirror of one [`crate::AssemblyGame`]'s current schedule.
//!
//! The reward of a move is "execute the mutated schedule" (§3.6): every
//! eval-cache miss simulates the game's current schedule from cycle zero.
//! What a game keeps between moves is only the schedule's lowered
//! [`CompiledProgram`], advanced edit by edit in O(1) instead of re-lowered
//! per candidate. Every report produced here is bit-identical to
//! [`gpusim::simulate_launch`] on the same listing (pinned across action
//! spaces and architecture profiles by the workspace `delta_equivalence`
//! suite), so cache entries stay interchangeable with ones computed through
//! [`gpusim::measure`].

use gpusim::{
    resident_warps, CompiledProgram, ConstantBank, GpuConfig, LaunchConfig, SmReport, SmSimulator,
};
use sass::Program;

use crate::action::ScheduleEdit;

/// The current schedule in lowered form, with everything one simulation of
/// it needs.
#[derive(Debug, Clone)]
pub(crate) struct LoweredSchedule {
    simulator: SmSimulator,
    warps: usize,
    constants: ConstantBank,
    max_cycles: u64,
    current: CompiledProgram,
}

impl LoweredSchedule {
    /// Lowers `program` for `gpu`, to be simulated as `launch` runs it.
    pub(crate) fn new(gpu: &GpuConfig, launch: &LaunchConfig, program: &Program) -> Self {
        LoweredSchedule {
            simulator: SmSimulator::new(gpu.clone()),
            warps: resident_warps(gpu, launch),
            constants: launch.constant_bank(),
            max_cycles: launch.max_cycles,
            current: CompiledProgram::compile(program, gpu),
        }
    }

    /// Mirrors `edit`, already applied to the source schedule, which is now
    /// `program_after` ([`ScheduleEdit::apply_to_compiled`]).
    pub(crate) fn apply(&mut self, edit: &ScheduleEdit, program_after: &Program) {
        edit.apply_to_compiled(&mut self.current, program_after, self.simulator.config());
    }

    /// Simulates the current schedule from cycle zero.
    pub(crate) fn simulate(&self) -> SmReport {
        self.simulator
            .run_compiled(
                &self.current,
                self.warps,
                0,
                &self.constants,
                self.max_cycles,
            )
            .report
    }

    /// Adopts an arbitrary schedule of the same kernel (checkpoint restore).
    pub(crate) fn relower(&mut self, program: &Program) {
        self.current = CompiledProgram::compile(program, self.simulator.config());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::simulate_launch;

    const SAMPLE: &str = "\
[B------:R-:W-:-:S04] MOV R4, 0x1000 ;
[B------:R-:W-:-:S04] MOV R8, 0x2000 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
[B------:R-:W1:-:S02] LDG.E R3, [R8] ;
[B------:R-:W-:-:S04] MOV R20, 0x3 ;
[B------:R-:W-:-:S04] IMAD R21, R20, R20, RZ ;
[B------:R-:W-:-:S04] IMAD R22, R21, R20, RZ ;
[B01----:R-:W-:-:S04] IADD3 R6, R2, R3, RZ ;
[B------:R-:W-:-:S04] STG.E [R4], R6 ;
[B------:R-:W-:-:S05] EXIT ;
";

    #[test]
    fn session_measurements_match_full_measure_through_swap_chains() {
        let gpu = GpuConfig::small();
        let launch = LaunchConfig::default();
        let mut program: Program = SAMPLE.parse().unwrap();
        let mut lowered = LoweredSchedule::new(&gpu, &launch, &program);
        let full = |program: &Program| simulate_launch(&gpu, program, &launch).sm;
        let initial = full(&program);
        assert_eq!(lowered.simulate(), initial);
        // Walk a chain of swaps and one content edit, cross-checking every
        // intermediate schedule against lowering the listing from scratch.
        let swaps = [4, 5, 4, 0, 5, 4, 1, 5, 0].map(|upper| ScheduleEdit::Swap { upper });
        let retune = ScheduleEdit::SetStall {
            index: 5,
            from: 4,
            to: 6,
        };
        for edit in swaps.iter().chain([&retune]) {
            assert!(edit.apply(&mut program), "{edit:?}");
            lowered.apply(edit, &program);
            assert_eq!(lowered.simulate(), full(&program), "after {edit:?}");
        }
        // The inverses, in reverse, walk back to the initial schedule (an
        // episode reset), and a re-lowering lands on the schedule it names.
        let edited = program.clone();
        for edit in swaps.iter().chain([&retune]).rev() {
            assert!(edit.inverse().apply(&mut program), "{edit:?}");
            lowered.apply(&edit.inverse(), &program);
        }
        assert_eq!(lowered.simulate(), initial);
        lowered.relower(&edited);
        assert_eq!(lowered.simulate(), full(&edited));
    }
}
