//! Differential tests aimed at the state the event-driven `CycleEngine`
//! caches between cycles: per-warp wake cycles, idle-stretch jumps, the
//! lazily drained LSU queue, the event-triggered barrier release and the
//! one-deadline scoreboards. The oracle is
//! [`gpusim::SmSimulator::run_reference`], which visits every cycle, decodes
//! every instruction on issue and keeps every in-flight scoreboard
//! completion — none of the engine's shortcuts.
//!
//! The generated programs deliberately visit what no registry kernel does:
//! `DEPBAR`, back-to-back MMAs gated by the tensor pipe, yield flags, waits
//! on scoreboards with several completions in flight, and — under an
//! `ArchSpec` with `lsu_queue_depth: 2` and `issue_width: 2` — a full LSU
//! queue and dual issue (no built-in profile ever fills the queue or issues
//! twice per cycle).

use gpusim::{CompiledProgram, ConstantBank, DeltaEngine, DeltaOutcome, GpuConfig, SmSimulator};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sass::Program;

/// Every built-in profile as shipped, and again squeezed to a two-entry LSU
/// queue and a dual-issue scheduler.
fn configs() -> Vec<GpuConfig> {
    let mut configs = Vec::new();
    for name in ["ampere", "turing", "hopper"] {
        let stock = GpuConfig::by_name(name).expect("built-in profile");
        let mut squeezed = stock.clone();
        squeezed.arch.lsu_queue_depth = 2;
        squeezed.arch.issue_width = 2;
        configs.push(stock);
        configs.push(squeezed);
    }
    configs
}

/// A random control code: short stalls (so warps are often due together),
/// yield flags, and waits on arbitrary scoreboards — including ones with
/// several completions in flight and ones never set.
fn control(rng: &mut ChaCha8Rng, read: Option<u8>, write: Option<u8>) -> String {
    let mut wait = String::new();
    let waits = rng.gen_range(0..3) == 0;
    for barrier in 0..6u8 {
        if waits && rng.gen_range(0..3) == 0 {
            wait.push(char::from(b'0' + barrier));
        } else {
            wait.push('-');
        }
    }
    let slot = |b: Option<u8>| b.map_or("-".to_string(), |b| b.to_string());
    let yield_flag = if rng.gen_range(0..4) == 0 { "Y" } else { "-" };
    let stall = if rng.gen_range(0..8) == 0 {
        12
    } else {
        rng.gen_range(1..7)
    };
    format!(
        "[B{wait}:R{}:W{}:{yield_flag}:S{stall:02}]",
        slot(read),
        slot(write)
    )
}

/// One random body instruction (or a back-to-back MMA burst).
fn body_instruction(rng: &mut ChaCha8Rng, out: &mut Vec<String>) {
    let barrier = |rng: &mut ChaCha8Rng| -> Option<u8> {
        (rng.gen_range(0..4) != 0).then(|| rng.gen_range(0..3))
    };
    let dest = rng.gen_range(12..28);
    let a = rng.gen_range(12..28);
    let b = rng.gen_range(12..28);
    let offset = rng.gen_range(0..16) * 0x80;
    match rng.gen_range(0..12) {
        0 | 1 => {
            let code = control(rng, None, None);
            out.push(format!("{code} IADD3 R{dest}, R{a}, 0x{offset:x}, RZ ;"));
        }
        2 => {
            let code = control(rng, None, None);
            out.push(format!("{code} FFMA R{dest}, R{a}.reuse, R{b}, R{dest} ;"));
        }
        3 | 4 => {
            // Global loads: fill the outstanding-request queue and stack
            // completions on a handful of scoreboards.
            let write = barrier(rng);
            let code = control(rng, None, write);
            out.push(format!("{code} LDG.E R{dest}, [R4+0x{offset:x}] ;"));
        }
        5 => {
            let read = barrier(rng);
            let code = control(rng, read, None);
            out.push(format!("{code} STG.E [R8+0x{offset:x}], R{a} ;"));
        }
        6 => {
            let write = barrier(rng);
            let code = control(rng, None, write);
            out.push(format!("{code} LDS.U.128 R{dest}, [R74+0x{offset:x}] ;"));
        }
        7 => {
            let read = barrier(rng);
            let code = control(rng, read, None);
            out.push(format!(
                "{code} LDGSTS.E.128 [R74+0x{offset:x}], desc[UR18][R10.64] ;"
            ));
        }
        8 => {
            // Back-to-back MMAs: the second is gated by the tensor pipe.
            for _ in 0..rng.gen_range(2..5) {
                let code = control(rng, None, None);
                out.push(format!("{code} HMMA.16816.F32 R24, R24.reuse, R76, R24 ;"));
            }
        }
        9 => {
            let write = barrier(rng);
            let code = control(rng, None, write);
            out.push(format!("{code} MUFU.RSQ R{dest}, R{a} ;"));
        }
        10 => {
            let code = control(rng, None, None);
            if rng.gen_range(0..2) == 0 {
                out.push(format!("{code} DEPBAR.LE 0x0 ;"));
            } else {
                out.push(format!("{code} LDGDEPBAR ;"));
            }
        }
        _ => {
            let code = control(rng, None, None);
            out.push(format!("{code} BAR.SYNC 0x0 ;"));
        }
    }
}

/// A short well-formed program: address set-up, a counted loop over a random
/// body, a random tail and `EXIT`. Every warp runs the same trip count, so
/// `BAR.SYNC` inside the loop is reached by all of them — except that half
/// the programs let the first or the last few warps leave through a
/// predicated `EXIT` somewhere along the way, so a barrier is also released
/// by the exit of the last warp that was not parked at it.
fn random_program(seed: u64) -> Program {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut lines: Vec<String> = [
        "MOV R4, 0x1000",
        "MOV R8, 0x2000",
        "MOV R74, 0x100",
        "MOV R10, 0x4000",
        // Per-warp addresses (R252 is pre-seeded with warp_id * 32).
        "IADD3 R4, R4, R252, RZ",
        "MOV R30, 0x0",
    ]
    .iter()
    .map(|text| format!("[B------:R-:W-:-:S04] {text} ;"))
    .collect();
    lines.push(format!(
        "[B------:R-:W-:-:S08] MOV R31, 0x{:x} ;",
        rng.gen_range(1..4)
    ));
    let early_exit = rng.gen_range(0..2) == 0;
    if early_exit {
        lines.push(format!(
            "[B------:R-:W-:-:S08] ISETP.GE.AND P1, PT, R252, 0x{:x}, PT ;",
            rng.gen_range(1..4) * 32
        ));
    }
    lines.push(".L_loop:".to_string());
    let body_start = lines.len();
    for _ in 0..rng.gen_range(3..14) {
        body_instruction(&mut rng, &mut lines);
    }
    if early_exit {
        let code = control(&mut rng, None, None);
        let at = rng.gen_range(body_start..lines.len() + 1);
        let polarity = if rng.gen_range(0..2) == 0 { "!" } else { "" };
        lines.insert(at, format!("{code} @{polarity}P1 EXIT ;"));
    }
    lines.push("[B------:R-:W-:-:S08] IADD3 R30, R30, 0x1, RZ ;".to_string());
    lines.push("[B------:R-:W-:-:S08] ISETP.LT.AND P0, PT, R30, R31, PT ;".to_string());
    lines.push("[B------:R-:W-:-:S08] @P0 BRA `(.L_loop) ;".to_string());
    for _ in 0..rng.gen_range(0..5) {
        body_instruction(&mut rng, &mut lines);
    }
    lines.push("[B------:R-:W-:-:S05] EXIT ;".to_string());
    let text = lines.join("\n") + "\n";
    text.parse()
        .unwrap_or_else(|err| panic!("generated program must parse ({err}):\n{text}"))
}

fn assert_engine_matches_reference(
    gpu: &GpuConfig,
    program: &Program,
    warps: usize,
    max_cycles: u64,
) {
    let simulator = SmSimulator::new(gpu.clone());
    let constants = ConstantBank::new();
    let fast = simulator.run(program, warps, 0, &constants, max_cycles);
    let reference = simulator.run_reference(program, warps, 0, &constants, max_cycles);
    let context = format!(
        "{} (queue {}, width {}), {warps} warps, limit {max_cycles}:\n{program}",
        gpu.arch.name, gpu.arch.lsu_queue_depth, gpu.arch.issue_width
    );
    assert_eq!(fast.report, reference.report, "{context}");
    assert_eq!(
        fast.memory.global_digest(),
        reference.memory.global_digest(),
        "{context}"
    );
    // The event-driven engine accounts for every cycle it did not step.
    assert!(
        fast.work.steps + fast.work.cycles_jumped >= fast.report.cycles,
        "{context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine report, memory digest and cycle count equal the per-cycle
    /// reference on random programs, 1-24 warps, every profile, stock and
    /// squeezed.
    #[test]
    fn engine_matches_reference_on_random_programs(seed in 0u64..1_000_000, warps in 1usize..25) {
        let program = random_program(seed);
        for gpu in configs() {
            assert_engine_matches_reference(&gpu, &program, warps, 200_000);
        }
    }

    /// The same under a cycle limit that cuts the run anywhere — inside an
    /// idle stretch included: `cycles == max_cycles`, `completed == false`.
    #[test]
    fn cycle_limited_runs_match_reference(seed in 0u64..1_000_000, warps in 1usize..9, limit in 1u64..600) {
        let program = random_program(seed);
        for gpu in configs() {
            assert_engine_matches_reference(&gpu, &program, warps, limit);
        }
    }
}

/// One load, then a consumer that waits ~a DRAM latency for it: the run is
/// one long idle stretch between two issues.
const IDLE_STRETCH: &str = "\
[B------:R-:W-:-:S04] MOV R4, 0x1000 ;
[B------:R-:W-:-:S04] MOV R8, 0x2000 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
[B0-----:R-:W-:-:S04] IADD3 R6, R2, 0x1, RZ ;
[B------:R-:W-:-:S04] STG.E [R8], R6 ;
[B------:R-:W-:-:S05] EXIT ;
";

#[test]
fn a_cycle_limit_inside_an_idle_stretch_ends_exactly_there() {
    let gpu = GpuConfig::small();
    let program: Program = IDLE_STRETCH.parse().unwrap();
    let simulator = SmSimulator::new(gpu.clone());
    let constants = ConstantBank::new();
    let full = simulator.run(&program, 1, 0, &constants, 1_000_000);
    assert!(full.report.completed);
    // The load issues at cycle 8 and nothing can issue until it lands.
    assert!(
        full.work.cycles_jumped > 100,
        "the wait for the load must be jumped, not stepped: {:?}",
        full.work
    );
    let limit = 60;
    let cut = simulator.run(&program, 1, 0, &constants, limit);
    let reference = simulator.run_reference(&program, 1, 0, &constants, limit);
    assert_eq!(cut.report, reference.report);
    assert_eq!(cut.report.cycles, limit);
    assert!(!cut.report.completed);
    assert_eq!(cut.report.instructions_issued, 3);
}

#[test]
fn a_delta_resume_inside_an_idle_stretch_matches_full_simulation() {
    // Four warps, each parked on its load for most of the run. A snapshot
    // per issued instruction puts resume points (and reconvergence checks)
    // at the cycle right after an issue — the first cycle of an idle
    // stretch — so the resumed engine starts cold with every warp asleep.
    let gpu = GpuConfig::small();
    let program: Program = IDLE_STRETCH.parse().unwrap();
    let compiled = CompiledProgram::compile(&program, &gpu);
    let simulator = SmSimulator::new(gpu.clone());
    let constants = ConstantBank::new();
    let warps = 4;
    let mut engine = DeltaEngine::new(gpu.clone(), warps, 0, constants.clone(), 1_000_000)
        .with_config(gpusim::DeltaConfig {
            epoch_instructions: 1,
            max_snapshots: 64,
            max_reconvergence_checks: 64,
        });
    let baseline = engine.record_baseline(&compiled);
    let mut resumed_mid_stretch = 0;
    for upper in 0..compiled.len() - 1 {
        let mut mutated_program = program.clone();
        mutated_program.swap_instructions(upper, upper + 1).unwrap();
        let mut mutated = compiled.clone();
        mutated.swap_insts(upper, upper + 1);
        let (report, outcome) = engine.simulate_delta(&baseline, &mutated, &[upper, upper + 1]);
        let full = simulator.run(&mutated_program, warps, 0, &constants, 1_000_000);
        assert_eq!(report, full.report, "swap at {upper}: {outcome:?}");
        // Swapping the consumer with the store moves both past the load's
        // issue: the run resumes from a snapshot taken while every warp
        // waits for its load.
        if upper == 3 {
            assert!(outcome.resumed_cycle() > 8, "{outcome:?}");
            assert!(!matches!(outcome, DeltaOutcome::Unchanged));
            resumed_mid_stretch += 1;
        }
    }
    assert_eq!(resumed_mid_stretch, 1);
    assert!(engine.work().cycles_jumped > 0);
}

/// The autotune candidate `label` of `suite` (at the repo benchmark's scale
/// 8) under `config`, lowered for `arch` and run once with
/// [`SmSimulator::run_compiled`].
fn run_candidate(
    arch: &str,
    suite: &str,
    label: &str,
    config: kernels::KernelConfig,
) -> gpusim::SimOutput {
    let gpu = GpuConfig::by_name(arch).expect("built-in profile");
    let suite = kernels::find_suite(suite).expect("registry suite");
    let entry = suite
        .entries
        .iter()
        .find(|entry| entry.label == label)
        .expect("suite kernel");
    let kernel = kernels::generate(&entry.spec(8), &config, kernels::ScheduleStyle::Baseline);
    let compiled = CompiledProgram::compile(&kernel.program, &gpu);
    let warps = gpusim::resident_warps(&gpu, &kernel.launch);
    SmSimulator::new(gpu).run_compiled(
        &compiled,
        warps,
        0,
        &kernel.launch.constant_bank(),
        kernel.launch.max_cycles,
    )
}

/// The three shapes whose cost the event-driven engine splits differently
/// (`docs/PERFORMANCE.md` § *The event-driven engine*), pinned on their
/// deterministic half: simulated cycles and issues, and the engine's own
/// work. `idle_gemm` is a 4-warp fused-GEMM candidate carried by
/// idle-stretch jumps; `rowwise` a 32-warp softmax candidate carried by the
/// per-warp wake compare and eligibility evaluation; `attention_stage` the
/// longest flash-attention candidate on Hopper, carried by the barrier
/// release and the scoreboard deadlines.
#[test]
fn engine_shapes_pin_their_cycles_and_engine_work() {
    let gemm = |block_m, block_n, block_k, num_warps| kernels::KernelConfig {
        block_m,
        block_n,
        block_k,
        num_warps,
        num_stages: 2,
    };
    let rowwise = kernels::KernelConfig {
        block_m: 1,
        block_n: 256,
        block_k: 1,
        num_warps: 8,
        num_stages: 1,
    };
    // (shape, output, [cycles, issued, steps, cycles jumped, evaluations]);
    // a per-cycle loop would make `cycles` steps and `warps x cycles`
    // evaluations.
    let shapes = [
        (
            "idle_gemm",
            run_candidate("ampere", "table2", "mmLeakyReLu", gemm(32, 128, 32, 4)),
            [3_384, 872, 1_172, 2_212, 1_648],
        ),
        (
            "rowwise",
            run_candidate("ampere", "table2", "softmax", rowwise),
            [1_174, 960, 964, 210, 20_400],
        ),
        (
            "attention_stage",
            run_candidate("hopper", "attention", "attn-s4096-h4", gemm(128, 32, 64, 4)),
            [6_728, 2_884, 3_856, 2_872, 5_550],
        ),
    ];
    for (name, out, pinned) in shapes {
        assert!(out.report.completed, "{name}");
        let got = [
            out.report.cycles,
            out.report.instructions_issued,
            out.work.steps,
            out.work.cycles_jumped,
            out.work.eligibility_evals,
        ];
        assert_eq!(
            got, pinned,
            "{name}: [cycles, issued, steps, jumped, evals]"
        );
    }
}
