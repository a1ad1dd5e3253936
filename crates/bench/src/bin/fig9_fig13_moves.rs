//! Figures 9 and 13: the optimization moves discovered automatically on the
//! fused GEMM + LeakyReLU and batch-matmul kernels — hoisting asynchronous
//! copies so that tensor-core instructions (with `.reuse` operands) stay
//! adjacent, and scheduling `LDGSTS` ahead of predicated-off `@!PT LDS`
//! instructions. `--arch` selects the simulated device.
//!
//! The printed moves are the path to the reported listing: the game's best
//! trace, which replayed on the `-O3` schedule reproduces it and reaches its
//! runtime only with the last move.

use bench::{optimize_kernel, HarnessArgs, DEFAULT_SCALE};
use kernels::KernelKind;

fn main() {
    let args = HarnessArgs::parse(DEFAULT_SCALE);
    let gpu = args.gpu();
    for (figure, kind) in [
        ("Figure 9", KernelKind::MatmulLeakyRelu),
        ("Figure 13", KernelKind::BatchMatmul),
    ] {
        let report = optimize_kernel(&gpu, kind, args.scale, 20);
        println!(
            "{figure} — {}: {:.2} us -> {:.2} us ({:.2}x, verified={}){}",
            kind.name(),
            report.baseline_us,
            report.optimized_us,
            report.speedup,
            report.verified,
            args.selection_suffix()
        );
        let mut ldgsts_moves = 0usize;
        for m in &report.moves {
            if m.text.contains("LDGSTS") {
                ldgsts_moves += 1;
            }
            println!(
                "    reward {:+.3}  {:?}  {}",
                m.reward,
                m.direction,
                m.text.trim()
            );
        }
        println!(
            "    {} of {} moves reposition an LDGSTS asynchronous copy\n",
            ldgsts_moves,
            report.moves.len()
        );
    }
}
