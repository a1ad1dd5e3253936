//! `bench::optimize_kernel` — the one-kernel pass the figure harnesses share
//! — on mmLeakyReLu at scale 16 with a budget of 6 moves: the answer must
//! verify against the baseline and never be slower than it.

use bench::optimize_kernel;
use gpusim::GpuConfig;
use kernels::KernelKind;

#[test]
fn optimize_kernel_verifies_and_never_slows_the_kernel() {
    let report = optimize_kernel(&GpuConfig::a100(), KernelKind::MatmulLeakyRelu, 16, 6);
    let summary = format!(
        "{}: {} -> {} us (speedup {}), verified {}",
        report.kernel, report.baseline_us, report.optimized_us, report.speedup, report.verified
    );
    assert!(report.verified, "{summary}");
    assert!(report.speedup >= 1.0, "{summary}");
}
