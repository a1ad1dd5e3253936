//! Figure 7: percentages of stall-count dependencies resolved by the
//! built-in table (db), inferred by the analysis pass, or denylisted, over
//! the evaluated kernel suite. `--arch` selects the architecture whose
//! built-in table resolves the dependencies, `--suite` the kernels.

use bench::{harness_config, HarnessArgs, DEFAULT_SCALE};
use cuasmrl::{analyze, StallTable};
use kernels::{generate, ScheduleStyle};

fn main() {
    let args = HarnessArgs::parse(DEFAULT_SCALE);
    let table = StallTable::for_arch(&args.gpu().arch);
    let workload = args.workload();
    println!(
        "Figure 7 — stall-count dependency resolution (percent of memory instructions){}",
        args.selection_suffix()
    );
    println!(
        "{:<16} {:>8} {:>12} {:>10}",
        "kernel", "db", "infer-only", "denylist"
    );
    let mut totals = (0.0, 0.0, 0.0);
    for entry in &workload.entries {
        let spec = entry.spec(args.scale);
        let kernel = generate(&spec, &harness_config(entry.kind), ScheduleStyle::Baseline);
        let analysis = analyze(&kernel.program, &table);
        let (db, infer, deny) = analysis.breakdown.percentages();
        println!("{:<16} {db:>7.1}% {infer:>11.1}% {deny:>9.1}%", entry.label);
        totals.0 += db;
        totals.1 += infer;
        totals.2 += deny;
    }
    let n = workload.entries.len() as f64;
    println!(
        "{:<16} {:>7.1}% {:>11.1}% {:>9.1}%   (paper averages: 41.7% / 29.2% / rest)",
        "average",
        totals.0 / n,
        totals.1 / n,
        totals.2 / n
    );
}
