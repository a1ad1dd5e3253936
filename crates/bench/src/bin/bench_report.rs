//! Canonical benchmark reports and the perf-regression gate.
//!
//! Two modes:
//!
//! ```text
//! # Run the fig6 suite harness over an arch x suite matrix plus the Table-1
//! # stall micro-benchmarks, and emit the canonical BENCH_*.json artifact:
//! bench_report run [--out PATH] [--scale N] [--jobs N]
//!                  [--arch NAME[,NAME...]] [--suite NAME[,NAME...]]
//!
//! # Diff a candidate report against a baseline; exit 1 on regression:
//! bench_report compare BASELINE CANDIDATE
//! ```
//!
//! The report holds deterministic simulator outputs only and `compare` gates
//! all of them: the geometric-mean speedup, verified-kernel counts, the
//! simulator's engine-step counts (baseline kernels and autotuning), the
//! searches' eval-cache lookups, the distinct programs searched and the
//! stall tables. Wall-clock claims
//! belong to the repo benchmark (`benchmarks/`).

use std::collections::HashSet;
use std::process::ExitCode;

use bench::{
    compare_reports, harness_config, suite_driver, ArchStalls, BenchCell, BenchReport,
    BenchRunConfig, HarnessArgs, OpStall, BENCH_REPORT_SCHEMA_VERSION, DEFAULT_SCALE,
    STALL_TABLE_OPS,
};
use cuasmrl::dependency_based_stall;
use cuasmrl::SuiteOptimizer;
use gpusim::{resident_warps, CompiledProgram, SmSimulator};
use kernels::{generate, Autotuner, KernelSpec, ScheduleStyle};

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: bench_report run [--out PATH] [--scale N] [--jobs N]");
    eprintln!("                        [--arch NAME[,NAME...]] [--suite NAME[,NAME...]]");
    eprintln!("       bench_report compare BASELINE CANDIDATE");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_mode(&args[1..]),
        Some("compare") => compare_mode(&args[1..]),
        Some(other) => usage(&format!("unknown mode `{other}`")),
        None => usage("missing mode"),
    }
}

fn parse_names(value: &str, valid: &[String], what: &str) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for raw in value.split(',') {
        let canonical = match what {
            "architecture" => gpusim::ArchSpec::by_name(raw).map(|a| a.name),
            _ => kernels::find_suite(raw).map(|s| s.name.to_string()),
        };
        match canonical {
            Some(name) => {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
            None => {
                return Err(format!(
                    "unknown {what} `{raw}` (expected one of: {})",
                    valid.join(", ")
                ))
            }
        }
    }
    Ok(names)
}

/// Engine steps of simulating each baseline kernel of the cell once — the
/// simulation every reward of a search over these kernels is earned by.
fn baseline_sim_steps(harness: &HarnessArgs) -> u64 {
    let gpu = harness.gpu();
    let simulator = SmSimulator::new(gpu.clone());
    let mut steps = 0;
    for entry in &harness.workload().entries {
        let spec = entry.spec(harness.scale);
        let kernel = generate(&spec, &harness_config(entry.kind), ScheduleStyle::Baseline);
        let output = simulator.run_compiled(
            &CompiledProgram::compile(&kernel.program, &gpu),
            resident_warps(&gpu, &kernel.launch),
            0,
            &kernel.launch.constant_bank(),
            kernel.launch.max_cycles,
        );
        steps += output.work.steps;
    }
    steps
}

/// Autotunes each of `specs` once, the way the suite driver does (its
/// device, its space for the kernel, its tune options), and returns the
/// engine steps spent and the number of distinct Baseline listings the
/// winning configurations generate — the programs the searches run on.
fn autotune_work(driver: &SuiteOptimizer, specs: &[KernelSpec]) -> (u64, usize) {
    let tuner = Autotuner::new(driver.gpu().clone()).with_options(driver.tune_options().clone());
    let mut steps = 0;
    let mut listings = HashSet::new();
    for spec in specs {
        let tuned = tuner.tune(spec, &driver.config_space_for(spec));
        steps += tuned.sim_steps;
        listings.insert(
            generate(spec, &tuned.best, ScheduleStyle::Baseline)
                .program
                .to_string(),
        );
    }
    (steps, listings.len())
}

fn run_mode(args: &[String]) -> ExitCode {
    let mut out = std::path::PathBuf::from("bench_report.json");
    let mut scale = DEFAULT_SCALE;
    let mut jobs = 4usize;
    let arch_names: Vec<String> = gpusim::ArchSpec::builtin_names()
        .iter()
        .map(ToString::to_string)
        .collect();
    let suite_names: Vec<String> = kernels::suite_names()
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut arches = arch_names.clone();
    let mut suites = suite_names.clone();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(path) => out = std::path::PathBuf::from(path),
                None => return usage("--out requires a path"),
            },
            "--scale" => match iter.next().map(|v| v.parse()) {
                Some(Ok(n)) if n > 0 => scale = n,
                _ => return usage("--scale requires a positive integer"),
            },
            "--jobs" => match iter.next().map(|v| v.parse()) {
                Some(Ok(n)) if n > 0 => jobs = n,
                _ => return usage("--jobs requires a positive integer"),
            },
            "--arch" => match iter.next() {
                Some(v) => match parse_names(v, &arch_names, "architecture") {
                    Ok(names) => arches = names,
                    Err(problem) => return usage(&problem),
                },
                None => return usage("--arch requires a name list"),
            },
            "--suite" => match iter.next() {
                Some(v) => match parse_names(v, &suite_names, "suite") {
                    Ok(names) => suites = names,
                    Err(problem) => return usage(&problem),
                },
                None => return usage("--suite requires a name list"),
            },
            other => return usage(&format!("unrecognized argument `{other}`")),
        }
    }

    let mut cells = Vec::new();
    for arch in &arches {
        for suite in &suites {
            let harness = HarnessArgs {
                scale,
                jobs,
                arch: arch.clone(),
                suite: suite.clone(),
                report_dir: None,
            };
            let driver = suite_driver(&harness);
            let workload = harness.workload();
            let specs = workload.specs(harness.scale);
            let (report, manifest) = driver.optimize_labeled_instrumented(&specs, workload.name);
            let (autotune_sim_steps, distinct_programs) = autotune_work(&driver, &specs);
            cells.push(BenchCell {
                arch: arch.clone(),
                suite: suite.clone(),
                geomean_speedup: report.geomean_speedup,
                verified: report.verified,
                kernels: report.reports.len(),
                sim_steps: baseline_sim_steps(&harness),
                autotune_sim_steps,
                evaluations: manifest
                    .kernels
                    .iter()
                    .map(|kernel| kernel.cache.hits + kernel.cache.misses)
                    .sum(),
                distinct_programs,
            });
        }
    }

    let mut stall_counts = Vec::new();
    for arch in &arches {
        let harness = HarnessArgs {
            scale,
            jobs,
            arch: arch.clone(),
            suite: suites[0].clone(),
            report_dir: None,
        };
        let gpu = harness.gpu();
        stall_counts.push(ArchStalls {
            arch: arch.clone(),
            stalls: STALL_TABLE_OPS
                .iter()
                .map(|&op| OpStall {
                    op: op.to_string(),
                    stall: dependency_based_stall(&gpu, op).map(u32::from),
                })
                .collect(),
        });
    }

    let report = BenchReport {
        schema_version: BENCH_REPORT_SCHEMA_VERSION,
        tool: "bench_report".to_string(),
        config: BenchRunConfig { scale, jobs },
        cells,
        stall_counts,
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("error: could not serialize the report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("error: could not write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{:<24} {:>9} {:>10} {:>10} {:>14} {:>11} {:>8}",
        "cell", "geomean", "verified", "sim_steps", "autotune_steps", "evaluations", "programs"
    );
    for cell in &report.cells {
        println!(
            "{:<24} {:>8.3}x {:>7}/{} {:>10} {:>14} {:>11} {:>8}",
            cell.key(),
            cell.geomean_speedup,
            cell.verified,
            cell.kernels,
            cell.sim_steps,
            cell.autotune_sim_steps,
            cell.evaluations,
            cell.distinct_programs
        );
    }
    println!("wrote {}", out.display());
    ExitCode::SUCCESS
}

fn compare_mode(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    for arg in args {
        if arg.starts_with('-') {
            return usage(&format!("unrecognized argument `{arg}`"));
        }
        paths.push(std::path::PathBuf::from(arg));
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        return usage("compare requires exactly BASELINE and CANDIDATE paths");
    };
    let load = |path: &std::path::Path| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("could not read {}: {e}", path.display()))?;
        let report: BenchReport = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not a bench report: {e}", path.display()))?;
        if report.schema_version != BENCH_REPORT_SCHEMA_VERSION {
            return Err(format!(
                "{} has schema version {} (this build reads {BENCH_REPORT_SCHEMA_VERSION})",
                path.display(),
                report.schema_version
            ));
        }
        Ok(report)
    };
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "comparing {} (candidate) against {} (baseline)",
        candidate_path.display(),
        baseline_path.display()
    );
    for base in &baseline.cells {
        if let Some(cand) = candidate.cell(&base.arch, &base.suite) {
            println!(
                "{:<24} geomean {:.3}x -> {:.3}x  verified {}/{} -> {}/{}  \
                 sim steps {} -> {}  autotune steps {} -> {}  \
                 evaluations {} -> {}  programs {} -> {}",
                base.key(),
                base.geomean_speedup,
                cand.geomean_speedup,
                base.verified,
                base.kernels,
                cand.verified,
                cand.kernels,
                base.sim_steps,
                cand.sim_steps,
                base.autotune_sim_steps,
                cand.autotune_sim_steps,
                base.evaluations,
                cand.evaluations,
                base.distinct_programs,
                cand.distinct_programs
            );
        }
    }
    let regressions = compare_reports(&baseline, &candidate);
    if regressions.is_empty() {
        println!("PASS: no regression against the baseline");
        ExitCode::SUCCESS
    } else {
        for regression in &regressions {
            eprintln!("REGRESSION: {regression}");
        }
        eprintln!("FAIL: {} regression(s)", regressions.len());
        ExitCode::FAILURE
    }
}
