//! Canonical benchmark reports and the perf-regression gate.
//!
//! Two modes:
//!
//! ```text
//! # Run the fig6 suite harness over an arch x suite matrix plus the Table-1
//! # stall micro-benchmarks, and emit the canonical BENCH_*.json artifact:
//! bench_report run [--out PATH] [--runs N] [--scale N] [--jobs N] [--smoke]
//!                  [--arch NAME[,NAME...]] [--suite NAME[,NAME...]]
//!
//! # Diff a candidate report against a baseline; exit 1 on regression:
//! bench_report compare BASELINE CANDIDATE
//! ```
//!
//! `compare` gates deterministic simulator outputs only: the geometric-mean
//! speedup, verified-kernel counts, stall tables and the delta sweep's
//! tallies and engine-step count. Wall clock is printed as information and
//! never compared — wall-clock claims belong to the repo benchmark
//! (`benchmarks/`).

use std::process::ExitCode;
use std::time::Instant;

use bench::{
    compare_reports, delta_sweep, edit_sweep, iqr_ms, median_ms, suite_driver, ArchStalls,
    BenchCell, BenchReport, BenchRunConfig, HarnessArgs, OpStall, BENCH_REPORT_SCHEMA_VERSION,
    SMOKE_SCALE, STALL_TABLE_OPS,
};
use cuasmrl::dependency_based_stall;

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: bench_report run [--out PATH] [--runs N] [--scale N] [--jobs N] [--smoke]");
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

#[allow(clippy::too_many_lines)] // linear CLI plumbing
fn run_mode(args: &[String]) -> ExitCode {
    let mut out = std::path::PathBuf::from("bench_report.json");
    let mut runs = 3usize;
    let mut scale: Option<usize> = None;
    let mut jobs = 4usize;
    let mut smoke = false;
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
            "--runs" => match iter.next().map(|v| v.parse()) {
                Some(Ok(n)) if n > 0 => runs = n,
                _ => return usage("--runs requires a positive integer"),
            },
            "--scale" => match iter.next().map(|v| v.parse()) {
                Some(Ok(n)) if n > 0 => scale = Some(n),
                _ => return usage("--scale requires a positive integer"),
            },
            "--jobs" => match iter.next().map(|v| v.parse()) {
                Some(Ok(n)) if n > 0 => jobs = n,
                _ => return usage("--jobs requires a positive integer"),
            },
            "--smoke" => smoke = true,
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
    let scale = scale.unwrap_or(if smoke { SMOKE_SCALE } else { 8 });

    let mut cells = Vec::new();
    for arch in &arches {
        for suite in &suites {
            let harness = HarnessArgs {
                scale,
                jobs,
                smoke,
                arch: arch.clone(),
                suite: suite.clone(),
                report_dir: None,
            };
            let workload = harness.workload();
            let driver = suite_driver(&harness, harness.budget_moves(48));
            let mut runs_ms = Vec::with_capacity(runs);
            let mut last = None;
            for run in 0..runs {
                let start = Instant::now();
                let report = driver.optimize_workload(&workload, harness.scale);
                runs_ms.push(start.elapsed().as_secs_f64() * 1e3);
                eprintln!(
                    "{arch}/{suite} run {}/{runs}: {:.1} ms (geomean {:.3}x, {}/{} verified)",
                    run + 1,
                    runs_ms[run],
                    report.geomean_speedup,
                    report.verified,
                    report.reports.len()
                );
                last = Some(report);
            }
            let report = last.expect("runs >= 1");
            // Deterministic delta-engine health sweep for this cell: every
            // legal single swap of the suite's kernels evaluated once
            // through the incremental engine (gated by `compare`).
            let sweep = delta_sweep(&harness.gpu(), &workload, harness.scale);
            cells.push(BenchCell {
                arch: arch.clone(),
                suite: suite.clone(),
                median_ms: median_ms(&runs_ms),
                iqr_ms: iqr_ms(&runs_ms),
                runs_ms,
                geomean_speedup: report.geomean_speedup,
                verified: report.verified,
                kernels: report.reports.len(),
                delta_spliced: sweep.spliced,
                delta_resumed: sweep.resumed,
                delta_fallbacks: sweep.fallbacks,
                sim_steps: sweep.sim_steps,
            });
            // Companion cell: the same suite swept through the *rich* edit
            // set (block moves, reuse toggles, stall retunes, barrier
            // edits). The wall-clock samples time the sweep itself — the
            // multi-edit delta splice rate — and the tallies are gated by
            // the same fallback ceiling as the swap sweep. The quality
            // fields are fixed (nothing is optimized here), so old
            // baselines without this cell still compare clean.
            let mut edit_runs_ms = Vec::with_capacity(runs);
            let mut edit_tallies = None;
            for _ in 0..runs {
                let start = Instant::now();
                edit_tallies = Some(edit_sweep(&harness.gpu(), &workload, harness.scale));
                edit_runs_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            let edit_tallies = edit_tallies.expect("runs >= 1");
            eprintln!(
                "{arch}/{suite}-edits sweep: {} spliced, {} resumed, {} fallbacks",
                edit_tallies.spliced, edit_tallies.resumed, edit_tallies.fallbacks
            );
            cells.push(BenchCell {
                arch: arch.clone(),
                suite: format!("{suite}-edits"),
                median_ms: median_ms(&edit_runs_ms),
                iqr_ms: iqr_ms(&edit_runs_ms),
                runs_ms: edit_runs_ms,
                geomean_speedup: 1.0,
                verified: workload.entries.len(),
                kernels: workload.entries.len(),
                delta_spliced: edit_tallies.spliced,
                delta_resumed: edit_tallies.resumed,
                delta_fallbacks: edit_tallies.fallbacks,
                sim_steps: edit_tallies.sim_steps,
            });
        }
    }

    let mut stall_counts = Vec::new();
    for arch in &arches {
        let harness = HarnessArgs {
            scale,
            jobs,
            smoke,
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
        config: BenchRunConfig {
            scale,
            jobs,
            smoke,
            runs,
        },
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
        "{:<24} {:>11} {:>9} {:>9} {:>10} {:>14} {:>10}",
        "cell", "median_ms", "iqr_ms", "geomean", "verified", "delta_fallback", "sim_steps"
    );
    for cell in &report.cells {
        println!(
            "{:<24} {:>11.1} {:>9.1} {:>8.3}x {:>7}/{} {:>13.1}% {:>10}",
            cell.key(),
            cell.median_ms,
            cell.iqr_ms,
            cell.geomean_speedup,
            cell.verified,
            cell.kernels,
            cell.delta_fallback_rate() * 100.0,
            cell.sim_steps
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
        "comparing {} (candidate) against {} (baseline): \
         deterministic fields gated, wall clock shown for information",
        candidate_path.display(),
        baseline_path.display()
    );
    for base in &baseline.cells {
        if let Some(cand) = candidate.cell(&base.arch, &base.suite) {
            println!(
                "{:<24} median {:>8.1} -> {:>8.1} ms ({:+.1}%)  geomean {:.3}x -> {:.3}x  \
                 verified {}/{} -> {}/{}  delta fallback {:.1}% -> {:.1}%  \
                 sim steps {} -> {}",
                base.key(),
                base.median_ms,
                cand.median_ms,
                (cand.median_ms / base.median_ms.max(1e-9) - 1.0) * 100.0,
                base.geomean_speedup,
                cand.geomean_speedup,
                base.verified,
                base.kernels,
                cand.verified,
                cand.kernels,
                base.delta_fallback_rate() * 100.0,
                cand.delta_fallback_rate() * 100.0,
                base.sim_steps,
                cand.sim_steps
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
