//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.

mod agree;
mod catalog;
mod check;
mod layers;
mod oracle;
mod report;
mod results;
mod run;
mod scratch;
mod search;
mod serve;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "\
USAGE: benchmarks [run] [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
       benchmarks list [--json]
       benchmarks check [--seed N]
       benchmarks agree A.json B.json

run     measure one workload (all four without --workload) for S seconds each
        (default: run_seconds of BENCHMARK.json), print every metric by name
        and, as the last line, the one-line JSON result; --trace selects the
        per-layer run; --out appends the run to a result file for `agree`
list    print the workloads and metrics (--json: the BENCHMARK.json they define)
check   run every workload's deterministic outputs twice and fail on a difference
agree   compare two result files metric by metric against the bounds
";

/// Set in the environment of the relaunched process, so it runs inline.
const INNER_ENV: &str = "CUASMRL_BENCH_INNER";

/// Runs the command in a child copy of this process whose standard error goes
/// to `out/stderr-<workload>.log`: the in-process daemon logs there with
/// `eprintln!`, and that must not flood the terminal. Standard output is
/// inherited, so the result line reaches the caller unchanged. The tail of
/// the log is shown if the child fails. `None` when `out/` cannot be
/// written, in which case the run proceeds inline.
fn relaunch_with_captured_stderr(args: &[String]) -> Option<ExitCode> {
    let workload = args
        .iter()
        .position(|arg| arg == "--workload")
        .and_then(|at| args.get(at + 1))
        .map_or("all", String::as_str);
    let workload = if args.first().is_some_and(|arg| arg == "check") {
        "check"
    } else {
        workload
    };
    let log_path = scratch::out_dir()
        .ok()?
        .join(format!("stderr-{workload}.log"));
    let log = std::fs::File::create(&log_path).ok()?;
    let status = std::process::Command::new(std::env::current_exe().ok()?)
        .args(args)
        .env(INNER_ENV, "1")
        .stderr(log)
        .status()
        .ok()?;
    if !status.success() {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        eprintln!("benchmarks: failed; end of {}:", log_path.display());
        for line in &lines[lines.len().saturating_sub(30)..] {
            eprintln!("  {line}");
        }
    }
    Some(match status.code() {
        Some(0) => ExitCode::SUCCESS,
        Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        None => ExitCode::FAILURE,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(command @ ("run" | "list" | "check" | "agree")) => (command, &args[1..]),
        _ => ("run", &args[..]),
    };
    // `run` and `check` start the daemon in this process.
    if matches!(command, "run" | "check") && std::env::var_os(INNER_ENV).is_none() {
        if let Some(code) = relaunch_with_captured_stderr(&args) {
            return code;
        }
    }
    let result = match command {
        "run" => run::command(rest),
        "list" => run::list(rest),
        "check" => check::command(rest),
        _ => agree::command(rest),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmarks: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
