//! `benchmarks run`: set up, measure, turn samples into metrics, print.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::catalog::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use crate::report::{distribution_note, MetricValue, Outcome};
use crate::results::{self, RunRecord};
use crate::search::{self, QUALITY_PASSES};
use crate::serve;
use crate::stats::geomean;
use crate::traced;
use crate::workloads::{SearchWorkload, ServeWorkload};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut iter = args.iter().peekable();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a non-negative integer".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds must be a positive number".to_string())?;
            }
            "--trace" => {
                // A bare flag means on; the driver passes an explicit 0 or 1.
                parsed.trace = match iter.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        iter.next();
                        false
                    }
                    Some("1") => {
                        iter.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|err| err.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last result and the
/// seconds each took.
fn repeat_setup<T>(mut setup: impl FnMut() -> std::io::Result<T>) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Release the previous set-up first, so each repeat starts from
        // the same state and memory does not pile up.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup().map_err(|err| format!("set-up failed: {err}"))?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPEATS is positive"), seconds))
}

fn end_to_end_metrics(
    setup_s: &[f64],
    cold_ms: &[f64],
    evals_per_s: &[f64],
    speedup: MetricValue,
    warm_ms: &[f64],
    warm_per_s: &[f64],
) -> Result<BTreeMap<String, MetricValue>, String> {
    let p = MetricValue::percentile_of;
    Ok(BTreeMap::from(
        [
            ("setup_s", p(setup_s, 50.0)),
            ("cold_ms_p25", p(cold_ms, 25.0)),
            ("evals_per_s", p(evals_per_s, 75.0)),
            ("sim_speedup_geomean", speedup),
            ("warm_ms_p25", p(warm_ms, 25.0)),
            ("warm_per_s", p(warm_per_s, 75.0)),
            ("peak_rss_mb", MetricValue::single(peak_rss_mb()?)),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    ))
}

/// `sim_speedup_geomean` over `speedups`, with their quartiles.
fn quality(speedups: &[f64]) -> MetricValue {
    MetricValue {
        value: geomean(speedups),
        ..MetricValue::percentile_of(speedups, 50.0)
    }
}

fn run_search(workload: &SearchWorkload, args: &RunArgs) -> Result<Outcome, String> {
    let (setup, setup_s) = repeat_setup(|| search::setup(workload, args.seed))?;
    let mut samples = search::measure(&setup, args.seconds);
    samples.tally.absorb(setup.tally.clone());
    Ok(Outcome {
        workload: workload.name.to_string(),
        seed: args.seed,
        traced: false,
        metrics: end_to_end_metrics(
            &setup_s,
            &samples.cold_ms,
            &samples.evals_per_s,
            quality(&samples.speedup[..QUALITY_PASSES.min(samples.speedup.len())]),
            &samples.warm_ms,
            &samples.warm_per_s,
        )?,
        notes: vec![
            distribution_note("cold pass ms", &samples.cold_ms),
            distribution_note("warm lookup ms", &samples.warm_ms),
            distribution_note("warm lookups/s", &samples.warm_per_s),
        ],
        tally: samples.tally,
    })
}

fn run_serve(args: &RunArgs) -> Result<Outcome, String> {
    let workload = ServeWorkload::mixed();
    let (setup, setup_s) = repeat_setup(|| serve::setup(&workload, args.seed))?;
    let mut samples =
        serve::measure(&setup, args.seconds).map_err(|err| format!("serve-mixed: {err}"))?;
    samples.tally.absorb(setup.tally.clone());
    // The answers are fixed by the plan, so the quality of the run is the
    // quality of the planned answers every cold response was checked against.
    let speedups: Vec<f64> = setup
        .planned()
        .iter()
        .map(|planned| planned.speedup)
        .collect();
    Ok(Outcome {
        workload: "serve-mixed".to_string(),
        seed: args.seed,
        traced: false,
        metrics: end_to_end_metrics(
            &setup_s,
            &samples.cold_ms,
            &samples.evals_per_s,
            quality(&speedups),
            &samples.hit_ms,
            &samples.pipelined_per_s,
        )?,
        notes: vec![
            distribution_note("cold request ms (sweep mean)", &samples.cold_ms),
            distribution_note("one-shot hit ms (sweep mean)", &samples.hit_ms),
            distribution_note("pipelined hits/s", &samples.pipelined_per_s),
            distribution_note("session hit ms", &samples.session_ms),
            distribution_note("disk hit ms", &samples.disk_ms),
        ],
        tally: samples.tally,
    })
}

fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    match (SearchWorkload::by_name(name), args.trace) {
        (Some(workload), false) => run_search(&workload, args),
        (Some(workload), true) => traced::run_search(&workload, args.seed, args.seconds),
        (None, false) => run_serve(args),
        (None, true) => traced::run_serve(args.seed),
    }
}

/// `benchmarks list`: the workloads and every metric with unit, direction
/// and bound; `list --json` prints `BENCHMARK.json` instead.
pub fn list(args: &[String]) -> Result<bool, String> {
    match args {
        [] => {}
        [flag] if flag == "--json" => {
            print!("{}", benchmark_json(DEFAULT_SECONDS as u64));
            return Ok(true);
        }
        _ => return Err("list takes only --json".to_string()),
    }
    println!("workloads");
    for workload in WORKLOADS {
        println!("  {:<12} {}", workload.name, workload.why);
    }
    for (title, metrics) in [
        ("end-to-end", &END_TO_END[..]),
        ("per-layer", &PER_LAYER[..]),
    ] {
        println!("{title} metrics");
        for def in metrics {
            let bound = def
                .bound
                .map_or_else(String::new, |b| format!(" bound {b:.2}"));
            println!(
                "  {:<34} {:<6} {:<6}{bound}  {}",
                def.name,
                def.unit,
                def.better.as_str(),
                def.what
            );
        }
    }
    Ok(true)
}

/// `benchmarks run`. `Ok(false)` when a run failed its checks.
pub fn command(args: &[String]) -> Result<bool, String> {
    let args = parse(args)?;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut all_correct = true;
    for name in names {
        let outcome = run_workload(name, &args)?;
        let problems = outcome.problems();
        print!("{}", outcome.table());
        for problem in &problems {
            eprintln!("benchmarks: {name}: {problem}");
        }
        all_correct &= problems.is_empty();
        if let Some(path) = &args.out {
            results::append(path, RunRecord::of(&outcome, args.seconds))?;
        }
        println!("{}", outcome.contract_line());
    }
    Ok(all_correct)
}
