//! Optimize a registry workload suite in parallel and persist the schedules
//! for deploy-time lookup (§4.2).
//!
//! ```text
//! cargo run --release --example optimize_suite -- \
//!     [--jobs N] [--scale N] [--cache DIR] [--arch NAME] [--suite NAME]
//! ```
//!
//! `--arch` selects the GPU architecture backend (`ampere`, `turing`,
//! `hopper`) and `--suite` the workload (`table2`, `attention`,
//! `reduction`). The suite is sharded across `--jobs` worker threads; for a
//! fixed seed the reports are identical for any job count (per-kernel
//! seeds, ordered aggregation). When `--cache` is given, a second run
//! answers every kernel from the schedule cache instead of searching again.

use cuasmrl::{cli, load_suite_report, GameConfig, Strategy, SuiteOptimizer};
use gpusim::{GpuConfig, MeasureOptions};

fn main() {
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let mut scale = 16;
    let mut cache: Option<String> = None;
    let mut gpu = GpuConfig::a100();
    let mut workload = kernels::find_suite("table2").expect("table2 is built in");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => jobs = args.next().and_then(|v| v.parse().ok()).unwrap_or(jobs),
            "--scale" => scale = args.next().and_then(|v| v.parse().ok()).unwrap_or(scale),
            "--cache" => cache = args.next(),
            "--arch" => match cli::resolve_arch(&args.next().unwrap_or_default()) {
                Ok(selected) => gpu = selected,
                Err(err) => {
                    eprintln!("error: {err}");
                    std::process::exit(2);
                }
            },
            "--suite" => match cli::resolve_suite(&args.next().unwrap_or_default()) {
                Ok(selected) => workload = selected,
                Err(err) => {
                    eprintln!("error: {err}");
                    std::process::exit(2);
                }
            },
            other => eprintln!("ignoring unknown argument `{other}`"),
        }
    }

    let measure = MeasureOptions {
        warmup: 0,
        repeats: 3,
        noise_std: 0.0,
        seed: 0,
    };
    let mut driver = SuiteOptimizer::new(
        gpu,
        Strategy::Evolutionary {
            generations: 12,
            mutation_length: 24,
            seed: 0,
        },
    )
    .with_jobs(jobs)
    .with_seed(0)
    .with_tune_options(measure.clone())
    .with_game_config(GameConfig {
        episode_length: 32,
        measure,
        ..GameConfig::default()
    });
    if let Some(dir) = &cache {
        driver = driver.with_cache_dir(dir);
    }

    println!(
        "optimizing the `{}` suite for `{}` at scale 1/{scale} with {jobs} jobs...",
        workload.name,
        driver.gpu().name
    );
    let start = std::time::Instant::now();
    let suite = driver.optimize_workload(&workload, scale);
    println!("finished in {:.2?}\n", start.elapsed());
    print!("{}", suite.table());

    if let Some(dir) = cache {
        let persisted = load_suite_report(dir.as_ref(), &suite.gpu, &suite.suite)
            .expect("the suite report reads back")
            .expect("suite report persisted");
        println!(
            "\nschedule cache ready at `{dir}` ({} kernels); deploy-time lookup will reuse it",
            persisted.reports.len()
        );
    }
}
