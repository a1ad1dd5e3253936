//! The `cuasmrld` daemon binary: parse flags, start the server, publish
//! the bound address, and serve until a termination signal triggers a
//! graceful drain. See `docs/SERVICE.md` for the operations runbook.

use std::path::PathBuf;
use std::process::ExitCode;

use artifact::{publish_atomic, UnsyncedIo};
use cuasmrl::Strategy;
use cuasmrld::{FaultPlan, Server, ServerConfig};
use gpusim::MeasureOptions;

const USAGE: &str = "\
USAGE: cuasmrld --store-dir DIR [OPTIONS]

OPTIONS:
  --store-dir DIR          schedule-store root (required)
  --addr HOST:PORT         bind address (default 127.0.0.1:8591; port 0 = ephemeral)
  --addr-file PATH         write the bound address to PATH once listening
  --workers N              worker threads (default 2; 0 = accept-only)
  --queue N                admission-queue depth (default 32)
  --store-cap N            in-memory store entries (default 64)
  --strategy NAME          greedy | rl | rl-tiny (default greedy)
  --seed N                 default base seed (default 0)
  --scale N                default paper-shape divisor (default 1)
  --fault-plan PATH        JSON fault-injection plan (chaos testing only)
  --fast                   fast simulation settings (CI smoke): scale 16,
                           zero-noise 2-repeat measurements, short episodes

RL strategies checkpoint training beside the store entries at every PPO
update, so a killed daemon resumes an unfinished search where it stopped.

SIGTERM or SIGINT triggers a graceful drain: stop accepting, answer queued
work Busy, preempt in-flight searches (checkpoints persist), flush
telemetry, exit 0.
";

fn parse(args: &[String]) -> Result<(ServerConfig, Option<PathBuf>), String> {
    let mut store_dir: Option<PathBuf> = None;
    let mut config = ServerConfig::new("");
    config.addr = "127.0.0.1:8591".to_string();
    let mut addr_file: Option<PathBuf> = None;
    let mut fast = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--store-dir" => store_dir = Some(PathBuf::from(value("--store-dir")?)),
            "--addr" => config.addr = value("--addr")?,
            "--addr-file" => addr_file = Some(PathBuf::from(value("--addr-file")?)),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be an integer".to_string())?;
            }
            "--queue" => {
                config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue must be an integer".to_string())?;
            }
            "--store-cap" => {
                config.store_capacity = value("--store-cap")?
                    .parse()
                    .map_err(|_| "--store-cap must be an integer".to_string())?;
            }
            "--strategy" => {
                config.strategy = match value("--strategy")?.as_str() {
                    "greedy" => Strategy::Greedy { max_moves: 8 },
                    "rl" => Strategy::Rl(rl::PpoConfig::default()),
                    "rl-tiny" => Strategy::Rl(rl::PpoConfig::tiny()),
                    other => return Err(format!("unknown strategy `{other}`")),
                };
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--scale" => {
                config.scale = value("--scale")?
                    .parse()
                    .map_err(|_| "--scale must be an integer".to_string())?;
            }
            "--fault-plan" => {
                let path = PathBuf::from(value("--fault-plan")?);
                let plan = FaultPlan::from_file(&path)
                    .map_err(|err| format!("--fault-plan {}: {err}", path.display()))?;
                config.fault_plan = Some(plan);
            }
            "--fast" => fast = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    config.store_dir = store_dir.ok_or_else(|| "--store-dir is required".to_string())?;
    if fast {
        let fast_measure = MeasureOptions {
            warmup: 0,
            repeats: 2,
            noise_std: 0.0,
            seed: 0,
        };
        config.scale = 16;
        config.tune_options = fast_measure.clone();
        config.game_config = cuasmrl::GameConfig {
            episode_length: 8,
            measure: fast_measure,
            ..cuasmrl::GameConfig::default()
        };
    }
    Ok((config, addr_file))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, addr_file) = match parse(&args) {
        Ok(config) => config,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("cuasmrld: {message}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("cuasmrld: failed to start: {err}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    println!("cuasmrld listening on {addr}");
    if let Some(path) = addr_file {
        // Published atomically so pollers never observe a half-written file.
        if publish_atomic(&UnsyncedIo, &path, addr.to_string().as_bytes()).is_err() {
            eprintln!("cuasmrld: failed to write addr file {}", path.display());
        }
    }
    // Serve until a termination signal, then drain: stop accepting, answer
    // queued work Busy, preempt in-flight searches (their checkpoints
    // persist), flush telemetry. The store and checkpoints make the next
    // start a warm restart that completes the same answers byte-identically.
    if !sigshim::install_term_flag() {
        eprintln!("cuasmrld: no signal handler on this platform; drain only on kill");
    }
    while !sigshim::term_requested() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    eprintln!("cuasmrld: termination signal received; draining");
    let stats = server.shutdown();
    eprintln!(
        "cuasmrld: drained (served {} requests, {} preempted, {} panics isolated)",
        stats.requests, stats.preempted, stats.worker_panics
    );
    ExitCode::SUCCESS
}
