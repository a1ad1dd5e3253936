//! `cuasmrld-bench`: the deterministic load generator. Drives N concurrent
//! synthetic clients through a cold round plus warm repeat rounds against
//! a running daemon, prints the outcome report as JSON, and fails (exit 1)
//! when any request fails or the warm-phase store-hit rate falls below
//! `--min-hit-rate` — the assertion CI's service-smoke job runs.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cuasmrld::{run_load, LoadSpec};

const USAGE: &str = "\
USAGE: cuasmrld-bench (--addr HOST:PORT | --addr-file PATH) [OPTIONS]

OPTIONS:
  --addr HOST:PORT     daemon address
  --addr-file PATH     read the address from PATH (poll up to 30 s)
  --clients N          concurrent clients (default 2)
  --kernels A,B,...    kernel names (default: all Table-2 kernels)
  --arch NAME          architecture (default ampere)
  --scale N            paper-shape divisor (default 16)
  --seed N             base seed carried in every request (default 0)
  --rounds N           warm repeat rounds (default 2)
  --pipeline N         in-flight requests per client over one persistent
                       v2 connection (default 0 = one connection per request)
  --min-hit-rate F     minimum warm-phase store-hit rate in [0,1] (default 0.99)
  --verify-store       fail (exit 1) if the daemon reports any checksum
                       failures after the run — the durability assertion
                       for a clean (fault-free) burst
  --out PATH           also write the JSON report to PATH
";

struct Args {
    addr: Option<String>,
    addr_file: Option<PathBuf>,
    spec: LoadSpec,
    min_hit_rate: f64,
    verify_store: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        addr: None,
        addr_file: None,
        spec: LoadSpec::smoke("ampere"),
        min_hit_rate: 0.99,
        verify_store: false,
        out: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => parsed.addr = Some(value("--addr")?),
            "--addr-file" => parsed.addr_file = Some(PathBuf::from(value("--addr-file")?)),
            "--clients" => {
                parsed.spec.clients = value("--clients")?
                    .parse()
                    .map_err(|_| "--clients must be an integer".to_string())?;
            }
            "--kernels" => {
                parsed.spec.kernels = value("--kernels")?.split(',').map(str::to_string).collect();
            }
            "--arch" => parsed.spec.arch = value("--arch")?,
            "--scale" => {
                parsed.spec.scale = value("--scale")?
                    .parse()
                    .map_err(|_| "--scale must be an integer".to_string())?;
            }
            "--seed" => {
                parsed.spec.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--rounds" => {
                parsed.spec.repeat_rounds = value("--rounds")?
                    .parse()
                    .map_err(|_| "--rounds must be an integer".to_string())?;
            }
            "--pipeline" => {
                parsed.spec.pipeline = value("--pipeline")?
                    .parse()
                    .map_err(|_| "--pipeline must be an integer".to_string())?;
            }
            "--min-hit-rate" => {
                parsed.min_hit_rate = value("--min-hit-rate")?
                    .parse()
                    .map_err(|_| "--min-hit-rate must be a number".to_string())?;
            }
            "--verify-store" => parsed.verify_store = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if parsed.addr.is_none() && parsed.addr_file.is_none() {
        return Err("one of --addr / --addr-file is required".to_string());
    }
    Ok(parsed)
}

fn resolve_addr(args: &Args) -> Result<SocketAddr, String> {
    let text = match (&args.addr, &args.addr_file) {
        (Some(addr), _) => addr.clone(),
        (None, Some(path)) => {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match std::fs::read_to_string(path) {
                    Ok(text) if !text.trim().is_empty() => break text.trim().to_string(),
                    _ if Instant::now() >= deadline => {
                        return Err(format!("addr file {} never appeared", path.display()));
                    }
                    _ => std::thread::sleep(Duration::from_millis(100)),
                }
            }
        }
        (None, None) => unreachable!("parse() enforces an address source"),
    };
    text.parse()
        .map_err(|_| format!("`{text}` is not a socket address"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("cuasmrld-bench: {message}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match resolve_addr(&args) {
        Ok(addr) => addr,
        Err(message) => {
            eprintln!("cuasmrld-bench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let report = run_load(addr, &args.spec);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{json}");
    if let Some(path) = &args.out {
        if std::fs::write(path, &json).is_err() {
            eprintln!("cuasmrld-bench: failed to write {}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if report.failed() > 0 {
        eprintln!("cuasmrld-bench: {} request(s) failed", report.failed());
        return ExitCode::FAILURE;
    }
    if report.warm_hit_rate < args.min_hit_rate {
        eprintln!(
            "cuasmrld-bench: warm store-hit rate {:.3} below required {:.3}",
            report.warm_hit_rate, args.min_hit_rate
        );
        return ExitCode::FAILURE;
    }
    if args.verify_store && report.checksum_failures > 0 {
        eprintln!(
            "cuasmrld-bench: {} checksum failure(s) on a clean burst",
            report.checksum_failures
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
