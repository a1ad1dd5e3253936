//! `cuasmrld-fsck`: offline verify/repair for a `cuasmrld` store directory.
//!
//! Walks a (cold) store directory, prints a stable JSON [`FsckReport`]
//! with a per-file verdict (ok / torn / corrupt / orphaned), and — with
//! `--repair` — quarantines every non-ok file; the daemon recomputes a
//! quarantined entry on demand.
//!
//! Exit codes: `0` healthy (without `--repair`: everything ok; with it:
//! nothing unrepairable), `1` unhealthy, `2` usage or I/O failure.
//! `docs/SERVICE.md` documents the verdict taxonomy and the runbook.

use std::path::PathBuf;
use std::process::ExitCode;

use cuasmrld::fsck::{fsck, FsckReport};

const USAGE: &str = "\
USAGE: cuasmrld-fsck --store-dir PATH [OPTIONS]

OPTIONS:
  --store-dir PATH     the store directory to walk (required; the daemon
                       must not be running against it)
  --repair             quarantine damaged files and crash debris
  --out PATH           also write the JSON report to PATH
";

struct Args {
    store_dir: PathBuf,
    repair: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut store_dir = None;
    let mut repair = false;
    let mut out = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--store-dir" => store_dir = Some(PathBuf::from(value("--store-dir")?)),
            "--repair" => repair = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let store_dir = store_dir.ok_or_else(|| "--store-dir is required".to_string())?;
    Ok(Args {
        store_dir,
        repair,
        out,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("cuasmrld-fsck: {message}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report: FsckReport = match fsck(&args.store_dir, args.repair) {
        Ok(report) => report,
        Err(err) => {
            eprintln!(
                "cuasmrld-fsck: cannot walk {}: {err}",
                args.store_dir.display()
            );
            return ExitCode::from(2);
        }
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{json}");
    if let Some(path) = &args.out {
        if std::fs::write(path, &json).is_err() {
            eprintln!("cuasmrld-fsck: failed to write {}", path.display());
            return ExitCode::from(2);
        }
    }
    if report.healthy() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
