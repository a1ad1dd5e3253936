//! The versioned result file `run --out FILE` appends to and `agree` reads:
//! one record per run, with the commit, seed and core count it was taken
//! on and, per metric, the value, its sample count and in-run quartiles.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::report::{unit_of, Outcome};
use crate::scratch::package_dir;

/// Bumped on any field-level change of [`ResultFile`].
pub const RESULT_SCHEMA_VERSION: u32 = 1;

/// One metric of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRecord {
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// In-run samples the value summarises.
    pub n: usize,
    /// First quartile of the in-run samples.
    pub q1: f64,
    /// Third quartile of the in-run samples.
    pub q3: f64,
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Commit the checkout was at, `unknown` outside a git checkout.
    pub commit: String,
    /// `std::thread::available_parallelism` when the run was taken.
    pub nproc: usize,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, MetricRecord>,
}

/// A set of runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// [`RESULT_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// The runs, in the order they were appended.
    pub runs: Vec<RunRecord>,
}

/// The commit of the enclosing checkout, read from `.git` without running
/// git; `unknown` when there is none (the driver's checkout is not a
/// repository).
fn commit() -> String {
    let Some(root) = package_dir().parent().map(Path::to_path_buf) else {
        return "unknown".to_string();
    };
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map_or_else(|_| "unknown".to_string(), |hash| hash.trim().to_string()),
        None => head.to_string(),
    }
}

impl RunRecord {
    /// The record of a finished run.
    pub fn of(outcome: &Outcome, seconds: f64) -> RunRecord {
        RunRecord {
            workload: outcome.workload.clone(),
            seed: outcome.seed,
            seconds,
            traced: outcome.traced,
            commit: commit(),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            attempted: outcome.tally.attempted,
            failed: outcome.tally.failed,
            metrics: outcome
                .metrics
                .iter()
                // The JSON shim writes a non-finite number as `null`, which
                // would not read back; such a run has already failed.
                .filter(|(_, v)| v.value.is_finite() && v.q1.is_finite() && v.q3.is_finite())
                .map(|(name, v)| {
                    (
                        name.clone(),
                        MetricRecord {
                            value: v.value,
                            unit: unit_of(name).to_string(),
                            n: v.n,
                            q1: v.q1,
                            q3: v.q3,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Reads a result file.
pub fn load(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))?;
    let file: ResultFile =
        serde_json::from_str(&text).map_err(|err| format!("{}: {err}", path.display()))?;
    if file.schema_version != RESULT_SCHEMA_VERSION {
        return Err(format!(
            "{}: schema version {} (this build reads {RESULT_SCHEMA_VERSION})",
            path.display(),
            file.schema_version
        ));
    }
    Ok(file)
}

/// Appends `record` to the result file at `path`, creating it if absent.
pub fn append(path: &Path, record: RunRecord) -> Result<(), String> {
    let mut file = if path.exists() {
        load(path)?
    } else {
        ResultFile {
            schema_version: RESULT_SCHEMA_VERSION,
            runs: Vec::new(),
        }
    };
    file.runs.push(record);
    let text = serde_json::to_string_pretty(&file).map_err(|err| err.to_string())?;
    std::fs::write(path, text).map_err(|err| format!("{}: {err}", path.display()))
}
