//! `benchmarks agree A.json B.json`: compares two result files metric by
//! metric against the bounds of the catalog (which a unit test holds equal
//! to `BENCHMARK.json`).
//!
//! For every (workload, end-to-end metric) pair it prints both medians and
//! quartiles over the runs of each file and a verdict: `ok` when B's median
//! is no worse than A's by more than the bound; `regressed` when it is;
//! `unresolved` when the run-to-run spread of either side is wider than the
//! bound, unless every run of B reads better than every run of A.

use std::collections::BTreeMap;
use std::path::Path;

use crate::catalog::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::results::{load, ResultFile, RunRecord};
use crate::stats::quartiles;

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The spread is wider than the bound; the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the metric's value in every run of a file.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// Value per run.
    pub values: Vec<f64>,
    /// Quartiles: over the runs when there are several, else the in-run
    /// quartiles of the single run.
    pub quartiles: (f64, f64, f64),
}

fn side(runs: &[&RunRecord], metric: &str) -> Option<Side> {
    let records: Vec<_> = runs
        .iter()
        .filter_map(|run| run.metrics.get(metric))
        .collect();
    let values: Vec<f64> = records.iter().map(|record| record.value).collect();
    let quartiles = match records.as_slice() {
        [] => return None,
        [only] => (only.q1, only.value, only.q3),
        _ => quartiles(&values),
    };
    Some(Side { values, quartiles })
}

/// Judges B against A for one metric.
pub fn judge(def: &MetricDef, a: &Side, b: &Side) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let (a_q1, a_median, a_q3) = a.quartiles;
    let (b_q1, b_median, b_q3) = b.quartiles;
    let base = a_median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match def.better {
        Better::Lower => (b_median - a_median) / base,
        Better::Higher => (a_median - b_median) / base,
    };
    let spread = ((a_q3 - a_q1) / base)
        .abs()
        .max(((b_q3 - b_q1) / b_median.abs().max(f64::MIN_POSITIVE)).abs());
    if spread > bound {
        let every_b_better = a.values.iter().all(|&a| {
            b.values.iter().all(|&b| match def.better {
                Better::Lower => b < a,
                Better::Higher => b > a,
            })
        });
        return if every_b_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn end_to_end_runs<'a>(file: &'a ResultFile, workload: &str) -> Vec<&'a RunRecord> {
    file.runs
        .iter()
        .filter(|run| !run.traced && run.workload == workload)
        .collect()
}

/// Whether every deterministic reading (`sim_speedup_geomean`, per workload
/// and seed) present in both files is bit-identical.
fn deterministic_readings_repeat(a: &ResultFile, b: &ResultFile) -> bool {
    let readings = |file: &ResultFile| -> BTreeMap<(String, u64), Vec<u64>> {
        let mut map: BTreeMap<(String, u64), Vec<u64>> = BTreeMap::new();
        for run in file.runs.iter().filter(|run| !run.traced) {
            if let Some(record) = run.metrics.get("sim_speedup_geomean") {
                map.entry((run.workload.clone(), run.seed))
                    .or_default()
                    .push(record.value.to_bits());
            }
        }
        map
    };
    let (a, b) = (readings(a), readings(b));
    a.iter().all(|(key, bits)| {
        let all_equal = |list: &[u64]| list.iter().all(|&value| value == bits[0]);
        all_equal(bits) && b.get(key).is_none_or(|other| all_equal(other))
    })
}

/// `benchmarks agree`. `Ok(false)` when any pair regressed or is
/// unresolved, an operation failed, or a deterministic reading moved.
pub fn command(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("agree takes exactly two result files".to_string());
    };
    let a = load(Path::new(a_path))?;
    let b = load(Path::new(b_path))?;
    println!(
        "{:<12} {:<20} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6} {:>3} {:>3}  verdict",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "bound",
        "nA",
        "nB"
    );
    let mut all_ok = true;
    for workload in WORKLOADS {
        let a_runs = end_to_end_runs(&a, workload.name);
        let b_runs = end_to_end_runs(&b, workload.name);
        for def in &END_TO_END {
            let (Some(a_side), Some(b_side)) = (side(&a_runs, def.name), side(&b_runs, def.name))
            else {
                println!("{:<12} {:<20} missing from a file", workload.name, def.name);
                all_ok = false;
                continue;
            };
            let verdict = judge(def, &a_side, &b_side);
            all_ok &= verdict == Verdict::Ok;
            let (a_q1, a_median, a_q3) = a_side.quartiles;
            let (b_q1, b_median, b_q3) = b_side.quartiles;
            println!(
                "{:<12} {:<20} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>6.2} {:>3} {:>3}  {}",
                workload.name,
                def.name,
                a_q1,
                a_median,
                a_q3,
                b_q1,
                b_median,
                b_q3,
                def.bound.unwrap_or(0.0),
                a_side.values.len(),
                b_side.values.len(),
                verdict.as_str()
            );
        }
    }
    let failed = |file: &ResultFile| file.runs.iter().map(|run| run.failed).sum::<u64>();
    println!("failed operations: A {}  B {}", failed(&a), failed(&b));
    let repeat = deterministic_readings_repeat(&a, &b);
    println!(
        "deterministic readings (sim_speedup_geomean per workload and seed) repeat exactly: {}",
        if repeat { "yes" } else { "no" }
    );
    Ok(all_ok && repeat && failed(&a) == 0 && failed(&b) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounded(better: Better) -> MetricDef {
        MetricDef {
            name: "probe",
            unit: "ms",
            better,
            bound: Some(0.10),
            what: "a metric bounded at a tenth",
        }
    }

    fn runs(values: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            quartiles: quartiles(values),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let latency = bounded(Better::Lower);
        let steady = runs(&[100.0, 100.5, 101.0, 99.5, 100.2]);
        assert_eq!(
            judge(&latency, &steady, &runs(&[104.0, 105.0, 104.5])),
            Verdict::Ok
        );
        assert_eq!(
            judge(&latency, &steady, &runs(&[112.0, 113.0, 112.5])),
            Verdict::Regressed
        );
        // A spread wider than the bound cannot tell a 5% move from noise ...
        let noisy = runs(&[90.0, 100.0, 115.0, 95.0, 108.0]);
        assert_eq!(
            judge(&latency, &noisy, &runs(&[105.0, 104.0, 106.0])),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&latency, &noisy, &runs(&[80.0, 85.0, 70.0])),
            Verdict::Ok
        );

        let rate = bounded(Better::Higher);
        let base = runs(&[1000.0, 1005.0, 995.0]);
        assert_eq!(
            judge(&rate, &base, &runs(&[950.0, 955.0, 945.0])),
            Verdict::Ok
        );
        assert_eq!(
            judge(&rate, &base, &runs(&[850.0, 855.0, 845.0])),
            Verdict::Regressed
        );
    }
}
