//! `benchmarks check`: the determinism self-check. Every workload's
//! deterministic outputs — evaluation counts, simulated cycles and
//! instructions, simulated-time speedups, schedule digests, delta outcome
//! tallies, daemon counters, store I/O operation counts — are computed twice
//! and must not differ in a single bit.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};

use cuasmrl::SuiteReport;

use crate::catalog::WORKLOADS;
use crate::layers::{probe_gpusim, probe_serve_offline};
use crate::report::Tally;
use crate::search;
use crate::serve::{self, ServeSamples};
use crate::trace::Tracer;
use crate::workloads::{ScriptSizes, SearchWorkload, ServeWorkload};

/// The deterministic `gpusim.*` values of the probe.
const GPUSIM_EXACT: [&str; 9] = [
    "gpusim.sim_cycles",
    "gpusim.sim_insts",
    "gpusim.snapshots",
    "gpusim.delta_swap_spliced",
    "gpusim.delta_swap_resumed",
    "gpusim.delta_swap_fallback",
    "gpusim.delta_edit_spliced",
    "gpusim.delta_edit_resumed",
    "gpusim.delta_edit_fallback",
];

type Fingerprint = BTreeMap<String, String>;

/// A digest of `bytes`, so a fingerprint stays one line per output
/// (`DefaultHasher::new` is unkeyed: the same bytes give the same digest in
/// every process).
fn digest(bytes: &[u8]) -> String {
    let mut hasher = DefaultHasher::new();
    hasher.write(bytes);
    format!("{:#x}", hasher.finish())
}

fn suite_fingerprint(suite: &SuiteReport, into: &mut Fingerprint) {
    into.insert(
        "sim_speedup_geomean".to_string(),
        format!("{:#x}", suite.geomean_speedup.to_bits()),
    );
    for report in &suite.reports {
        into.insert(
            format!("{}.optimized_us", report.kernel),
            format!("{:#x}", report.optimized_us.to_bits()),
        );
        into.insert(
            format!("{}.listing", report.kernel),
            digest(report.optimized_listing.as_bytes()),
        );
        into.insert(
            format!("{}.moves", report.kernel),
            report.moves.len().to_string(),
        );
    }
}

fn search_fingerprint(
    workload: &SearchWorkload,
    seed: u64,
) -> Result<(Fingerprint, Tally), String> {
    let setup = search::setup(workload, seed).map_err(|err| format!("set-up failed: {err}"))?;
    let mut tally = setup.tally.clone();
    let (suite, manifest) = setup
        .cold
        .optimize_labeled_instrumented(&workload.specs, workload.label);
    search::check_suite(&setup.verifier, &suite, workload.specs.len(), &mut tally);
    let mut fingerprint = Fingerprint::new();
    suite_fingerprint(&suite, &mut fingerprint);
    for (name, count) in [
        ("cache.hits", manifest.cache.hits),
        ("cache.misses", manifest.cache.misses),
        ("cache.delta_hits", manifest.cache.delta_hits),
        ("cache.delta_fallbacks", manifest.cache.delta_fallbacks),
    ] {
        fingerprint.insert(name.to_string(), count.to_string());
    }
    let gpusim = probe_gpusim(&workload.gpu, setup.verifier.references(), &mut tally);
    for name in GPUSIM_EXACT {
        fingerprint.insert(name.to_string(), format!("{:#x}", gpusim[name].to_bits()));
    }
    Ok((fingerprint, tally))
}

fn serve_fingerprint(seed: u64) -> Result<(Fingerprint, Tally), String> {
    let workload = ServeWorkload {
        sizes: ScriptSizes {
            cold_sweeps: 1,
            hit_sweeps: 2,
            session_hits: 2,
            pipelined_chunks: 1,
            disk_hits: 6,
        },
        ..ServeWorkload::mixed()
    };
    let setup = serve::setup(&workload, seed).map_err(|err| format!("set-up failed: {err}"))?;
    let mut samples = ServeSamples::default();
    serve::run_script(&setup, &Tracer::new(false), 0, &mut samples)
        .map_err(|err| format!("serve-mixed: {err}"))?;
    let mut tally = setup.tally.clone();
    let mut fingerprint = Fingerprint::new();
    for planned in setup.plan.iter().flatten() {
        fingerprint.insert(
            format!(
                "{}.seed{}.report",
                planned.request.kernel,
                planned.request.seed.unwrap_or(0)
            ),
            digest(planned.report_json.as_bytes()),
        );
        fingerprint.insert(
            format!(
                "{}.seed{}.evals",
                planned.request.kernel,
                planned.request.seed.unwrap_or(0)
            ),
            planned.evals.to_string(),
        );
    }
    let memory = samples
        .memory_status
        .as_ref()
        .ok_or("the first daemon answered no status probe")?
        .stats;
    let disk = samples
        .disk_status
        .as_ref()
        .ok_or("the restarted daemon answered no status probe")?;
    for (name, count) in [
        ("stats.requests", memory.requests),
        ("stats.store_hits", memory.store_hits),
        ("stats.computed", memory.computed),
        ("stats.busy", memory.busy),
        ("disk.store.disk_hits", disk.store.disk_hits),
        ("disk.stats.store_hits", disk.stats.store_hits),
    ] {
        fingerprint.insert(name.to_string(), count.to_string());
    }
    let hit_bytes = samples
        .first_hit_bytes
        .as_deref()
        .ok_or("the script kept no hit answer")?;
    fingerprint.insert("hit.bytes".to_string(), digest(hit_bytes));
    let store = probe_serve_offline(&setup.planned(), hit_bytes, &mut tally)?;
    for name in ["serve.store_put_io_ops", "serve.store_put_bytes"] {
        fingerprint.insert(name.to_string(), format!("{:#x}", store[name].to_bits()));
    }
    tally.absorb(samples.tally);
    Ok((fingerprint, tally))
}

fn fingerprint(workload: &str, seed: u64) -> Result<(Fingerprint, Tally), String> {
    match SearchWorkload::by_name(workload) {
        Some(search) => search_fingerprint(&search, seed),
        None => serve_fingerprint(seed),
    }
}

/// `benchmarks check [--seed N]`. `Ok(false)` on any difference or failed
/// operation.
pub fn command(args: &[String]) -> Result<bool, String> {
    let seed = match args {
        [] => 0,
        [flag, value] if flag == "--seed" => value
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        _ => return Err("check takes only --seed N".to_string()),
    };
    let mut all_same = true;
    for workload in WORKLOADS {
        let (first, first_tally) = fingerprint(workload.name, seed)?;
        let (second, second_tally) = fingerprint(workload.name, seed)?;
        let failed = first_tally.failed + second_tally.failed;
        let differing: Vec<&String> = first
            .keys()
            .chain(second.keys())
            .filter(|key| first.get(*key) != second.get(*key))
            .collect();
        println!(
            "{:<12} {} deterministic outputs, {} differ, {} failed operations",
            workload.name,
            first.len(),
            differing.len(),
            failed
        );
        for key in &differing {
            println!("  {key}: {:?} vs {:?}", first.get(*key), second.get(*key));
        }
        for message in first_tally.messages.iter().chain(&second_tally.messages) {
            println!("  failed: {message}");
        }
        all_same &= differing.is_empty() && failed == 0;
    }
    Ok(all_same)
}
