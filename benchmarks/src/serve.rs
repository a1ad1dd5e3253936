//! `serve-mixed`: a fixed phase script against an in-process `cuasmrld`
//! server, and the same script at a smaller size as the `serve` layer probe
//! of the search workloads' traced runs.
//!
//! One repetition, on a fresh store directory: **cold** sweeps of one
//! never-seen one-shot request per kernel → **hit** sweeps repeating stored
//! requests one-shot → **session** hits at depth 1 on one persistent
//! connection → **pipelined** chunks on two sessions with four requests in
//! flight each → shutdown, restart with a four-entry memory cap → **disk**
//! one-shot hits → shutdown. One client thread except `pipelined` (two).
//! Request counts are fixed; a run repeats the script until `--seconds`
//! have passed.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use cuasmrl::{CacheTelemetry, PhaseTimings};
use cuasmrld::{
    Client, ClientBuilder, Connection, OptimizeRequest, OptimizeResponse, OptimizeResult, Server,
    StatusResult, PROTOCOL_VERSION,
};
use kernels::KernelSpec;
use rl::CancelToken;

use crate::oracle::Verifier;
use crate::report::Tally;
use crate::scratch::{file_sizes, TempDir};
use crate::trace::{Tracer, ROOT};
use crate::workloads::{
    derive_seed, ServeWorkload, DISK_PHASE_CAPACITY, JOBS, PIPELINE_BATCHES, PIPELINE_DEPTH,
};

/// Memory cap of the first daemon of a repetition: every cold answer stays
/// in the LRU map, so the hit phases never touch the disk.
const MEMORY_PHASE_CAPACITY: usize = 1024;

/// One request of the script with its independently computed answer.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The request.
    pub request: OptimizeRequest,
    /// The expected report, as JSON, from a direct `SuiteOptimizer` run.
    pub report_json: String,
    /// Simulated-time speedup of the expected report.
    pub speedup: f64,
    /// Schedule evaluations the search performs (eval-cache hits + misses).
    pub evals: u64,
    /// Host ms the direct run took during set-up (for the trace's estimate
    /// of the search share of a cold request).
    pub direct_ms: f64,
    /// Eval-cache counters of the direct run.
    pub cache: CacheTelemetry,
    /// Phase wall clock of the direct run.
    pub phases: PhaseTimings,
}

/// Everything set-up prepares for the serving script.
pub struct ServeSetup {
    /// The workload.
    pub workload: ServeWorkload,
    /// Oracle references and the listing re-simulator.
    pub verifier: Verifier,
    /// `plan[sweep][kernel]`.
    pub plan: Vec<Vec<Planned>>,
    /// Operations of set-up (oracle answers checked, warm-up requests).
    pub tally: Tally,
}

impl ServeSetup {
    /// Every planned request, sweep by sweep.
    pub fn planned(&self) -> Vec<&Planned> {
        self.plan.iter().flatten().collect()
    }
}

fn request_for(workload: &ServeWorkload, spec: &KernelSpec, seed: u64) -> OptimizeRequest {
    OptimizeRequest {
        protocol_version: PROTOCOL_VERSION,
        kernel: spec.kind.name().to_string(),
        arch: workload.arch.to_string(),
        shape: Some(spec.shape),
        scale: None,
        seed: Some(seed),
        deadline_ms: None,
        priority: None,
    }
}

/// Computes the oracle references and every planned answer through a direct
/// `ServerConfig::suite_optimizer` run, then starts a daemon once and sends
/// it one cold and one repeated request per kernel, untimed.
pub fn setup(workload: &ServeWorkload, seed: u64) -> std::io::Result<ServeSetup> {
    let warmup_dir = TempDir::new("serve-warmup")?;
    let config = workload.server_config(warmup_dir.path(), MEMORY_PHASE_CAPACITY);
    let verifier = Verifier::new(&workload.gpu, &workload.specs, None, &config.tune_options);
    let mut tally = Tally::default();
    let mut plan = Vec::with_capacity(workload.sizes.cold_sweeps);
    for sweep in 0..workload.sizes.cold_sweeps {
        let request_seed = derive_seed(seed, sweep as u64);
        let optimizer = config.suite_optimizer(workload.gpu.clone(), request_seed);
        let mut row = Vec::with_capacity(workload.specs.len());
        for spec in &workload.specs {
            let start = Instant::now();
            let (report, telemetry, preempted) =
                optimizer.optimize_spec_preemptible(spec, &CancelToken::new());
            let direct_ms = start.elapsed().as_secs_f64() * 1e3;
            tally.record(if preempted {
                Err(format!("{}: the direct run was preempted", report.kernel))
            } else {
                verifier.check(&report)
            });
            row.push(Planned {
                request: request_for(workload, spec, request_seed),
                report_json: serde_json::to_string(&report)
                    .map_err(|err| std::io::Error::other(err.to_string()))?,
                speedup: report.speedup,
                evals: telemetry.cache.hits + telemetry.cache.misses,
                direct_ms,
                cache: telemetry.cache,
                phases: telemetry.phases,
            });
        }
        plan.push(row);
    }

    let server = Server::start(config)?;
    let client = Client::new(server.local_addr());
    for planned in &plan[0] {
        for expect_stored in [false, true] {
            tally.record(one_shot(&client, planned, expect_stored, None).map(|_| ()));
        }
    }
    server.shutdown();
    Ok(ServeSetup {
        workload: workload.clone(),
        verifier,
        plan,
        tally,
    })
}

/// Checks a response against its planned answer and the phase's expected
/// `from_store`.
fn check_response(
    planned: &Planned,
    response: &OptimizeResponse,
    expect_stored: bool,
) -> Result<(), String> {
    let kernel = &planned.request.kernel;
    let result: &OptimizeResult = match response {
        OptimizeResponse::Ok(result) => result,
        OptimizeResponse::Err(error) => return Err(format!("{kernel}: daemon answered {error}")),
        OptimizeResponse::Status(_) => return Err(format!("{kernel}: status instead of answer")),
    };
    if result.from_store != expect_stored {
        return Err(format!(
            "{kernel}: from_store={} in a phase that expects {expect_stored}",
            result.from_store
        ));
    }
    if result.degraded {
        return Err(format!("{kernel}: degraded answer"));
    }
    let got = serde_json::to_string(&result.report).map_err(|err| err.to_string())?;
    if got != planned.report_json {
        return Err(format!("{kernel}: report differs from the direct run"));
    }
    Ok(())
}

fn decode(bytes: &[u8]) -> Result<OptimizeResponse, String> {
    let text = std::str::from_utf8(bytes).map_err(|err| err.to_string())?;
    serde_json::from_str(text).map_err(|err| err.to_string())
}

/// One v1 one-shot exchange, decoded and checked; returns the raw answer
/// bytes. `stored_bytes`, when given, must be matched byte for byte.
fn one_shot(
    client: &Client,
    planned: &Planned,
    expect_stored: bool,
    stored_bytes: Option<&[u8]>,
) -> Result<Vec<u8>, String> {
    let bytes = client
        .request_bytes(&planned.request)
        .map_err(|err| format!("{}: {err}", planned.request.kernel))?;
    let response = decode(&bytes)?;
    check_response(planned, &response, expect_stored)?;
    if stored_bytes.is_some_and(|stored| stored != bytes.as_slice()) {
        return Err(format!(
            "{}: a repeated answer is not byte-identical to the first",
            planned.request.kernel
        ));
    }
    Ok(bytes)
}

/// The samples the script collects, over all repetitions of a run.
#[derive(Debug, Default)]
pub struct ServeSamples {
    /// Host ms per cold request, mean of each six-kernel sweep.
    pub cold_ms: Vec<f64>,
    /// Host ms of every cold request.
    pub cold_request_ms: Vec<f64>,
    /// Cold request ms minus the direct run's ms, per request.
    pub cold_overhead_ms: Vec<f64>,
    /// Schedule evaluations per host second, per cold sweep.
    pub evals_per_s: Vec<f64>,
    /// Host ms per one-shot hit, mean of each sweep.
    pub hit_ms: Vec<f64>,
    /// Host ms of every one-shot hit, in request order, per repetition.
    pub hit_request_ms: Vec<Vec<f64>>,
    /// Host ms of every depth-1 session hit.
    pub session_ms: Vec<f64>,
    /// Hits per host second of every pipelined chunk.
    pub pipelined_per_s: Vec<f64>,
    /// Host ms of every one-shot hit after the capped restart.
    pub disk_ms: Vec<f64>,
    /// Host ms of `Server::start` on the populated store.
    pub restart_ms: Vec<f64>,
    /// Host ms of a status probe.
    pub status_ms: Vec<f64>,
    /// Host µs of opening a session.
    pub connect_us: Vec<f64>,
    /// Bytes of a hit answer.
    pub response_bytes: Vec<f64>,
    /// The first hit answer, for the codec probe.
    pub first_hit_bytes: Option<Vec<u8>>,
    /// Status of the first daemon just before its shutdown.
    pub memory_status: Option<StatusResult>,
    /// Status of the restarted daemon just before its shutdown.
    pub disk_status: Option<StatusResult>,
    /// Bytes in the store directory after the first daemon's shutdown:
    /// total, telemetry manifest, journal.
    pub store_dir_bytes: (u64, u64, u64),
    /// Operations attempted and failed.
    pub tally: Tally,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn session_hit(connection: &Connection, planned: &Planned) -> Result<(), String> {
    let response = connection
        .request(&planned.request)
        .map_err(|err| format!("{}: {err}", planned.request.kernel))?;
    check_response(planned, &response, true)
}

/// One pipelined chunk: `JOBS` sessions, each sending `PIPELINE_BATCHES`
/// batches of `PIPELINE_DEPTH` requests and awaiting each batch.
fn pipelined_chunk(
    connections: &[Connection],
    keys: &[&Planned],
    chunk: usize,
) -> Vec<Result<(), String>> {
    std::thread::scope(|scope| {
        let threads: Vec<_> = connections
            .iter()
            .enumerate()
            .map(|(lane, connection)| {
                scope.spawn(move || {
                    let mut verdicts = Vec::with_capacity(PIPELINE_BATCHES * PIPELINE_DEPTH);
                    for batch in 0..PIPELINE_BATCHES {
                        let base =
                            ((chunk * JOBS + lane) * PIPELINE_BATCHES + batch) * PIPELINE_DEPTH;
                        let in_flight: Vec<_> = (0..PIPELINE_DEPTH)
                            .map(|slot| {
                                let planned = keys[(base + slot) % keys.len()];
                                (planned, connection.submit(&planned.request))
                            })
                            .collect();
                        for (planned, handle) in in_flight {
                            verdicts.push(
                                handle
                                    .and_then(cuasmrld::RequestHandle::wait)
                                    .map_err(|err| format!("{}: {err}", planned.request.kernel))
                                    .and_then(|response| check_response(planned, &response, true)),
                            );
                        }
                    }
                    verdicts
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|thread| {
                thread
                    .join()
                    .expect("a pipelined lane only returns verdicts")
            })
            .collect()
    })
}

fn connect(addr: SocketAddr, samples: &mut ServeSamples) -> std::io::Result<Connection> {
    let start = Instant::now();
    let connection = ClientBuilder::new(addr).connect()?;
    samples.connect_us.push(ms_since(start) * 1e3);
    Ok(connection)
}

/// One repetition of the script on a fresh store directory.
pub fn run_script(
    setup: &ServeSetup,
    tracer: &Tracer,
    unit: u64,
    samples: &mut ServeSamples,
) -> std::io::Result<()> {
    let store_dir = TempDir::new("store")?;
    tracer.span("script", ROOT, unit, |script| {
        memory_phases(setup, tracer, script, unit, store_dir.path(), samples)?;
        disk_phase(setup, tracer, script, unit, store_dir.path(), samples)
    })
}

fn memory_phases(
    setup: &ServeSetup,
    tracer: &Tracer,
    script: u64,
    unit: u64,
    store_dir: &Path,
    samples: &mut ServeSamples,
) -> std::io::Result<()> {
    let workload = &setup.workload;
    let sizes = workload.sizes;
    let kernels = workload.specs.len();
    let server = tracer.span("serve.start", script, unit, |_| {
        Server::start(workload.server_config(store_dir, MEMORY_PHASE_CAPACITY))
    })?;
    let addr = server.local_addr();
    let client = Client::new(addr);

    tracer.span("phase.cold", script, unit, |phase| {
        for row in &setup.plan {
            let sweep_start = Instant::now();
            let mut verdicts = Vec::with_capacity(kernels);
            for planned in row {
                let start = Instant::now();
                let verdict = tracer.span("serve.request.cold", phase, unit, |request| {
                    // The search inside the daemon is invisible from here;
                    // the direct run of the same search, timed in set-up,
                    // stands in for it as an estimated child span.
                    tracer.record(
                        "core.search_est",
                        request,
                        unit,
                        (planned.direct_ms * 1e6) as u64,
                    );
                    one_shot(&client, planned, false, None)
                });
                let ms = ms_since(start);
                samples.cold_request_ms.push(ms);
                samples.cold_overhead_ms.push(ms - planned.direct_ms);
                verdicts.push(verdict.map(|_| ()));
            }
            let sweep_s = sweep_start.elapsed().as_secs_f64();
            samples.cold_ms.push(sweep_s * 1e3 / kernels as f64);
            samples
                .evals_per_s
                .push(row.iter().map(|p| p.evals).sum::<u64>() as f64 / sweep_s);
            verdicts.into_iter().for_each(|v| samples.tally.record(v));
        }
    });

    let keys = setup.planned();
    let mut first_hit: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
    tracer.span("phase.hit", script, unit, |phase| {
        let mut latencies = Vec::with_capacity(sizes.hit_sweeps * kernels);
        for sweep in 0..sizes.hit_sweeps {
            let sweep_start = Instant::now();
            let mut verdicts = Vec::with_capacity(kernels);
            for slot in 0..kernels {
                let key = (sweep * kernels + slot) % keys.len();
                let start = Instant::now();
                let verdict = tracer.span("serve.request.hit", phase, unit, |_| {
                    one_shot(&client, keys[key], true, first_hit[key].as_deref())
                });
                latencies.push(ms_since(start));
                verdicts.push(verdict.map(|bytes| {
                    samples.response_bytes.push(bytes.len() as f64);
                    samples.first_hit_bytes.get_or_insert_with(|| bytes.clone());
                    first_hit[key].get_or_insert(bytes);
                }));
            }
            samples.hit_ms.push(ms_since(sweep_start) / kernels as f64);
            verdicts.into_iter().for_each(|v| samples.tally.record(v));
        }
        samples.hit_request_ms.push(latencies);
    });

    tracer.span(
        "phase.session",
        script,
        unit,
        |phase| -> std::io::Result<()> {
            let connection = connect(addr, samples)?;
            for hit in 0..sizes.session_hits {
                let planned = keys[hit % keys.len()];
                let start = Instant::now();
                let verdict = tracer.span("serve.request.session", phase, unit, |_| {
                    session_hit(&connection, planned)
                });
                samples.session_ms.push(ms_since(start));
                samples.tally.record(verdict);
            }
            Ok(())
        },
    )?;

    tracer.span(
        "phase.pipelined",
        script,
        unit,
        |phase| -> std::io::Result<()> {
            let connections = (0..JOBS)
                .map(|_| connect(addr, samples))
                .collect::<std::io::Result<Vec<_>>>()?;
            for chunk in 0..sizes.pipelined_chunks {
                let start = Instant::now();
                let verdicts = tracer.span("serve.pipelined_chunk", phase, unit, |_| {
                    pipelined_chunk(&connections, &keys, chunk)
                });
                samples
                    .pipelined_per_s
                    .push(verdicts.len() as f64 / start.elapsed().as_secs_f64());
                verdicts.into_iter().for_each(|v| samples.tally.record(v));
            }
            Ok(())
        },
    )?;

    let start = Instant::now();
    samples.memory_status = Some(tracer.span("serve.status", script, unit, |_| client.status())?);
    samples.status_ms.push(ms_since(start));
    tracer.span("serve.shutdown", script, unit, |_| server.shutdown());
    let files = file_sizes(store_dir);
    let bytes_of = |pick: &dyn Fn(&str) -> bool| -> u64 {
        files
            .iter()
            .filter(|(name, _)| pick(name))
            .map(|(_, bytes)| bytes)
            .sum()
    };
    samples.store_dir_bytes = (
        bytes_of(&|_| true),
        bytes_of(&|name| name.ends_with("_telemetry.json")),
        bytes_of(&|name| name == cuasmrld::JOURNAL_FILE),
    );
    Ok(())
}

fn disk_phase(
    setup: &ServeSetup,
    tracer: &Tracer,
    script: u64,
    unit: u64,
    store_dir: &Path,
    samples: &mut ServeSamples,
) -> std::io::Result<()> {
    let workload = &setup.workload;
    let start = Instant::now();
    let server = tracer.span("serve.restart", script, unit, |_| {
        Server::start(workload.server_config(store_dir, DISK_PHASE_CAPACITY))
    })?;
    samples.restart_ms.push(ms_since(start));
    let client = Client::new(server.local_addr());
    let keys = setup.planned();
    tracer.span("phase.disk", script, unit, |phase| {
        for hit in 0..workload.sizes.disk_hits {
            let planned = keys[hit % keys.len()];
            let start = Instant::now();
            let verdict = tracer.span("serve.request.disk", phase, unit, |_| {
                one_shot(&client, planned, true, None)
            });
            samples.disk_ms.push(ms_since(start));
            samples.tally.record(verdict.map(|_| ()));
        }
    });
    let status = client.status()?;
    // Cycling through more distinct keys than the memory cap holds must
    // miss the LRU map, except for entries the store may have kept from
    // its recovery at open.
    let from_disk = status.store.disk_hits as usize;
    let expected = workload.sizes.disk_hits;
    if keys.len() > DISK_PHASE_CAPACITY {
        samples
            .tally
            .record(if from_disk + DISK_PHASE_CAPACITY >= expected {
                Ok(())
            } else {
                Err(format!(
                    "disk phase: only {from_disk} of {} repeats came from disk",
                    workload.sizes.disk_hits
                ))
            });
    }
    samples.disk_status = Some(status);
    server.shutdown();
    Ok(())
}

/// Repeats the script until `seconds` have passed (at least once).
pub fn measure(setup: &ServeSetup, seconds: f64) -> std::io::Result<ServeSamples> {
    let tracer = Tracer::new(false);
    let mut samples = ServeSamples::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut unit = 0;
    loop {
        run_script(setup, &tracer, unit, &mut samples)?;
        unit += 1;
        if Instant::now() >= deadline {
            return Ok(samples);
        }
    }
}
