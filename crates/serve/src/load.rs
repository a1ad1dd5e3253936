//! The deterministic load generator behind `cuasmrld-bench`.
//!
//! Drives N concurrent synthetic clients through a fixed request schedule:
//! a *cold* round that first exposes every distinct request, then
//! `repeat_rounds` *warm* rounds replaying the identical requests. The
//! schedule is a pure function of the [`LoadSpec`] — no randomness, no
//! clock — so two runs against equal daemon state see identical traffic,
//! and the warm-phase store-hit rate measures the cache economics the
//! service book promises. `Busy` answers are retried with bounded backoff
//! (that is the admission-control contract); every other error counts as a
//! failure.
//!
//! One client loop over one transport, the pipelined [`Connection`]; the
//! spec's `pipeline` only sets how deep and how long-lived it is:
//!
//! - `pipeline <= 1` (default): depth 1 and a fresh connection per request
//!   — connect, one exchange, close.
//! - `pipeline >= 2`: each client thread keeps one persistent connection
//!   with up to `pipeline` requests in flight on it, submitting a batch
//!   and draining its tagged responses — the mode that actually exercises
//!   multiplexing, out-of-order completion and the per-connection demux
//!   path.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::client::{Client, Connection, RequestHandle};
use crate::protocol::{ErrorCode, OptimizeRequest, OptimizeResponse};

/// The load shape: which requests, how many clients, how many warm rounds,
/// how deep each client pipelines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadSpec {
    /// Concurrent client threads.
    pub clients: usize,
    /// Kernel names cycled through to form the distinct request set.
    pub kernels: Vec<String>,
    /// Architecture every request targets.
    pub arch: String,
    /// Scale divisor for the paper shapes.
    pub scale: usize,
    /// Base seed carried in every request.
    pub seed: u64,
    /// Warm rounds replaying the distinct set after the cold round.
    pub repeat_rounds: usize,
    /// Bounded retries per request on `Busy` before counting a failure.
    pub busy_retries: usize,
    /// In-flight requests per client thread. `0`/`1` is one connection per
    /// request; `N >= 2` keeps one persistent connection per client with
    /// up to `N` pipelined requests on it. Added in v2 (additive,
    /// `#[serde(default)]`).
    #[serde(default)]
    pub pipeline: usize,
}

impl LoadSpec {
    /// A small default burst: every Table-2 kernel, two clients, two warm
    /// rounds, no pipelining.
    #[must_use]
    pub fn smoke(arch: impl Into<String>) -> LoadSpec {
        LoadSpec {
            clients: 2,
            kernels: kernels::KernelKind::all()
                .iter()
                .map(|kind| kind.name().to_string())
                .collect(),
            arch: arch.into(),
            scale: 16,
            seed: 0,
            repeat_rounds: 2,
            busy_retries: 200,
            pipeline: 0,
        }
    }

    /// The full deterministic request schedule: one cold round over the
    /// distinct set, then `repeat_rounds` warm rounds of the same set.
    #[must_use]
    pub fn schedule(&self) -> Vec<OptimizeRequest> {
        let distinct: Vec<OptimizeRequest> = self
            .kernels
            .iter()
            .map(|kernel| {
                let mut request = OptimizeRequest::table2(kernel.clone(), self.arch.clone());
                request.scale = Some(self.scale);
                request.seed = Some(self.seed);
                request
            })
            .collect();
        let mut schedule = Vec::new();
        for _ in 0..=self.repeat_rounds {
            schedule.extend(distinct.iter().cloned());
        }
        schedule
    }
}

/// Outcome counters of one load run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Requests attempted (cold + warm).
    pub sent: usize,
    /// Successful answers.
    pub ok: usize,
    /// Successful answers served from the schedule store.
    pub from_store: usize,
    /// Requests that stayed `Busy` through every retry.
    pub busy_exhausted: usize,
    /// Typed errors other than `Busy`.
    pub errors: usize,
    /// Transport failures.
    pub io_errors: usize,
    /// Warm-phase requests (the repeat rounds).
    pub warm_sent: usize,
    /// Warm-phase answers served from the store.
    pub warm_from_store: usize,
    /// `warm_from_store / warm_sent`, 0 when no warm round ran.
    pub warm_hit_rate: f64,
    /// The pipeline depth the run used (echo of the spec; 0/1 = one
    /// connection per request). Added in v2 (additive, `#[serde(default)]`).
    #[serde(default)]
    pub pipeline: usize,
    /// The daemon's cumulative content-checksum failure counters probed at
    /// the end of the run: [`crate::ServiceStats::checksum_failures`]
    /// (serving-path heals) plus [`crate::StoreStats::checksum_failures`]
    /// (open-scan and lookup detections — a serving-path heal appears in
    /// both, so treat this as a detector, not an exact census). Nonzero
    /// during a fault-free burst means silent data corruption —
    /// `cuasmrld-bench --verify-store` fails on it. Added in durability v2
    /// (additive, `#[serde(default)]`).
    #[serde(default)]
    pub checksum_failures: u64,
}

impl LoadReport {
    /// Requests that did not produce a successful answer.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.busy_exhausted + self.errors + self.io_errors
    }
}

/// Runs the load spec against the daemon at `addr` (see the module docs).
/// The cold round runs to completion before the warm rounds start, so the
/// warm-phase hit rate cleanly measures repeat-traffic economics rather
/// than racing first exposure.
#[must_use]
pub fn run_load(addr: SocketAddr, spec: &LoadSpec) -> LoadReport {
    let client = Client::new(addr);
    let distinct = {
        let mut cold = spec.clone();
        cold.repeat_rounds = 0;
        cold.schedule()
    };
    let mut report = LoadReport {
        pipeline: spec.pipeline,
        ..LoadReport::default()
    };
    run_phase(&client, spec, &distinct, &mut report, false);
    let warm: Vec<OptimizeRequest> = (0..spec.repeat_rounds)
        .flat_map(|_| distinct.iter().cloned())
        .collect();
    run_phase(&client, spec, &warm, &mut report, true);
    report.warm_hit_rate = if report.warm_sent == 0 {
        0.0
    } else {
        report.warm_from_store as f64 / report.warm_sent as f64
    };
    // Best-effort end-of-run durability probe: cumulative daemon counters,
    // so a clean burst can assert they are zero. A failed probe leaves
    // them zero rather than failing a run that otherwise succeeded.
    if let Ok(status) = client.status() {
        report.checksum_failures = status.stats.checksum_failures + status.store.checksum_failures;
    }
    report
}

/// The per-phase counters every client thread tallies into.
#[derive(Default)]
struct PhaseCounters {
    ok: AtomicUsize,
    from_store: AtomicUsize,
    busy_exhausted: AtomicUsize,
    errors: AtomicUsize,
    io_errors: AtomicUsize,
}

impl PhaseCounters {
    fn tally(&self, outcome: &Outcome) {
        match outcome {
            Outcome::Ok { stored } => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                if *stored {
                    self.from_store.fetch_add(1, Ordering::Relaxed);
                }
            }
            Outcome::BusyExhausted => {
                self.busy_exhausted.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Error => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Io => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn run_phase(
    client: &Client,
    spec: &LoadSpec,
    requests: &[OptimizeRequest],
    report: &mut LoadReport,
    warm: bool,
) {
    let next = AtomicUsize::new(0);
    let counters = PhaseCounters::default();
    std::thread::scope(|scope| {
        for _ in 0..spec.clients.max(1) {
            scope.spawn(|| client_loop(client, spec, requests, &next, &counters));
        }
    });
    report.sent += requests.len();
    report.ok += counters.ok.into_inner();
    report.busy_exhausted += counters.busy_exhausted.into_inner();
    report.errors += counters.errors.into_inner();
    report.io_errors += counters.io_errors.into_inner();
    let stored = counters.from_store.into_inner();
    report.from_store += stored;
    if warm {
        report.warm_sent += requests.len();
        report.warm_from_store += stored;
    }
}

/// One client thread: claim up to `pipeline` requests, submit the whole
/// batch on one [`Connection`], then drain its handles (each resolving
/// whenever the server answers it). The connection is kept across batches
/// when pipelining and dropped after each request otherwise.
fn client_loop(
    client: &Client,
    spec: &LoadSpec,
    requests: &[OptimizeRequest],
    next: &AtomicUsize,
    counters: &PhaseCounters,
) {
    let depth = spec.pipeline.max(1);
    let mut kept: Option<Connection> = None;
    loop {
        let batch: Vec<&OptimizeRequest> = (0..depth)
            .map_while(|_| requests.get(next.fetch_add(1, Ordering::Relaxed)))
            .collect();
        if batch.is_empty() {
            return;
        }
        let Some(connection) = kept.take().or_else(|| client.builder().connect().ok()) else {
            // Fail the claimed share so the totals still account for every
            // scheduled request.
            for _ in &batch {
                counters.tally(&Outcome::Io);
            }
            continue;
        };
        let handles: Vec<io::Result<RequestHandle>> = batch
            .iter()
            .map(|request| connection.submit(request))
            .collect();
        for (request, handle) in batch.iter().zip(handles) {
            counters.tally(&wait_with_retry(
                &connection,
                request,
                handle,
                spec.busy_retries,
            ));
        }
        if depth >= 2 {
            kept = Some(connection);
        }
    }
}

enum Outcome {
    Ok { stored: bool },
    BusyExhausted,
    Error,
    Io,
}

/// Waits on a submitted handle, resubmitting on the same connection after
/// a `Busy` answer — the one retry routine of the load generator.
fn wait_with_retry(
    connection: &Connection,
    request: &OptimizeRequest,
    first: io::Result<RequestHandle>,
    busy_retries: usize,
) -> Outcome {
    let mut handle = first;
    let mut retries_left = busy_retries;
    loop {
        let Ok(response) = handle.and_then(RequestHandle::wait) else {
            return Outcome::Io;
        };
        match response {
            OptimizeResponse::Ok(result) => {
                return Outcome::Ok {
                    stored: result.from_store,
                }
            }
            // `Busy` is the retryable answer — admission control's contract.
            OptimizeResponse::Err(error) if error.code == ErrorCode::Busy => {}
            OptimizeResponse::Err(_) | OptimizeResponse::Status(_) => return Outcome::Error,
        }
        if retries_left == 0 {
            return Outcome::BusyExhausted;
        }
        retries_left -= 1;
        std::thread::sleep(Duration::from_millis(20));
        handle = connection.submit(request);
    }
}
