//! The `cuasmrld` daemon: a TCP acceptor, a deterministic deadline-aware
//! admission queue and a worker pool multiplexing kernel-optimization
//! requests over the [`SuiteOptimizer`] machinery.
//!
//! Connection lifecycle: the acceptor hands each connection to a reader
//! thread, and every well-framed payload — first or later — goes through
//! one function, `handle_session_frame`: decode, validate, answer or
//! admit. A connection is a session of tagged frames: the reader is a
//! demultiplexing loop, and workers answer each request through a writer
//! handle the connection's jobs share, tagged with the client's
//! `request_id` and possibly out of submission order — a stalled request
//! never blocks an unrelated pipelined one. Protocol v1 is a property of
//! the edge, not a second path: a *bare* first frame (no `request_id`) is
//! a one-request session whose `Responder` carries no tag, so its answer
//! goes out as the bare response frame and the connection closes behind
//! it — every v1 client keeps working byte-for-byte.
//!
//! Request lifecycle: each well-formed optimize request is validated,
//! canonicalized, and answered straight from the [`ScheduleStore`] when
//! the canonical request was served before — repeat traffic never touches
//! the queue. A store miss is admitted into a bounded
//! [`AdmissionQueue`] ordered by [`crate::protocol::admission_rank`]
//! (earliest effective deadline first, `priority` biasing additively,
//! admission ordinal breaking ties) — a deterministic function of the
//! request set, never of wall clock, so replays serve in identical order.
//! When the queue is full the request is rejected immediately with a typed
//! `Busy` error carrying the queue depth (backpressure, not buffering).
//! Workers pop in rank order, re-check the deadline and the store, run the
//! search — RL training checkpointed under the request's key
//! ([`CuAsmRl::with_checkpoint`]), so a killed daemon warm-restarts
//! mid-training — persist the entry, and reply through the job's responder.
//!
//! Fault tolerance: every in-flight search carries a [`CancelToken`] tied
//! to its deadline and the server-wide drain signal, polled at search
//! boundaries — a request that outlives its deadline is answered with a
//! typed *degraded* best-so-far result (checkpoint persisted, so re-asking
//! resumes and converges to the full answer). Worker job execution is
//! wrapped in `catch_unwind`: a panic is isolated, counted, answered as a
//! sanitized `Internal` error, and the pool survives. A malformed session
//! frame — the first included — poisons only its `request_id` (a tagged
//! `BadRequest`), never the connection; only framing-level damage — a
//! truncated or stalled frame — closes the session. [`Server::shutdown`] drains
//! gracefully — stop accepting, answer queued work `Busy`, preempt
//! in-flight searches, flush telemetry. The telemetry manifest is published
//! when a worker lands a computed or degraded answer and at the drain; a
//! store hit only records in memory, so the drain is how the hits served
//! since the last compute reach disk. A config-gated [`FaultPlan`]
//! injects worker panics and stalls at chosen request ordinals so the
//! chaos suite can prove all of this deterministically; ordinals are
//! assigned at admission (arrival order), before any priority reordering,
//! so fault plans stay deterministic under the priority queue. The plan is
//! read in one place, when a worker takes the job; the store's lookup
//! handles only the errors the store really returns.
//!
//! Determinism contract (serving path): the report inside a non-degraded
//! response is bit-identical to a direct [`SuiteOptimizer::optimizer_for`]
//! run for the same canonical request, and two identical requests against
//! the same store state produce byte-identical response frames (modulo the
//! session tag, which echoes the client's own `request_id`). Wall-clock
//! exists only in the telemetry manifest, never in a response.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use artifact::{ArtifactError, UnsyncedIo};
use cuasmrl::{
    load_run_manifest_checked, persist_run_manifest, CuAsmRl, KernelTelemetry, RunManifest,
    Strategy, SuiteOptimizer,
};
use gpusim::MeasureOptions;
use rl::CancelToken;
use serde::{Deserialize, Serialize, Value};

use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::{
    configure_stream, poll_frame, read_frame, write_frame, CanonicalRequest, ErrorCode, FrameRead,
    OptimizeRequest, OptimizeResponse, OptimizeResult, RequestBody, RequestDefaults, RequestKey,
    ServiceError, StatusRequest, StatusResult, TaggedRequest, TaggedResponse,
    UNATTRIBUTED_REQUEST_ID,
};
use crate::queue::{AdmissionQueue, PushError};
use crate::store::{ScheduleStore, StoreEntry, STORE_SCHEMA_VERSION};

/// The manifest suite label the daemon's telemetry is filed under (one
/// manifest per device profile: `{gpu}_service_telemetry.json`).
pub const SERVICE_SUITE_LABEL: &str = "service";

/// How often an idle session reader wakes to check for shutdown/drain.
const SESSION_IDLE_POLL: Duration = Duration::from_millis(100);

/// How long a session peer gets to finish a frame it has started writing.
/// A frame still unfinished past this budget is a wedged or hostile
/// client; the session closes (framing damage is connection-fatal, unlike
/// payload damage, which poisons only its `request_id`).
const SESSION_FRAME_BUDGET: Duration = Duration::from_secs(10);

/// Everything a daemon instance is configured with.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Root of the persistent schedule store (and training checkpoints).
    pub store_dir: PathBuf,
    /// In-memory entry cap of the store.
    pub store_capacity: usize,
    /// Bounded admission-queue depth; a full queue answers `Busy`.
    pub queue_capacity: usize,
    /// Worker threads. `0` is allowed (nothing dequeues) — used by tests to
    /// exercise admission control deterministically.
    pub workers: usize,
    /// Search strategy every request runs (seeded per request).
    pub strategy: Strategy,
    /// Default base seed when a request names none.
    pub seed: u64,
    /// Default paper-shape scale divisor when a request names none.
    pub scale: usize,
    /// Measurement protocol used while autotuning.
    pub tune_options: MeasureOptions,
    /// Assembly-game configuration.
    pub game_config: cuasmrl::GameConfig,
    /// Deterministic fault injection for chaos testing; `None` (the
    /// default) leaves every fault path inactive.
    pub fault_plan: Option<FaultPlan>,
}

impl ServerConfig {
    /// A conservative default configuration rooted at `store_dir`.
    #[must_use]
    pub fn new(store_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: store_dir.into(),
            store_capacity: 64,
            queue_capacity: 32,
            workers: 2,
            strategy: Strategy::Greedy { max_moves: 8 },
            seed: 0,
            scale: 1,
            tune_options: MeasureOptions::default(),
            game_config: cuasmrl::GameConfig::default(),
            fault_plan: None,
        }
    }

    /// The server-side fallbacks for optional request fields.
    #[must_use]
    pub fn defaults(&self) -> RequestDefaults {
        RequestDefaults {
            scale: self.scale,
            seed: self.seed,
        }
    }

    /// The [`SuiteOptimizer`] a request resolving to `gpu`/`seed` is served
    /// through. Exported so tests (and any other consumer) can reproduce a
    /// daemon answer with a direct run: the byte-identity contract is this
    /// shared constructor, not a parallel reimplementation.
    #[must_use]
    pub fn suite_optimizer(&self, gpu: gpusim::GpuConfig, seed: u64) -> SuiteOptimizer {
        SuiteOptimizer::new(gpu, self.strategy.clone())
            .with_seed(seed)
            .with_tune_options(self.tune_options.clone())
            .with_game_config(self.game_config.clone())
    }
}

/// Aggregate request counters of a running daemon, also served over the
/// wire in a [`StatusResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Frames that parsed into a well-formed optimize request.
    pub requests: u64,
    /// Requests answered from the schedule store.
    pub store_hits: u64,
    /// Requests that ran a fresh search to completion.
    pub computed: u64,
    /// Requests rejected by admission control (`Busy`), including queued
    /// work answered `Busy` during a drain.
    pub busy: u64,
    /// Requests rejected before admission (`BadRequest` /
    /// `UnsupportedVersion`), including malformed session frames poisoned
    /// by `request_id`.
    pub rejected: u64,
    /// Requests whose deadline expired while still queued.
    pub deadline_expired: u64,
    /// In-flight searches preempted by a deadline or drain signal.
    pub preempted: u64,
    /// Degraded (best-so-far) answers sent for preempted searches.
    pub degraded: u64,
    /// Worker panics isolated by `catch_unwind` (the pool survived each).
    pub worker_panics: u64,
    /// Status probes answered.
    pub status_served: u64,
    /// Faults the configured [`FaultPlan`] fired, each counted once, when
    /// a worker takes the planned request. A request answered from the
    /// store at admission never reaches a worker, so its planned fault is
    /// not counted.
    pub injected_faults: u64,
    /// Content-checksum failures healed while serving: store entries that
    /// failed [`StoreEntry`]'s checksum on a lookup (healed by recompute)
    /// plus telemetry manifests that failed theirs at startup seeding
    /// (healed by rebuild). A nonzero count on a fault-free run means the
    /// disk is silently corrupting data — see the SERVICE.md runbook.
    /// Additive since durability v2 (`#[serde(default)]`): stats from an
    /// older daemon decode as 0.
    #[serde(default)]
    pub checksum_failures: u64,
}

/// Where an answer goes: onto the connection its request arrived on,
/// through the writer handle every in-flight job of that connection shares
/// (so pipelined responses interleave safely and out of order). A session
/// request is answered with a [`TaggedResponse`] echoing its `request_id`;
/// a bare first frame has no id to echo, so its answer is the untagged
/// response frame — and since the reader stops after a bare frame, the
/// connection closes when this responder, the last handle on it, drops.
struct Responder {
    writer: Arc<Mutex<TcpStream>>,
    request_id: Option<u64>,
}

impl Responder {
    /// Best-effort reply — the peer may already be gone, and a failed
    /// write must never take a worker down.
    fn send(&self, response: OptimizeResponse) {
        let payload = match self.request_id {
            Some(request_id) => serde_json::to_string(&TaggedResponse {
                request_id,
                response,
            }),
            None => serde_json::to_string(&response),
        };
        if let Ok(payload) = payload {
            let mut stream = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = write_frame(&mut *stream, payload.as_bytes());
        }
    }

    fn send_error(&self, error: ServiceError) {
        self.send(OptimizeResponse::Err(error));
    }
}

struct Job {
    responder: Responder,
    canonical: CanonicalRequest,
    key: RequestKey,
    deadline_ms: Option<u64>,
    /// The request's `protocol_version`, echoed in the answer.
    wire_version: u32,
    admitted: Instant,
    /// 0-based index in the daemon's sequence of well-formed optimize
    /// requests — the [`FaultPlan`] key. Assigned at admission in arrival
    /// order, *before* priority reordering, so fault plans fire at the
    /// same requests whatever order the queue serves them in.
    ordinal: u64,
}

impl Job {
    /// The one way a report becomes an answer — stored, computed or
    /// degraded, at admission or in a worker.
    fn answer(&self, report: cuasmrl::OptimizationReport, from_store: bool, degraded: bool) {
        self.responder.send(OptimizeResponse::Ok(OptimizeResult {
            protocol_version: self.wire_version,
            arch: self.key.arch.clone(),
            kernel: self.key.kernel.clone(),
            request_key: self.key.digest.clone(),
            from_store,
            degraded,
            report,
        }));
    }

    /// Admission control's refusal: counted, typed, retryable.
    fn refuse_busy(&self, shared: &Shared, message: impl Into<String>, depth: Option<usize>) {
        shared.lock_stats().busy += 1;
        let mut error = ServiceError::new(ErrorCode::Busy, message);
        error.queue_depth = depth;
        self.responder.send_error(error);
    }
}

struct Shared {
    config: ServerConfig,
    store: ScheduleStore,
    queue: AdmissionQueue<Job>,
    shutdown: AtomicBool,
    /// The server-wide drain signal; every in-flight search holds a child
    /// of this token.
    drain: CancelToken,
    stats: Mutex<ServiceStats>,
    telemetry: Mutex<std::collections::HashMap<String, Vec<KernelTelemetry>>>,
}

impl Shared {
    /// Stats access that survives a poisoned mutex: a worker panic between
    /// lock and unlock must not take the counters (or any thread that reads
    /// them) down with it — the counts themselves are always consistent
    /// because each update is a single field increment.
    fn lock_stats(&self) -> MutexGuard<'_, ServiceStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_telemetry(
        &self,
    ) -> MutexGuard<'_, std::collections::HashMap<String, Vec<KernelTelemetry>>> {
        self.telemetry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn draining(&self) -> bool {
        self.drain.is_cancelled()
    }

    /// The live counters served to a [`StatusRequest`], echoing the
    /// probe's wire version.
    fn status(&self, wire_version: u32) -> StatusResult {
        StatusResult {
            protocol_version: wire_version,
            stats: *self.lock_stats(),
            store: self.store.stats(),
            workers: self.config.workers,
            queue_capacity: self.config.queue_capacity,
            queue_depth: self.queue.depth(),
            draining: self.draining(),
        }
    }

    /// Store lookup where a damaged or unreadable entry is a miss: the
    /// caller recomputes, which is the recovery path.
    fn store_get(&self, key: &RequestKey) -> Option<StoreEntry> {
        match self.store.get(key) {
            Ok(entry) => entry,
            Err(err) => {
                // A damaged entry is a miss with a warning: the recompute
                // overwrites the bad file, which is the recovery path.
                // Checksum mismatches are the silent-corruption signal and
                // get their own service-level counter on top of the
                // store's.
                if matches!(err, ArtifactError::ChecksumMismatch { .. }) {
                    self.lock_stats().checksum_failures += 1;
                }
                eprintln!("cuasmrld: {err}; recomputing");
                None
            }
        }
    }

    /// Answers `job` from the schedule store when its canonical request was
    /// served before — at admission (repeat traffic never touches the
    /// queue) and again in the worker (another worker may have computed the
    /// same request while this one was queued). Returns whether it did.
    fn serve_from_store(&self, job: &Job) -> bool {
        let Some(entry) = self.store_get(&job.key) else {
            return false;
        };
        self.lock_stats().store_hits += 1;
        self.record_telemetry(
            &job.canonical.gpu.name,
            KernelTelemetry::cached(&entry.report),
            false,
        );
        job.answer(entry.report, true, false);
        true
    }

    /// Folds one kernel's telemetry into the per-device service manifest
    /// and, when `publish` is set, persists it next to the store entries.
    /// Computed and degraded answers publish; a store hit does not, so it
    /// costs no manifest I/O — its record only copies figures the store
    /// entry already holds, and it reaches disk with the next publish or
    /// the drain's `flush_telemetry`. The first fold for a device seeds
    /// from the manifest a previous run persisted, so a restarted daemon
    /// keeps accumulating instead of silently zeroing history.
    fn record_telemetry(&self, gpu: &str, kernel: KernelTelemetry, publish: bool) {
        let mut per_gpu = self.lock_telemetry();
        let kernels = per_gpu
            .entry(gpu.to_string())
            .or_insert_with(|| self.seed_telemetry(gpu));
        kernels.push(kernel);
        if publish {
            // Publish under the lock: each publish renames a whole list
            // over the one manifest file, so an older list renamed in last
            // would drop the records folded after it.
            self.persist_manifest(gpu, kernels);
        }
    }

    /// The kernels a previous run already persisted for `gpu`. A manifest
    /// that exists but fails to read (unreadable, torn, corrupt, sealed
    /// under another version or checksum-failing) is skipped and rebuilt
    /// from scratch — never a panic, never a silent zero: the failure is
    /// logged, and only a checksum catch counts into
    /// [`ServiceStats::checksum_failures`].
    fn seed_telemetry(&self, gpu: &str) -> Vec<KernelTelemetry> {
        match load_run_manifest_checked(&self.config.store_dir, gpu, SERVICE_SUITE_LABEL) {
            Ok(Some(manifest)) => manifest.kernels,
            Ok(None) => Vec::new(),
            Err(err) => {
                if matches!(err, ArtifactError::ChecksumMismatch { .. }) {
                    self.lock_stats().checksum_failures += 1;
                }
                eprintln!("cuasmrld: telemetry manifest for {gpu} is damaged ({err}); rebuilding");
                Vec::new()
            }
        }
    }

    fn persist_manifest(&self, gpu: &str, kernels: &[KernelTelemetry]) {
        let manifest = RunManifest::new(
            gpu,
            SERVICE_SUITE_LABEL,
            self.config.strategy.name(),
            self.config.seed,
            self.config.workers,
            kernels.to_vec(),
        );
        if let Err(err) = persist_run_manifest(&UnsyncedIo, &self.config.store_dir, &manifest) {
            eprintln!("cuasmrld: failed to persist telemetry manifest: {err}");
        }
    }

    /// Re-persists every device's telemetry manifest — the drain-time flush.
    /// It is how store-hit records recorded since the last compute reach
    /// disk (hits never publish), and it makes good any earlier publish
    /// that failed transiently.
    fn flush_telemetry(&self) {
        let per_gpu = self.lock_telemetry();
        for (gpu, kernels) in per_gpu.iter() {
            if !kernels.is_empty() {
                self.persist_manifest(gpu, kernels);
            }
        }
    }
}

/// A running daemon. Dropping it without [`Server::shutdown`] detaches the
/// threads (the process exit reaps them) and leaves the telemetry manifest
/// without the store hits served since the last compute; tests call
/// `shutdown` for an orderly stop.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Opens the store, binds the listener and spawns the acceptor and
    /// worker threads.
    ///
    /// # Errors
    ///
    /// Returns an IO error when the store cannot be opened or the address
    /// cannot be bound.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let store = ScheduleStore::open(&config.store_dir, config.store_capacity)
            .map_err(|err| std::io::Error::other(err.to_string()))?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let queue = AdmissionQueue::new(config.queue_capacity);
        let shared = Arc::new(Shared {
            config,
            store,
            queue,
            shutdown: AtomicBool::new(false),
            drain: CancelToken::new(),
            stats: Mutex::new(ServiceStats::default()),
            telemetry: Mutex::new(std::collections::HashMap::new()),
        });
        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(Server {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current request counters. Never panics: the accessor recovers a
    /// poisoned mutex (single-field increments keep the counters consistent
    /// through any panic).
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        *self.shared.lock_stats()
    }

    /// Requests currently waiting in the admission queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Graceful drain: stop accepting, answer everything still queued with
    /// `Busy`, preempt in-flight searches through the drain token (their
    /// training checkpoints are persisted, and their clients receive typed
    /// degraded best-so-far answers), flush the telemetry manifests (the
    /// one publish of the store hits served since the last compute), and
    /// join every thread. Open v2 sessions stop reading (their pending
    /// answers are still written before the connection drops). A
    /// subsequent daemon on the same store directory warm-restarts the
    /// preempted searches from their checkpoints. Returns the final
    /// request counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.drain.cancel();
        // Wake the acceptor out of accept() with a no-op connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.flush_telemetry();
        *self.shared.lock_stats()
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    // One reader thread per connection: short-lived for a bare-frame
    // exchange, session-long otherwise. A client that stalls mid-frame (or never
    // finishes its write) ties up only its own thread, never the acceptor —
    // other connections keep flowing.
    let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for connection in listener.incoming() {
        readers.retain(|handle| !handle.is_finished());
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = connection else { continue };
        let _ = configure_stream(&stream);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let shared = Arc::clone(shared);
        readers.push(std::thread::spawn(move || {
            serve_connection(&shared, stream)
        }));
    }
    for handle in readers {
        let _ = handle.join();
    }
    // No more pushes can happen once every reader has exited; closing the
    // queue lets workers drain the leftovers (answered `Busy` mid-drain)
    // and exit.
    shared.queue.close();
}

/// One connection, first frame to close. Every payload goes through
/// [`handle_session_frame`]; responses travel through the shared `writer`
/// handle — workers hold clones of it inside queued jobs, so the loop never
/// waits on a response and a stalled request never blocks the next frame.
/// The first frame is always read and answered, drain or not (status
/// probes work mid-drain); a bare one ends the reading there.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer));
    let first = match read_frame(&mut stream) {
        Ok(frame) => frame,
        Err(err) => {
            // Covers truncated prefixes, half frames and oversized lengths:
            // the reply is best-effort (the peer may already be gone) and
            // the connection closes cleanly either way.
            let message = format!("malformed frame: {err}");
            Responder {
                writer,
                request_id: None,
            }
            .send_error(ServiceError::new(ErrorCode::BadRequest, message));
            return;
        }
    };
    if !handle_session_frame(shared, &writer, &first, false) {
        return;
    }
    while !shared.shutdown.load(Ordering::SeqCst) && !shared.draining() {
        // Once this loop stops reading, queued jobs still hold writer
        // clones, so pending answers (including drain-time `Busy`) are
        // written before the connection finally drops.
        match poll_frame(&mut stream, SESSION_IDLE_POLL, SESSION_FRAME_BUDGET) {
            Ok(FrameRead::Frame(payload)) => {
                handle_session_frame(shared, &writer, &payload, true);
            }
            Ok(FrameRead::Idle) => {}
            Ok(FrameRead::Closed) | Err(_) => return,
        }
    }
}

/// Probe for salvaging the `request_id` out of a frame that failed to
/// decode as a [`TaggedRequest`] — so a malformed body poisons exactly the
/// request it belongs to.
#[derive(Deserialize)]
struct IdProbe {
    #[serde(default)]
    request_id: Option<u64>,
}

/// Decodes one well-framed payload into whose answer it is and what it
/// asks — or why it asks nothing. The text is parsed once; every shape
/// below is tried against that one tree. A frame with a salvageable
/// `request_id` is a session frame whatever else is wrong with it; so is
/// every frame of an open session (`in_session`), unattributable damage
/// included. Only the first frame of a connection can be *bare* (`None`):
/// a v1 [`StatusRequest`], detected by its required `query` field, or a v1
/// [`OptimizeRequest`], wrapped here into the body a tagged frame carries.
fn decode_frame(payload: &[u8], in_session: bool) -> (Option<u64>, Result<RequestBody, String>) {
    let unattributed = in_session.then_some(UNATTRIBUTED_REQUEST_ID);
    let text = match std::str::from_utf8(payload) {
        Ok(text) => text,
        Err(err) => return (unattributed, Err(format!("invalid request JSON: {err}"))),
    };
    let value = match serde_json::from_str::<Value>(text) {
        Ok(value) => value,
        Err(err) => {
            let what = if in_session {
                "invalid session frame"
            } else {
                "invalid request JSON"
            };
            return (unattributed, Err(format!("{what}: {err}")));
        }
    };
    let not_tagged = match TaggedRequest::deserialize(&value) {
        Ok(tagged) => return (Some(tagged.request_id), Ok(tagged.body)),
        Err(err) => err,
    };
    // Not a tagged request, but its id may still parse: answer *that*
    // request id so the client can fail exactly one call.
    let salvaged = IdProbe::deserialize(&value)
        .ok()
        .and_then(|probe| probe.request_id)
        .or(unattributed);
    if salvaged.is_some() {
        return (
            salvaged,
            Err(format!("invalid session frame: {not_tagged}")),
        );
    }
    if let Ok(probe) = StatusRequest::deserialize(&value) {
        return (None, Ok(RequestBody::Status(probe)));
    }
    let bare = OptimizeRequest::deserialize(&value)
        .map(RequestBody::Optimize)
        .map_err(|err| format!("invalid request JSON: {err}"));
    (None, bare)
}

/// One well-framed payload, start to answer-or-admission. Status probes
/// are answered inline and never queued — they work even under saturation
/// or mid-drain; optimize requests go through admission; a frame that does
/// not decode is counted and answered `BadRequest`, scoped to its
/// `request_id` — never the connection. Returns whether the connection is
/// a session, i.e. whether another frame may follow this one.
fn handle_session_frame(
    shared: &Shared,
    writer: &Arc<Mutex<TcpStream>>,
    payload: &[u8],
    in_session: bool,
) -> bool {
    let (request_id, decoded) = decode_frame(payload, in_session);
    let session = request_id.is_some();
    let responder = Responder {
        writer: Arc::clone(writer),
        request_id,
    };
    let rejection = match decoded {
        Ok(RequestBody::Optimize(request)) => {
            process_optimize(shared, &request, responder);
            return session;
        }
        Ok(RequestBody::Status(probe)) => match probe.validate() {
            Ok(()) => {
                shared.lock_stats().status_served += 1;
                responder.send(OptimizeResponse::Status(
                    shared.status(probe.protocol_version),
                ));
                return session;
            }
            Err(error) => error,
        },
        Err(message) => ServiceError::new(ErrorCode::BadRequest, message),
    };
    shared.lock_stats().rejected += 1;
    responder.send_error(rejection);
    session
}

/// Everything that happens to an optimize request before a worker sees
/// it: ordinal assignment, validation, store lookup, admission control.
fn process_optimize(shared: &Shared, request: &OptimizeRequest, responder: Responder) {
    let ordinal = {
        let mut stats = shared.lock_stats();
        stats.requests += 1;
        stats.requests - 1
    };
    let canonical = match request.canonicalize(&shared.config.defaults()) {
        Ok(canonical) => canonical,
        Err(error) => {
            shared.lock_stats().rejected += 1;
            responder.send_error(error);
            return;
        }
    };
    let job = Job {
        responder,
        key: RequestKey::of(&canonical),
        canonical,
        deadline_ms: request.deadline_ms,
        wire_version: request.protocol_version,
        admitted: Instant::now(),
        ordinal,
    };
    if shared.serve_from_store(&job) {
        return;
    }
    if shared.draining() {
        job.refuse_busy(shared, "server is draining; retry after it restarts", None);
        return;
    }
    match shared.queue.try_push(request.rank(), ordinal, job) {
        Ok(()) => {}
        Err(PushError::Full { item: job, depth }) => job.refuse_busy(
            shared,
            format!("admission queue is full ({depth} pending); retry later"),
            Some(depth),
        ),
        Err(PushError::Closed(job)) => job.refuse_busy(shared, "server is shutting down", None),
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        // Panic isolation: whatever `handle_job` does — including an
        // injected panic — the worker thread survives, the client gets a
        // sanitized typed error, and the pool keeps serving.
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_job(shared, &job)));
        if outcome.is_err() {
            shared.lock_stats().worker_panics += 1;
            job.responder.send_error(ServiceError::new(
                ErrorCode::Internal,
                "internal error: the worker handling this request failed and was recovered; \
                 retrying is safe",
            ));
        }
    }
}

/// One dequeued job, start to reply. Runs inside the worker's
/// `catch_unwind` boundary.
fn handle_job(shared: &Shared, job: &Job) {
    // The one read of the fault plan: a planned fault is injected — and
    // counted — when a worker takes its request, never at admission.
    let fault = shared
        .config
        .fault_plan
        .as_ref()
        .and_then(|plan| plan.fault_at(job.ordinal));
    if fault.is_some() {
        shared.lock_stats().injected_faults += 1;
    }
    if let Some(FaultKind::WorkerPanic) = fault {
        panic!("injected worker panic (request ordinal {})", job.ordinal);
    }
    if shared.draining() {
        // Drain: everything still queued is answered Busy instead of being
        // computed — the store keeps no half answers, the client retries
        // against the restarted daemon.
        job.refuse_busy(shared, "server is draining; retry after it restarts", None);
        return;
    }
    if let Some(deadline_ms) = job.deadline_ms {
        let waited = job.admitted.elapsed().as_millis() as u64;
        if waited >= deadline_ms {
            shared.lock_stats().deadline_expired += 1;
            job.responder.send_error(ServiceError::new(
                ErrorCode::DeadlineExceeded,
                format!("deadline of {deadline_ms} ms expired while queued"),
            ));
            return;
        }
    }
    // Another worker may have computed the same canonical request while
    // this one was queued: serve the stored answer.
    if shared.serve_from_store(job) {
        return;
    }
    // The per-job token: fires on the request deadline or the server-wide
    // drain, whichever comes first.
    let mut cancel = shared.drain.child();
    if let Some(deadline_ms) = job.deadline_ms {
        cancel = cancel.with_deadline(job.admitted + Duration::from_millis(deadline_ms));
    }
    if let Some(&FaultKind::SlowWorker { stall_ms }) = fault {
        // Injected stall, sliced so a fired token (deadline or drain) cuts
        // it short — exactly like a real wedged measurement would resolve.
        let stall_until = Instant::now() + Duration::from_millis(stall_ms);
        while Instant::now() < stall_until && !cancel.is_cancelled() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    match compute(shared, &job.canonical, &job.key, &cancel) {
        Ok((report, telemetry, preempted)) => {
            if preempted {
                // The degraded best-so-far answer goes to the client but
                // never into the schedule store — the persisted checkpoint
                // is the artifact that survives, and a re-ask resumes from
                // it.
                let mut stats = shared.lock_stats();
                stats.preempted += 1;
                stats.degraded += 1;
            } else {
                let entry = StoreEntry {
                    schema_version: STORE_SCHEMA_VERSION,
                    canonical: job.key.canonical.clone(),
                    arch: job.key.arch.clone(),
                    kernel: job.key.kernel.clone(),
                    seed: job.canonical.seed,
                    generation: 0,
                    checksum: String::new(),
                    report: report.clone(),
                }
                .seal();
                if let Err(err) = shared.store.put(&job.key, entry) {
                    eprintln!("cuasmrld: failed to persist store entry: {err}");
                }
                shared.lock_stats().computed += 1;
            }
            shared.record_telemetry(&job.canonical.gpu.name, telemetry, true);
            job.answer(report, false, preempted);
        }
        Err(message) => {
            job.responder
                .send_error(ServiceError::new(ErrorCode::Internal, message));
        }
    }
}

/// Runs the search for one canonical request under a cancel token: the one
/// pipeline every other surface runs ([`SuiteOptimizer::optimizer_for`] +
/// [`CuAsmRl::optimize_spec_instrumented_with`]), with RL training
/// checkpointed under the request's key so a killed or preempted daemon
/// warm-restarts it. The report is bit-identical to a direct run — unless
/// the token preempts the search, in which case the returned flag is `true`
/// and the report is the degraded best-so-far answer (for RL, with the
/// training checkpoint left on disk for a later resume).
fn compute(
    shared: &Shared,
    canonical: &CanonicalRequest,
    key: &RequestKey,
    cancel: &CancelToken,
) -> Result<(cuasmrl::OptimizationReport, KernelTelemetry, bool), String> {
    let suite = shared
        .config
        .suite_optimizer(canonical.gpu.clone(), canonical.seed);
    let optimizer: CuAsmRl = suite
        .optimizer_for(&canonical.spec)
        .with_checkpoint(shared.store.checkpoint_path(key));
    optimizer
        .optimize_spec_instrumented_with(
            &canonical.spec,
            &suite.config_space_for(&canonical.spec),
            suite.tune_options(),
            cancel,
        )
        .map(|(report, _cubin, telemetry, preempted)| (report, telemetry, preempted))
        .map_err(|err| format!("training checkpoint failed: {err}"))
}
