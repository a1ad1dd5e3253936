//! The `cuasmrld` wire protocol: length-prefixed JSON frames over a local
//! TCP socket, plus the request canonicalization that turns wire text into
//! the exact [`KernelSpec`]/[`gpusim::GpuConfig`] tuple the optimizer runs.
//!
//! Framing: every message is a 4-byte big-endian length followed by that
//! many bytes of UTF-8 JSON. Frames above [`MAX_FRAME_LEN`] are rejected
//! before allocation.
//!
//! Connections (since protocol v2) are sessions, and the daemon has one
//! path through which every frame of one goes:
//!
//! - A [`TaggedRequest`] frame (`{"request_id": N, "body": {...}}`) is the
//!   unit of a session: the connection stays open across exchanges, the
//!   client may pipeline multiple in-flight requests, and each response
//!   comes back as a [`TaggedResponse`] carrying the client-chosen
//!   `request_id` — possibly out of submission order.
//! - A *bare* [`OptimizeRequest`]/[`StatusRequest`] as the first frame (the
//!   v1 single-exchange protocol) is a one-request session at the daemon's
//!   edge: wrapped on read into the same [`RequestBody`], answered with the
//!   untagged response, and the server closes the connection. Every v1
//!   client keeps working unchanged.
//!
//! Versioning: every request and response carries a `protocol_version`.
//! This server speaks [`PROTOCOL_VERSION`] and still accepts
//! [`PROTOCOL_V1`]; responses echo the request's version so a v1 client
//! sees byte-identical v1 answers. Any other version is answered with a
//! typed [`ErrorCode::UnsupportedVersion`] error, never a silent
//! reinterpretation. `docs/SERVICE.md` documents the full schemas, the
//! version-sniffing matrix and the compatibility rules.

use std::io::{self, Read, Write};

use cuasmrl::OptimizationReport;
use kernels::{KernelSpec, ProblemShape};
use serde::{Deserialize, Serialize};

use crate::server::ServiceStats;
use crate::store::StoreStats;

/// Version of the request/response JSON schema (see `docs/SERVICE.md`).
pub const PROTOCOL_VERSION: u32 = 2;

/// The original single-exchange protocol version, still accepted: a bare
/// (untagged) frame carrying it is answered in v1 style — one untagged
/// response echoing version 1, then the connection closes.
pub const PROTOCOL_V1: u32 = 1;

/// The `request_id` the server uses when a malformed session frame carries
/// no salvageable id. Clients must start their ids at 1 so an error tagged
/// with this id is unambiguously "your frame was unattributable".
pub const UNATTRIBUTED_REQUEST_ID: u64 = 0;

/// Upper bound on a frame's payload, enforced on both read and write so a
/// malformed length prefix can never trigger a giant allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Upper bound on a request's `deadline_ms` (24 hours). Anything above it
/// is a typo or an overflow probe, not a schedule budget — rejected with
/// [`ErrorCode::BadRequest`] at decode so `u64::MAX`-style arithmetic never
/// reaches a worker.
pub const MAX_DEADLINE_MS: u64 = 86_400_000;

/// The admission rank of a request with no deadline: one past
/// [`MAX_DEADLINE_MS`], so every deadlined request outranks every
/// deadline-free one (at equal priority).
pub const NO_DEADLINE_RANK_MS: i64 = MAX_DEADLINE_MS as i64 + 1;

/// How many milliseconds of effective deadline one unit of `priority` is
/// worth: the admission rank is `deadline − priority × PRIORITY_BIAS_MS`,
/// so `priority: 5` competes like a request whose deadline is 5 s tighter.
pub const PRIORITY_BIAS_MS: i64 = 1_000;

/// The deterministic admission rank of a request: lower ranks are served
/// first, ties broken by admission ordinal (arrival order). A pure
/// function of the request — no wall clock, no randomness — so the same
/// request set produces the same served order on every replay.
///
/// `deadline_ms: None` ranks at [`NO_DEADLINE_RANK_MS`] (behind every
/// deadlined request); `priority` biases the rank additively by
/// [`PRIORITY_BIAS_MS`] per unit (positive priority serves earlier).
#[must_use]
pub fn admission_rank(deadline_ms: Option<u64>, priority: Option<i32>) -> i64 {
    let base = deadline_ms.map_or(NO_DEADLINE_RANK_MS, |ms| ms.min(MAX_DEADLINE_MS) as i64);
    // i32 × 1000 fits comfortably in i64; no overflow is possible.
    base - i64::from(priority.unwrap_or(0)) * PRIORITY_BIAS_MS
}

/// Checks a request's `protocol_version` against the accepted set
/// ({[`PROTOCOL_V1`], [`PROTOCOL_VERSION`]}).
///
/// # Errors
///
/// Returns [`ErrorCode::UnsupportedVersion`] for any other version.
pub fn check_version(protocol_version: u32) -> Result<(), ServiceError> {
    if protocol_version == PROTOCOL_VERSION || protocol_version == PROTOCOL_V1 {
        return Ok(());
    }
    Err(ServiceError::new(
        ErrorCode::UnsupportedVersion,
        format!(
            "protocol version {protocol_version} is not supported \
             (this server speaks {PROTOCOL_VERSION}, and still accepts {PROTOCOL_V1})"
        ),
    ))
}

/// A kernel-optimization request.
///
/// `kernel` and `arch` accept the same names and aliases as the CLI
/// surfaces (resolved through [`cuasmrl::cli`]); everything optional
/// defaults server-side, so the minimal request is just
/// `{"protocol_version": 2, "kernel": "softmax", "arch": "ampere"}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OptimizeRequest {
    /// [`PROTOCOL_VERSION`] or [`PROTOCOL_V1`]; echoed in the response.
    pub protocol_version: u32,
    /// Kernel name from the Table-2 catalog (case-insensitive).
    pub kernel: String,
    /// Architecture name or alias (`ampere`, `a100`, `sm90`, …).
    pub arch: String,
    /// Explicit problem shape; defaults to the paper's Table-2 shape for
    /// the kernel, scaled by `scale`.
    #[serde(default)]
    pub shape: Option<ProblemShape>,
    /// Divisor applied to the paper shape when `shape` is absent; defaults
    /// to the server's configured scale.
    #[serde(default)]
    pub scale: Option<usize>,
    /// Base seed for the search; defaults to the server's configured seed.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Deadline budget in milliseconds, measured from admission. A request
    /// still queued when its deadline expires is answered with
    /// [`ErrorCode::DeadlineExceeded`] instead of being computed; one
    /// already running when it expires is preempted at the next search
    /// boundary and answered with a degraded best-so-far result. `0` means
    /// "already expired" (admission-control probe); absent means no
    /// deadline. Values above [`MAX_DEADLINE_MS`] are rejected with
    /// [`ErrorCode::BadRequest`].
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Additive admission-priority bias: the request is queued as if its
    /// deadline were `priority ×` [`PRIORITY_BIAS_MS`] ms tighter (see
    /// [`admission_rank`]). Negative values deprioritize. Priority affects
    /// *ordering only* — it is not part of the canonical request, so it
    /// never changes the answer or the store key. Added in v2 as an
    /// additive field: v1 frames without it decode as `None`.
    #[serde(default)]
    pub priority: Option<i32>,
}

impl OptimizeRequest {
    /// The minimal request: a Table-2 kernel at the server's default scale
    /// and seed, no deadline, no priority.
    #[must_use]
    pub fn table2(kernel: impl Into<String>, arch: impl Into<String>) -> Self {
        OptimizeRequest {
            protocol_version: PROTOCOL_VERSION,
            kernel: kernel.into(),
            arch: arch.into(),
            shape: None,
            scale: None,
            seed: None,
            deadline_ms: None,
            priority: None,
        }
    }

    /// This request's deterministic admission rank (see [`admission_rank`]).
    #[must_use]
    pub fn rank(&self) -> i64 {
        admission_rank(self.deadline_ms, self.priority)
    }
}

/// Server-side fallbacks for the optional request fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestDefaults {
    /// Scale divisor applied to paper shapes when the request names none.
    pub scale: usize,
    /// Base search seed when the request names none.
    pub seed: u64,
}

/// A fully validated request: the exact device profile, kernel spec and
/// seed the optimizer will run. Two requests that canonicalize to the same
/// value are the same work — this tuple (not the wire text) keys the
/// schedule store. Deadline and priority are deliberately absent: they
/// shape *when* the work runs, never *what* the answer is.
#[derive(Debug, Clone)]
pub struct CanonicalRequest {
    /// Resolved device profile (canonical name, aliases folded).
    pub gpu: gpusim::GpuConfig,
    /// Resolved kernel spec (explicit shape, or the scaled paper shape).
    pub spec: KernelSpec,
    /// Base search seed.
    pub seed: u64,
}

impl OptimizeRequest {
    /// Validates and canonicalizes the request.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServiceError`] — [`ErrorCode::UnsupportedVersion`]
    /// on a protocol-version outside {1, 2}, [`ErrorCode::BadRequest`] on
    /// an unknown kernel/architecture name or a degenerate shape.
    pub fn canonicalize(
        &self,
        defaults: &RequestDefaults,
    ) -> Result<CanonicalRequest, ServiceError> {
        check_version(self.protocol_version)?;
        if let Some(deadline_ms) = self.deadline_ms {
            if deadline_ms > MAX_DEADLINE_MS {
                return Err(ServiceError::new(
                    ErrorCode::BadRequest,
                    format!(
                        "deadline_ms {deadline_ms} exceeds the maximum of {MAX_DEADLINE_MS} (24h)"
                    ),
                ));
            }
        }
        let gpu = cuasmrl::cli::resolve_arch(&self.arch).map_err(ServiceError::bad_request)?;
        let kind = cuasmrl::cli::resolve_kernel(&self.kernel).map_err(ServiceError::bad_request)?;
        let spec = match self.shape {
            Some(shape) => {
                if [shape.batch, shape.m, shape.n, shape.k].contains(&0) {
                    return Err(ServiceError::new(
                        ErrorCode::BadRequest,
                        format!("shape dimensions must be positive, got {shape:?}"),
                    ));
                }
                KernelSpec { kind, shape }
            }
            None => KernelSpec::paper(kind).scaled_by(self.scale.unwrap_or(defaults.scale)),
        };
        Ok(CanonicalRequest {
            gpu,
            spec,
            seed: self.seed.unwrap_or(defaults.seed),
        })
    }
}

/// Identity of a canonical request inside the schedule store: a readable
/// `arch`/`kernel` prefix plus an FNV-1a digest of the full canonical
/// tuple. [`RequestKey::file_stem`] names the store entry on disk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestKey {
    /// Canonical architecture name.
    pub arch: String,
    /// Canonical kernel name.
    pub kernel: String,
    /// Hex FNV-1a-64 digest of [`RequestKey::canonical`].
    pub digest: String,
    /// The canonical tuple rendered as text (digest preimage).
    pub canonical: String,
}

impl RequestKey {
    /// Derives the key of a canonical request.
    #[must_use]
    pub fn of(request: &CanonicalRequest) -> RequestKey {
        let shape = &request.spec.shape;
        let canonical = format!(
            "arch={};kernel={};batch={};m={};n={};k={};seed={}",
            request.gpu.name,
            request.spec.kind.name(),
            shape.batch,
            shape.m,
            shape.n,
            shape.k,
            request.seed
        );
        RequestKey {
            arch: request.gpu.name.clone(),
            kernel: request.spec.kind.name().to_string(),
            digest: artifact::fnv1a64_hex(canonical.as_bytes()),
            canonical,
        }
    }

    /// File-name stem of this key's store entry (and training checkpoint).
    #[must_use]
    pub fn file_stem(&self) -> String {
        file_stem_of(&self.arch, &self.kernel, &self.digest)
    }
}

/// The one file-name stem rule of the store: `{arch}_{kernel}_{digest}`,
/// shared by [`RequestKey::file_stem`] and the entry provenance check.
pub(crate) fn file_stem_of(arch: &str, kernel: &str, digest: &str) -> String {
    format!("{arch}_{kernel}_{digest}")
}

/// A successful optimization answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizeResult {
    /// Echo of the request's `protocol_version` — a v1 request gets a v1
    /// answer, byte-identical to what a v1 server produced.
    pub protocol_version: u32,
    /// Canonical architecture name the request resolved to.
    pub arch: String,
    /// Canonical kernel name the request resolved to.
    pub kernel: String,
    /// The request's store key digest (see [`RequestKey`]).
    pub request_key: String,
    /// Whether this answer came from the persistent schedule store rather
    /// than a fresh search.
    pub from_store: bool,
    /// Whether the search was preempted (deadline or drain) before its
    /// schedule completed: the report is the verified best-schedule-so-far,
    /// not the converged answer. The training checkpoint is persisted, so
    /// re-asking the same request later resumes the search and returns the
    /// full answer. Added after v1 shipped as `false` on old answers
    /// (additive, `#[serde(default)]`).
    #[serde(default)]
    pub degraded: bool,
    /// The optimization report, bit-identical to what a direct
    /// [`cuasmrl::SuiteOptimizer`] run produces for the same canonical
    /// request (unless `degraded`).
    pub report: OptimizationReport,
}

/// A status probe: `{"protocol_version": 2, "query": "status"}`. Detected
/// by its required `query` field (an optimize request has none), answered
/// at admission without touching the queue — so it works even when the
/// daemon is saturated or draining. Inside a v2 session, sent as a
/// [`RequestBody::Status`] tagged frame instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusRequest {
    /// [`PROTOCOL_VERSION`] or [`PROTOCOL_V1`]; echoed in the answer.
    pub protocol_version: u32,
    /// Must be `"status"` (room for future query kinds, additively).
    pub query: String,
}

impl StatusRequest {
    /// The status probe for the current protocol version.
    #[must_use]
    pub fn new() -> StatusRequest {
        StatusRequest {
            protocol_version: PROTOCOL_VERSION,
            query: "status".to_string(),
        }
    }

    /// Validates the probe.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::UnsupportedVersion`] on a version outside
    /// {1, 2} and [`ErrorCode::BadRequest`] on an unknown query kind.
    pub fn validate(&self) -> Result<(), ServiceError> {
        check_version(self.protocol_version)?;
        if self.query != "status" {
            return Err(ServiceError::new(
                ErrorCode::BadRequest,
                format!("unknown query kind {:?}", self.query),
            ));
        }
        Ok(())
    }
}

impl Default for StatusRequest {
    fn default() -> Self {
        StatusRequest::new()
    }
}

/// The answer to a [`StatusRequest`]: the daemon's live counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusResult {
    /// Echo of the probe's `protocol_version`.
    pub protocol_version: u32,
    /// Aggregate request counters since startup.
    pub stats: ServiceStats,
    /// Schedule-store counters since startup (entries in memory and on
    /// disk, LRU bytes, swept temp files — the saturation picture).
    pub store: StoreStats,
    /// Configured worker-thread count.
    pub workers: usize,
    /// Configured admission-queue depth.
    pub queue_capacity: usize,
    /// Requests currently waiting in the admission queue. Added in v2
    /// (additive, `#[serde(default)]`): with `queue_capacity`, the live
    /// saturation gauge.
    #[serde(default)]
    pub queue_depth: usize,
    /// Whether the daemon is draining (shutdown in progress: new work is
    /// answered `Busy`, in-flight searches are being preempted).
    pub draining: bool,
}

/// Error taxonomy of the service (see `docs/SERVICE.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorCode {
    /// Malformed frame/JSON, unknown kernel or architecture, bad shape.
    BadRequest,
    /// `protocol_version` outside the accepted set {1, 2}.
    UnsupportedVersion,
    /// Admission control rejected the request: the bounded queue is full.
    /// Retrying later is the expected client behavior; the error's
    /// `queue_depth` hint says how saturated the queue was.
    Busy,
    /// The request's deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// Unexpected server-side failure.
    Internal,
}

/// A typed error answer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceError {
    /// Machine-readable error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorCode::Busy`]: how many requests were waiting in the
    /// admission queue when this one was rejected — the saturation hint an
    /// operator or backoff policy can act on without a status probe. Added
    /// in v2 (additive, `#[serde(default)]`): v1 errors decode as `None`,
    /// and non-`Busy` errors carry `None`.
    #[serde(default)]
    pub queue_depth: Option<usize>,
}

impl ServiceError {
    /// A typed error with no queue-depth hint.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ServiceError {
        ServiceError {
            code,
            message: message.into(),
            queue_depth: None,
        }
    }

    fn bad_request(err: cuasmrl::cli::UnknownName) -> ServiceError {
        ServiceError::new(ErrorCode::BadRequest, err.to_string())
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

/// One response frame: a result, a status answer, or a typed error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum OptimizeResponse {
    /// The request was served.
    Ok(OptimizeResult),
    /// The status probe's answer (additive: only ever sent in reply to a
    /// [`StatusRequest`], so v1 optimize clients never see it).
    Status(StatusResult),
    /// The request was rejected or failed; see the [`ErrorCode`].
    Err(ServiceError),
}

/// The body of a tagged (v2 session) request frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestBody {
    /// A kernel-optimization request.
    Optimize(OptimizeRequest),
    /// A status probe.
    Status(StatusRequest),
}

/// A v2 session request frame: `{"request_id": N, "body": {...}}`.
///
/// `request_id` is chosen by the client and echoed verbatim in the
/// matching [`TaggedResponse`] — it is how pipelined responses are routed,
/// so a client must not reuse an id while its request is in flight. Ids
/// must start at 1 ([`UNATTRIBUTED_REQUEST_ID`] is reserved for server
/// errors about frames whose id could not be salvaged).
///
/// The first frame on a connection is also the version sniff: one that
/// carries a `request_id` opens a persistent pipelined session; a bare
/// request is served as a one-request session — one untagged answer, then
/// the server closes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaggedRequest {
    /// Client-chosen correlation id, echoed in the response. Must be ≥ 1.
    pub request_id: u64,
    /// The request itself.
    pub body: RequestBody,
}

/// A v2 session response frame: the `request_id` of the request it
/// answers, plus the same [`OptimizeResponse`] a v1 exchange would carry.
/// Responses may arrive in any order; the id is the only correlation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaggedResponse {
    /// Echo of the request's `request_id`
    /// ([`UNATTRIBUTED_REQUEST_ID`] when the offending frame's id could
    /// not be salvaged).
    pub request_id: u64,
    /// The answer.
    pub response: OptimizeResponse,
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Returns an IO error on a short write, or `InvalidData` when the payload
/// exceeds [`MAX_FRAME_LEN`].
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
            )
        })?;
    // Prefix and payload leave in one write: a prefix sent on its own is a
    // small segment the payload then queues behind under Nagle until the
    // peer's delayed ACK arrives.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Socket options of every `cuasmrld` stream, accepted or dialled:
/// `TCP_NODELAY`, so a frame is sent when it is written instead of waiting
/// for the ACK of the frame before it.
pub(crate) fn configure_stream(stream: &std::net::TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Returns an IO error on a short read, or `InvalidData` when the length
/// prefix exceeds [`MAX_FRAME_LEN`] (the payload is not read in that case).
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    read_payload(reader, u32::from_be_bytes(header))
}

/// Checks a decoded length prefix against [`MAX_FRAME_LEN`] and reads that
/// many payload bytes.
fn read_payload<R: Read>(reader: &mut R, len: u32) -> io::Result<Vec<u8>> {
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// What one poll of a persistent connection's read side produced (see
/// [`poll_frame`]).
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame.
    Frame(Vec<u8>),
    /// No frame started before the idle timeout — check your exit
    /// conditions and poll again.
    Idle,
    /// The peer closed the connection at a frame boundary.
    Closed,
}

/// Reads one frame from a persistent connection with two timescales: a
/// short `idle_poll` before the first byte (so session loops notice
/// shutdown/drain/close promptly without ever splitting a frame), then the
/// full `frame_budget` once a frame has started. This is the read
/// primitive of both the server's session loop and the client's response
/// demultiplexer.
///
/// # Errors
///
/// Returns an IO error when a started frame stays unfinished past the
/// budget, the peer disconnects mid-frame, or the length prefix exceeds
/// [`MAX_FRAME_LEN`] — framing damage, which is connection-fatal (unlike
/// payload damage, which the server scopes to one `request_id`).
pub fn poll_frame(
    stream: &mut std::net::TcpStream,
    idle_poll: std::time::Duration,
    frame_budget: std::time::Duration,
) -> io::Result<FrameRead> {
    stream.set_read_timeout(Some(idle_poll))?;
    let mut first = [0u8; 1];
    match stream.read(&mut first) {
        Ok(0) => return Ok(FrameRead::Closed),
        Ok(_) => {}
        Err(err)
            if matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            return Ok(FrameRead::Idle)
        }
        Err(err) => return Err(err),
    }
    stream.set_read_timeout(Some(frame_budget))?;
    let mut rest = [0u8; 3];
    stream.read_exact(&mut rest)?;
    let len = u32::from_be_bytes([first[0], rest[0], rest[1], rest[2]]);
    read_payload(stream, len).map(FrameRead::Frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> RequestDefaults {
        RequestDefaults { scale: 16, seed: 7 }
    }

    #[test]
    fn frames_round_trip_and_oversized_frames_are_refused() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"hello").unwrap();
        assert_eq!(&buffer[..4], &5u32.to_be_bytes());
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");

        let mut oversized = Vec::from((MAX_FRAME_LEN + 1).to_be_bytes());
        oversized.extend_from_slice(b"x");
        let err = read_frame(&mut io::Cursor::new(oversized)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_frame_is_one_write_of_prefix_then_payload() {
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut writer = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut writer, b"{\"k\":1}").unwrap();
        assert_eq!(writer.writes, 1, "prefix and payload must share a write");
        assert_eq!(
            writer.bytes,
            [&7u32.to_be_bytes()[..], b"{\"k\":1}"].concat()
        );
    }

    #[test]
    fn configured_streams_have_nodelay_set_on_both_ends() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dialled = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        for stream in [&dialled, &accepted] {
            configure_stream(stream).unwrap();
            assert!(stream.nodelay().unwrap());
        }
    }

    #[test]
    fn canonicalization_folds_aliases_into_one_key() {
        let a = OptimizeRequest::table2("softmax", "a100")
            .canonicalize(&defaults())
            .unwrap();
        let b = OptimizeRequest::table2("SOFTMAX", "Ampere")
            .canonicalize(&defaults())
            .unwrap();
        assert_eq!(RequestKey::of(&a), RequestKey::of(&b));
        assert_eq!(a.spec, KernelSpec::scaled(kernels::KernelKind::Softmax, 16));
        assert_eq!(a.seed, 7);
        // Explicit knobs reach the key: different seed, different entry.
        let mut custom = OptimizeRequest::table2("softmax", "a100");
        custom.seed = Some(8);
        let c = custom.canonicalize(&defaults()).unwrap();
        assert_ne!(RequestKey::of(&a).digest, RequestKey::of(&c).digest);
        assert!(RequestKey::of(&a).file_stem().contains("softmax"));
    }

    #[test]
    fn request_digests_are_pinned_to_the_bytes_stored_entries_are_named_by() {
        // Taken before the inline FNV-1a-64 moved into `artifact`: every
        // store entry and checkpoint on disk is named by this digest.
        let canonical = OptimizeRequest::table2("softmax", "ampere")
            .canonicalize(&defaults())
            .unwrap();
        let key = RequestKey::of(&canonical);
        assert_eq!(
            key.canonical,
            "arch=sim-a100-80gb-pcie;kernel=softmax;batch=1;m=32;n=256;k=1;seed=7"
        );
        assert_eq!(key.digest, "aa1aff6ae554e8cd");
        assert_eq!(
            key.file_stem(),
            "sim-a100-80gb-pcie_softmax_aa1aff6ae554e8cd"
        );
    }

    #[test]
    fn priority_and_deadline_shape_ordering_but_never_the_canonical_key() {
        let plain = OptimizeRequest::table2("softmax", "a100");
        let mut urgent = plain.clone();
        urgent.priority = Some(50);
        urgent.deadline_ms = Some(2_000);
        let a = plain.canonicalize(&defaults()).unwrap();
        let b = urgent.canonicalize(&defaults()).unwrap();
        assert_eq!(
            RequestKey::of(&a),
            RequestKey::of(&b),
            "priority/deadline must not change what is computed"
        );
        assert_ne!(plain.rank(), urgent.rank());
    }

    #[test]
    fn canonicalization_rejects_bad_requests_with_typed_errors() {
        let mut wrong_version = OptimizeRequest::table2("softmax", "ampere");
        wrong_version.protocol_version = 99;
        assert_eq!(
            wrong_version.canonicalize(&defaults()).unwrap_err().code,
            ErrorCode::UnsupportedVersion
        );
        let unknown_kernel = OptimizeRequest::table2("conv3d", "ampere");
        let err = unknown_kernel.canonicalize(&defaults()).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("conv3d"));
        let unknown_arch = OptimizeRequest::table2("softmax", "pascal");
        assert_eq!(
            unknown_arch.canonicalize(&defaults()).unwrap_err().code,
            ErrorCode::BadRequest
        );
        let mut degenerate = OptimizeRequest::table2("softmax", "ampere");
        degenerate.shape = Some(ProblemShape {
            batch: 1,
            m: 0,
            n: 64,
            k: 1,
        });
        assert_eq!(
            degenerate.canonicalize(&defaults()).unwrap_err().code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn both_wire_versions_canonicalize_and_others_are_refused() {
        let mut request = OptimizeRequest::table2("softmax", "ampere");
        assert_eq!(request.protocol_version, PROTOCOL_VERSION);
        assert!(request.canonicalize(&defaults()).is_ok());
        request.protocol_version = PROTOCOL_V1;
        assert!(request.canonicalize(&defaults()).is_ok(), "v1 still speaks");
        for version in [0, 3, 99] {
            request.protocol_version = version;
            assert_eq!(
                request.canonicalize(&defaults()).unwrap_err().code,
                ErrorCode::UnsupportedVersion
            );
        }
    }

    #[test]
    fn absurd_deadlines_are_rejected_at_decode() {
        let mut request = OptimizeRequest::table2("softmax", "ampere");
        request.deadline_ms = Some(MAX_DEADLINE_MS);
        assert!(request.canonicalize(&defaults()).is_ok());
        request.deadline_ms = Some(MAX_DEADLINE_MS + 1);
        let err = request.canonicalize(&defaults()).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("deadline_ms"));
        request.deadline_ms = Some(u64::MAX);
        assert_eq!(
            request.canonicalize(&defaults()).unwrap_err().code,
            ErrorCode::BadRequest
        );
        // Zero stays legal: it is the admission-control probe.
        request.deadline_ms = Some(0);
        assert!(request.canonicalize(&defaults()).is_ok());
    }

    #[test]
    fn admission_ranks_order_deadlines_first_and_priority_biases_additively() {
        // Tighter deadline, earlier rank; no deadline ranks behind every
        // deadlined request.
        assert!(admission_rank(Some(100), None) < admission_rank(Some(5_000), None));
        assert!(admission_rank(Some(MAX_DEADLINE_MS), None) < admission_rank(None, None));
        assert_eq!(admission_rank(None, None), NO_DEADLINE_RANK_MS);
        // One unit of priority is worth exactly PRIORITY_BIAS_MS of
        // deadline; negative priority deprioritizes.
        assert_eq!(
            admission_rank(Some(5_000), Some(3)),
            admission_rank(Some(5_000 - 3 * PRIORITY_BIAS_MS as u64), None)
        );
        assert!(admission_rank(None, Some(1)) < admission_rank(None, None));
        assert!(admission_rank(None, Some(-1)) > admission_rank(None, None));
        // A high-priority no-deadline request can outrank a deadlined one —
        // priority is a real bias, not a secondary key.
        assert!(admission_rank(None, Some(i32::MAX)) < admission_rank(Some(0), None));
        // Extreme priorities never overflow.
        let _ = admission_rank(Some(MAX_DEADLINE_MS), Some(i32::MIN));
        let _ = admission_rank(Some(0), Some(i32::MAX));
    }

    #[test]
    fn every_error_code_round_trips_through_the_wire_form() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Busy,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Internal,
        ] {
            let error = ServiceError::new(code, format!("probe for {code:?}"));
            let json = serde_json::to_string(&OptimizeResponse::Err(error.clone())).unwrap();
            let decoded: OptimizeResponse = serde_json::from_str(&json).unwrap();
            let OptimizeResponse::Err(back) = decoded else {
                panic!("expected an error response, got {json}");
            };
            assert_eq!(back, error);
        }
        // The queue-depth hint survives the round trip too.
        let busy = ServiceError {
            queue_depth: Some(17),
            ..ServiceError::new(ErrorCode::Busy, "full")
        };
        let json = serde_json::to_string(&busy).unwrap();
        let back: ServiceError = serde_json::from_str(&json).unwrap();
        assert_eq!(back.queue_depth, Some(17));
    }

    #[test]
    fn v1_errors_without_a_queue_depth_still_decode() {
        // A v1 server's error had no `queue_depth` field; the hint is
        // additive (same pattern as `degraded` on results).
        let json = r#"{"code": "Busy", "message": "admission queue is full"}"#;
        let error: ServiceError = serde_json::from_str(json).unwrap();
        assert_eq!(error.code, ErrorCode::Busy);
        assert_eq!(error.queue_depth, None);
    }

    #[test]
    fn status_requests_are_distinguishable_from_optimize_requests() {
        // The status probe decodes as a StatusRequest but not as an
        // OptimizeRequest, and vice versa — `query` is the discriminant.
        let probe = serde_json::to_string(&StatusRequest::new()).unwrap();
        let decoded: StatusRequest = serde_json::from_str(&probe).unwrap();
        assert!(decoded.validate().is_ok());
        assert!(serde_json::from_str::<OptimizeRequest>(&probe).is_err());

        let optimize = serde_json::to_string(&OptimizeRequest::table2("bmm", "ampere")).unwrap();
        assert!(serde_json::from_str::<StatusRequest>(&optimize).is_err());

        let mut stale = StatusRequest::new();
        stale.protocol_version = 99;
        assert_eq!(
            stale.validate().unwrap_err().code,
            ErrorCode::UnsupportedVersion
        );
        let mut v1 = StatusRequest::new();
        v1.protocol_version = PROTOCOL_V1;
        assert!(v1.validate().is_ok(), "v1 probes still validate");
        let mut unknown = StatusRequest::new();
        unknown.query = "metrics".to_string();
        assert_eq!(unknown.validate().unwrap_err().code, ErrorCode::BadRequest);
    }

    #[test]
    fn tagged_frames_are_distinguishable_from_bare_frames() {
        // The version sniff: a tagged frame decodes as a TaggedRequest and
        // as neither bare request; a bare frame decodes as its request and
        // never as a TaggedRequest.
        let tagged = TaggedRequest {
            request_id: 1,
            body: RequestBody::Optimize(OptimizeRequest::table2("softmax", "ampere")),
        };
        let json = serde_json::to_string(&tagged).unwrap();
        let back: TaggedRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tagged);
        assert!(serde_json::from_str::<OptimizeRequest>(&json).is_err());
        assert!(serde_json::from_str::<StatusRequest>(&json).is_err());

        let bare = serde_json::to_string(&OptimizeRequest::table2("bmm", "ampere")).unwrap();
        assert!(serde_json::from_str::<TaggedRequest>(&bare).is_err());
        let probe = serde_json::to_string(&StatusRequest::new()).unwrap();
        assert!(serde_json::from_str::<TaggedRequest>(&probe).is_err());

        // Status probes ride sessions as tagged bodies.
        let tagged_probe = TaggedRequest {
            request_id: 2,
            body: RequestBody::Status(StatusRequest::new()),
        };
        let json = serde_json::to_string(&tagged_probe).unwrap();
        let back: TaggedRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tagged_probe);
    }

    #[test]
    fn tagged_responses_round_trip_with_their_request_id() {
        let response = TaggedResponse {
            request_id: 42,
            response: OptimizeResponse::Err(ServiceError {
                queue_depth: Some(3),
                ..ServiceError::new(ErrorCode::Busy, "queue full")
            }),
        };
        let json = serde_json::to_string(&response).unwrap();
        let back: TaggedResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.request_id, 42);
        let OptimizeResponse::Err(error) = back.response else {
            panic!("expected the error to survive");
        };
        assert_eq!(error.code, ErrorCode::Busy);
        assert_eq!(error.queue_depth, Some(3));
    }

    #[test]
    fn degraded_defaults_to_false_on_pre_preemption_answers() {
        // A v1 answer written before the `degraded` field existed must still
        // decode (additive change).
        let json = r#"{
            "protocol_version": 1,
            "arch": "ampere",
            "kernel": "softmax",
            "request_key": "00000000deadbeef",
            "from_store": true,
            "report": {
                "kernel": "softmax",
                "baseline_us": 10.0,
                "optimized_us": 10.0,
                "speedup": 1.0,
                "verified": true,
                "optimized_listing": "",
                "moves": []
            }
        }"#;
        let result: OptimizeResult = serde_json::from_str(json).unwrap();
        assert!(!result.degraded);
    }

    #[test]
    fn priority_defaults_to_none_on_v1_request_literals() {
        // The exact JSON a v1 client sends — no `priority` field — must
        // decode with `priority: None` (additive, mirroring `degraded`).
        let request: OptimizeRequest = serde_json::from_str(
            r#"{"protocol_version": 1, "kernel": "softmax", "arch": "ampere",
                "shape": null, "scale": null, "seed": 3, "deadline_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(request.priority, None);
        assert_eq!(request.seed, Some(3));
        assert_eq!(request.deadline_ms, Some(250));
        assert!(request.canonicalize(&defaults()).is_ok());
    }

    #[test]
    fn status_results_decode_pre_durability_literals_without_new_counters() {
        // The exact JSON a pre-durability-v2 daemon serializes: no
        // `checksum_failures` in the service stats, none of the durability
        // counters in the store stats. All the new fields are additive
        // (`#[serde(default)]`) and must decode as zero.
        let json = r#"{
            "protocol_version": 2,
            "stats": {
                "requests": 7, "store_hits": 4, "computed": 3, "busy": 0,
                "rejected": 1, "deadline_expired": 0, "preempted": 0,
                "degraded": 0, "worker_panics": 0, "status_served": 2,
                "injected_faults": 0
            },
            "store": {
                "hits": 4, "misses": 3, "disk_hits": 1,
                "entries_in_memory": 3, "skipped_at_open": 0, "tmp_swept": 0
            },
            "workers": 2,
            "queue_capacity": 16,
            "queue_depth": 0,
            "draining": false
        }"#;
        let status: StatusResult = serde_json::from_str(json).unwrap();
        assert_eq!(status.stats.requests, 7);
        assert_eq!(status.stats.checksum_failures, 0);
        assert_eq!(status.store.hits, 4);
        assert_eq!(status.store.checksum_failures, 0);
        assert_eq!(status.store.journal_replayed, 0);
        assert_eq!(status.store.lru_bytes, 0);
    }

    #[test]
    fn minimal_request_json_decodes_with_defaults() {
        let request: OptimizeRequest =
            serde_json::from_str(r#"{"protocol_version": 2, "kernel": "bmm", "arch": "hopper"}"#)
                .unwrap();
        assert_eq!(request, OptimizeRequest::table2("bmm", "hopper"));
        let canonical = request.canonicalize(&defaults()).unwrap();
        assert_eq!(
            canonical.gpu.name,
            cuasmrl::cli::resolve_arch("hopper").unwrap().name
        );
    }
}
