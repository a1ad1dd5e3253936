//! `cuasmrld`: optimization-as-a-service for the CuAsmRL reproduction.
//!
//! This crate turns the offline [`cuasmrl::SuiteOptimizer`] workflow into a
//! long-running daemon: clients submit kernel-optimization requests
//! (kernel + architecture + optional shape/seed/deadline/priority) as
//! length-prefixed JSON over a local TCP socket, a bounded worker pool
//! runs the searches, and a persistent, memory-capped [`ScheduleStore`]
//! answers repeat traffic near-free — across process restarts, because the
//! store is disk-backed and in-flight RL training checkpoints through
//! [`cuasmrl::CuAsmRl::with_checkpoint`].
//!
//! Since protocol v2 a connection is persistent and pipelined: a client
//! opens one [`Connection`], submits any number of tagged requests without
//! waiting, and receives each response as it completes — possibly out of
//! order, routed by `request_id`. Admission is a deterministic
//! deadline-aware priority queue ([`AdmissionQueue`], ordered by
//! [`admission_rank`]) instead of FIFO. v1 single-exchange clients keep
//! working unchanged: a bare first frame is served as a one-request
//! session — same path, untagged answer, then the server closes.
//!
//! The crate splits along the service's seams:
//!
//! - [`protocol`] — framing, request/response schemas (tagged and bare),
//!   canonicalization, admission ranking, the error taxonomy
//!   ([`ErrorCode`]).
//! - [`queue`] — the bounded, deterministic priority admission queue.
//! - [`store`] — the versioned, checksummed schedule store: a put is one
//!   fsynced atomic publish (crash-consistent since durability v2).
//! - [`io`] — re-export of the `artifact` crate's injectable [`StoreIo`]
//!   layer and [`CrashPoint`] injection; every file this crate writes is
//!   published through [`artifact::publish_atomic`].
//! - [`mod@fsck`] — the offline verify/repair walk behind `cuasmrld-fsck`.
//! - [`server`] — acceptor, the one frame path (decode, poison, answer or
//!   admit), session demultiplexing, admission control, worker pool,
//!   preemption, panic isolation, graceful drain, telemetry.
//! - [`client`] — the [`Connection`]/[`ClientBuilder`] pipelined client
//!   API, plus the [`Client`] facade that opens one per call, with
//!   deterministic retry.
//! - [`load`] — the deterministic load generator (`cuasmrld-bench`): one
//!   client loop over [`Connection`], pipelined to any depth.
//! - [`fault`] — deterministic, config-gated worker faults (panics and
//!   stalls) for the chaos suite. Store faults have their own injectors:
//!   damaged bytes on disk, and [`CrashPointIo`] at the I/O boundary.
//!
//! `docs/SERVICE.md` is the service book: wire format, schemas, admission
//! semantics, on-disk layout, warm-restart procedure and the operations
//! runbook.
//!
//! ```no_run
//! use cuasmrld::{ClientBuilder, OptimizeRequest, OptimizeResponse, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::new("/tmp/cuasmrld-store")).unwrap();
//! let connection = ClientBuilder::new(server.local_addr()).connect().unwrap();
//! // Pipeline two requests on one connection; each resolves independently.
//! let softmax = connection.submit(&OptimizeRequest::table2("softmax", "ampere")).unwrap();
//! let bmm = connection.submit(&OptimizeRequest::table2("bmm", "ampere")).unwrap();
//! for handle in [bmm, softmax] {
//!     if let OptimizeResponse::Ok(result) = handle.wait().unwrap() {
//!         println!("{}: {:.2}x (from_store: {})", result.kernel, result.report.speedup, result.from_store);
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod fsck;
pub mod load;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod store;

pub use artifact::{io, ArtifactError};
pub use client::{Client, ClientBuilder, Connection, RequestHandle, RetryPolicy};
pub use fault::{FaultKind, FaultPlan, InjectedFault};
pub use fsck::{fsck, EntryVerdict, FsckReport, FSCK_SCHEMA_VERSION, QUARANTINE_DIR};
pub use io::{is_simulated_crash, CrashEffect, CrashPoint, CrashPointIo, IoOp, RealIo, StoreIo};
pub use load::{run_load, LoadReport, LoadSpec};
pub use protocol::{
    admission_rank, check_version, poll_frame, read_frame, write_frame, CanonicalRequest,
    ErrorCode, FrameRead, OptimizeRequest, OptimizeResponse, OptimizeResult, RequestBody,
    RequestDefaults, RequestKey, ServiceError, StatusRequest, StatusResult, TaggedRequest,
    TaggedResponse, MAX_DEADLINE_MS, MAX_FRAME_LEN, NO_DEADLINE_RANK_MS, PRIORITY_BIAS_MS,
    PROTOCOL_V1, PROTOCOL_VERSION, UNATTRIBUTED_REQUEST_ID,
};
pub use queue::{AdmissionQueue, PushError};
pub use server::{Server, ServerConfig, ServiceStats, SERVICE_SUITE_LABEL};
pub use store::{
    decode_entry_bytes, ScheduleStore, StoreEntry, StoreStats, JOURNAL_FILE, STORE_SCHEMA_VERSION,
};
