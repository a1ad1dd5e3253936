//! The `cuasmrld` client API: one transport, the persistent pipelined
//! [`Connection`].
//!
//! [`ClientBuilder`] → [`Connection`] → [`Connection::submit`] →
//! [`RequestHandle::wait`]: one TCP connection carries any number of
//! exchanges, multiple requests may be in flight at once, and a background
//! reader demultiplexes the tagged responses back to their handles — so a
//! slow request never blocks a fast one, and submission order never
//! constrains completion order.
//!
//! The [`Client`] facade is that transport used once: every typed call
//! ([`Client::request`], [`Client::status`]) opens a [`Connection`], makes
//! one exchange on it and drops it. [`Client::request_with_retry`] layers
//! bounded, deterministic backoff over transient failures (`Busy`,
//! `Internal`, connection errors) — the retry schedule is a pure function
//! of the [`RetryPolicy`], so chaos tests can assert exactly how a healed
//! request behaves. The one thing that does not ride a [`Connection`] is
//! the byte-level compatibility surface,
//! [`Client::request_raw`]/[`Client::request_bytes`]: a bare (untagged)
//! frame out, the raw response frame back, which is how the determinism
//! and v1-compatibility tests see exactly what a v1 client binary sees.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::protocol::{
    configure_stream, poll_frame, read_frame, write_frame, FrameRead, OptimizeRequest,
    OptimizeResponse, RequestBody, StatusRequest, StatusResult, TaggedRequest, TaggedResponse,
};
use crate::ErrorCode;

/// How often the connection's reader thread wakes from an idle socket to
/// check whether the connection is being torn down.
const READER_IDLE_POLL: Duration = Duration::from_millis(50);

/// A deterministic bounded-backoff retry schedule: attempt `n` (0-based)
/// sleeps `min(base_delay << n, max_delay)` before retrying. No jitter —
/// determinism is the point; the daemon's admission queue, not randomness,
/// spreads load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// Four attempts backing off 20 ms → 40 ms → 80 ms (capped at 500 ms) —
    /// enough to ride out a worker respawn or a queue-full burst without
    /// stretching test wall-clock.
    #[must_use]
    pub fn quick() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(500),
        }
    }

    /// The backoff slept after a failed attempt `n` (0-based):
    /// `min(base_delay * 2^n, max_delay)`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_delay
            .checked_mul(factor)
            .map_or(self.max_delay, |delay| delay.min(self.max_delay))
    }
}

/// Configures and opens a [`Connection`] to a daemon.
#[derive(Debug, Clone, Copy)]
pub struct ClientBuilder {
    addr: SocketAddr,
    timeout: Duration,
}

impl ClientBuilder {
    /// A builder for the daemon at `addr` with a 60-second default
    /// connect/write/wait timeout.
    #[must_use]
    pub fn new(addr: SocketAddr) -> ClientBuilder {
        ClientBuilder {
            addr,
            timeout: Duration::from_secs(60),
        }
    }

    /// Overrides the connect/write timeout and the default
    /// [`RequestHandle::wait`] timeout.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.timeout = timeout;
        self
    }

    /// Opens a persistent session and spawns its response reader.
    ///
    /// # Errors
    ///
    /// Returns an IO error when the TCP connection cannot be established.
    pub fn connect(&self) -> io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        configure_stream(&stream)?;
        stream.set_write_timeout(Some(self.timeout))?;
        let reader_stream = stream.try_clone()?;
        let inner = Arc::new(ConnInner {
            writer: Mutex::new(stream.try_clone()?),
            pending: Mutex::new(HashMap::new()),
            closing: AtomicBool::new(false),
        });
        let reader = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || reader_loop(reader_stream, &inner))
        };
        Ok(Connection {
            inner,
            stream,
            reader: Some(reader),
            next_id: AtomicU64::new(1),
            addr: self.addr,
            timeout: self.timeout,
        })
    }
}

/// Shared state between a [`Connection`] and its reader thread.
struct ConnInner {
    writer: Mutex<TcpStream>,
    /// In-flight requests by `request_id`; the reader moves each tagged
    /// response to its channel and drops the entry. Dropped senders (on
    /// teardown) surface as `ConnectionAborted` at the handle.
    pending: Mutex<HashMap<u64, mpsc::Sender<OptimizeResponse>>>,
    /// Set by [`Connection`]'s drop so the reader exits its idle poll.
    closing: AtomicBool,
}

impl ConnInner {
    fn lock_pending(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<u64, mpsc::Sender<OptimizeResponse>>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The reader half of a session: demultiplex tagged response frames to
/// their waiting handles until the server closes, framing breaks, or the
/// connection is dropped. On exit every still-pending sender is dropped,
/// which wakes every waiting [`RequestHandle`] with `ConnectionAborted`.
fn reader_loop(mut stream: TcpStream, inner: &ConnInner) {
    loop {
        if inner.closing.load(Ordering::SeqCst) {
            break;
        }
        match poll_frame(&mut stream, READER_IDLE_POLL, Duration::from_secs(10)) {
            Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Closed) | Err(_) => break,
            Ok(FrameRead::Frame(payload)) => {
                let Ok(tagged) = std::str::from_utf8(&payload)
                    .map_err(|_| ())
                    .and_then(|text| serde_json::from_str::<TaggedResponse>(text).map_err(|_| ()))
                else {
                    // An unparsable response frame is a protocol violation
                    // by the server; the session is unusable.
                    break;
                };
                if let Some(sender) = inner.lock_pending().remove(&tagged.request_id) {
                    let _ = sender.send(tagged.response);
                }
                // A response for an id nobody waits on (e.g. an
                // unattributed server error the caller didn't register
                // interest in) is dropped — ids are the only routing.
            }
        }
    }
    inner.lock_pending().clear();
}

/// A persistent, pipelined connection to a daemon. Submit
/// any number of requests without waiting; each returns a
/// [`RequestHandle`] that resolves independently, in whatever order the
/// server answers. All methods take `&self`, so one `Connection` can be
/// shared across threads.
///
/// Dropping the connection closes the socket and joins the reader;
/// handles still waiting resolve with `ConnectionAborted`.
pub struct Connection {
    inner: Arc<ConnInner>,
    stream: TcpStream,
    reader: Option<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
    addr: SocketAddr,
    timeout: Duration,
}

impl Connection {
    /// The daemon address this connection talks to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers interest in `request_id` without sending anything: the
    /// handle resolves when (if) the server sends a response tagged with
    /// that id. This is how a caller of [`Connection::send_raw`] observes
    /// the server's reaction — including errors tagged
    /// [`crate::protocol::UNATTRIBUTED_REQUEST_ID`] (0) for frames whose
    /// id could not be salvaged.
    #[must_use]
    pub fn expect(&self, request_id: u64) -> RequestHandle {
        let (sender, receiver) = mpsc::channel();
        self.inner.lock_pending().insert(request_id, sender);
        RequestHandle {
            request_id,
            receiver,
            timeout: self.timeout,
        }
    }

    /// Writes one raw frame on the session — the byte-level surface the
    /// malformed-frame tests push damaged payloads through. Pair with
    /// [`Connection::expect`] to observe the response.
    ///
    /// # Errors
    ///
    /// Returns an IO error when the write fails.
    pub fn send_raw(&self, payload: &[u8]) -> io::Result<()> {
        let mut writer = self
            .inner
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        write_frame(&mut *writer, payload)
    }

    fn submit_body(&self, body: RequestBody) -> io::Result<RequestHandle> {
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let handle = self.expect(request_id);
        let tagged = TaggedRequest { request_id, body };
        let payload = serde_json::to_string(&tagged)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        if let Err(err) = self.send_raw(payload.as_bytes()) {
            // Nothing reached the wire; nothing will answer this id.
            self.inner.lock_pending().remove(&request_id);
            return Err(err);
        }
        Ok(handle)
    }

    /// Submits a request without waiting. Ids are assigned sequentially
    /// starting at 1 (0 is reserved for unattributable server errors).
    ///
    /// # Errors
    ///
    /// Returns an IO error when the request cannot be encoded or written;
    /// server-side rejections arrive as typed responses on the handle.
    pub fn submit(&self, request: &OptimizeRequest) -> io::Result<RequestHandle> {
        self.submit_body(RequestBody::Optimize(request.clone()))
    }

    /// Submits a status probe without waiting.
    ///
    /// # Errors
    ///
    /// Returns an IO error when the probe cannot be written.
    pub fn submit_status(&self) -> io::Result<RequestHandle> {
        self.submit_body(RequestBody::Status(StatusRequest::new()))
    }

    /// Submits a request and waits for its answer — the one-shot
    /// convenience over [`Connection::submit`].
    ///
    /// # Errors
    ///
    /// Returns an IO error when the exchange fails at the transport level
    /// or times out.
    pub fn request(&self, request: &OptimizeRequest) -> io::Result<OptimizeResponse> {
        self.submit(request)?.wait()
    }

    /// Asks the daemon for its live counters over this session.
    ///
    /// # Errors
    ///
    /// Returns an IO error when the exchange fails or the daemon answers
    /// with a typed error.
    pub fn status(&self) -> io::Result<StatusResult> {
        match self.submit_status()?.wait()? {
            OptimizeResponse::Status(status) => Ok(status),
            OptimizeResponse::Ok(_) => Err(io::Error::other(
                "daemon answered a status probe with an optimize result".to_string(),
            )),
            OptimizeResponse::Err(error) => Err(io::Error::other(error.to_string())),
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.inner.closing.store(true, Ordering::SeqCst);
        // Wake the reader out of a blocking read; ignore failure (the
        // socket may already be gone, which wakes the reader just as well).
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One in-flight request on a [`Connection`]. Resolves independently of
/// every other handle — waiting on a later submission first is fine.
pub struct RequestHandle {
    request_id: u64,
    receiver: mpsc::Receiver<OptimizeResponse>,
    timeout: Duration,
}

impl RequestHandle {
    /// The `request_id` this handle is waiting on.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.request_id
    }

    /// Waits for the response under the connection's default timeout.
    ///
    /// # Errors
    ///
    /// `TimedOut` when no response arrived in time, `ConnectionAborted`
    /// when the connection closed first.
    pub fn wait(self) -> io::Result<OptimizeResponse> {
        let timeout = self.timeout;
        self.wait_timeout(timeout)
    }

    /// Waits for the response under an explicit timeout.
    ///
    /// # Errors
    ///
    /// `TimedOut` when no response arrived in time, `ConnectionAborted`
    /// when the connection closed first.
    pub fn wait_timeout(self, timeout: Duration) -> io::Result<OptimizeResponse> {
        match self.receiver.recv_timeout(timeout) {
            Ok(response) => Ok(response),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "no response for request_id {} within {timeout:?}",
                    self.request_id
                ),
            )),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!(
                    "connection closed before request_id {} was answered",
                    self.request_id
                ),
            )),
        }
    }
}

/// The one-shot facade over the protocol, bound to one daemon address.
/// Typed calls ([`Client::request`], [`Client::status`]) open a
/// short-lived [`Connection`] per call; the raw byte surfaces
/// ([`Client::request_raw`], [`Client::request_bytes`]) send a bare frame,
/// which the daemon serves as a one-request session. Cheap to copy and
/// share across threads.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
}

impl Client {
    /// A client for the daemon at `addr` with a 60-second per-request
    /// timeout.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            timeout: Duration::from_secs(60),
        }
    }

    /// Overrides the connect/read/write timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// The daemon address this client talks to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A [`ClientBuilder`] for this address and timeout — the path from
    /// the facade to a persistent pipelined [`Connection`].
    #[must_use]
    pub fn builder(&self) -> ClientBuilder {
        ClientBuilder::new(self.addr).timeout(self.timeout)
    }

    /// Sends raw payload bytes as one bare (untagged) frame and returns the
    /// raw response frame. This is the byte-level surface: the determinism
    /// and v1-compatibility tests compare these bytes directly, and the
    /// rejection tests push malformed payloads through it. The server
    /// closes the connection after the one exchange.
    ///
    /// # Errors
    ///
    /// Returns an IO error when the connection, write or read fails.
    pub fn request_raw(&self, payload: &[u8]) -> io::Result<Vec<u8>> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        configure_stream(&stream)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        write_frame(&mut stream, payload)?;
        read_frame(&mut stream)
    }

    /// Sends a request as one bare frame and returns the raw response
    /// frame (already-typed requests, byte-level responses — what the
    /// repeat-traffic byte-identity proof uses).
    ///
    /// # Errors
    ///
    /// Returns an IO error when the exchange fails or the request cannot
    /// be encoded.
    pub fn request_bytes(&self, request: &OptimizeRequest) -> io::Result<Vec<u8>> {
        let payload = serde_json::to_string(request)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        self.request_raw(payload.as_bytes())
    }

    /// Sends a request over a short-lived [`Connection`] and returns the
    /// typed response.
    ///
    /// # Errors
    ///
    /// Returns an IO error when the exchange fails.
    pub fn request(&self, request: &OptimizeRequest) -> io::Result<OptimizeResponse> {
        self.builder().connect()?.request(request)
    }

    /// Sends a request, retrying transient failures — connection/IO errors,
    /// `Busy` and `Internal` answers — under the policy's deterministic
    /// bounded backoff. Definitive answers (`Ok`, `BadRequest`,
    /// `UnsupportedVersion`, `DeadlineExceeded`) return immediately:
    /// retrying them would change semantics, not heal anything.
    ///
    /// A transport error is retried even when the request may already have
    /// reached the daemon (a write that failed part-way, a reset while
    /// waiting). That is safe *for this protocol specifically* because
    /// every request is idempotent: an optimize request canonicalizes to a
    /// deterministic [`crate::RequestKey`], so a re-ask either hits the
    /// store entry the lost first attempt produced (`from_store: true`,
    /// byte-identical report) or — the daemon keeps no in-flight dedup, so
    /// the lost attempt may still be running — runs its own search, which
    /// recomputes the same report bytes; status probes are pure reads. A
    /// client built on this API for a non-idempotent service must not
    /// retry a failure that happened after the request was written.
    ///
    /// # Errors
    ///
    /// Returns the last IO error when every attempt failed at the transport
    /// level. A final `Busy`/`Internal` answer after exhausting the
    /// attempts is returned as that typed response, not an error.
    pub fn request_with_retry(
        &self,
        request: &OptimizeRequest,
        policy: &RetryPolicy,
    ) -> io::Result<OptimizeResponse> {
        let attempts = policy.attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            match self.request(request) {
                Ok(OptimizeResponse::Err(error))
                    if matches!(error.code, ErrorCode::Busy | ErrorCode::Internal)
                        && attempt + 1 < attempts =>
                {
                    last = Some(Ok(OptimizeResponse::Err(error)));
                }
                Ok(response) => return Ok(response),
                Err(err) => {
                    // Safe to retry: see the idempotency note in the
                    // method docs.
                    if attempt + 1 == attempts {
                        return Err(err);
                    }
                    last = Some(Err(err));
                }
            }
            std::thread::sleep(policy.backoff(attempt));
        }
        last.unwrap_or_else(|| {
            Err(io::Error::other(
                "retry policy allowed zero attempts".to_string(),
            ))
        })
    }

    /// Asks the daemon for its live counters (see [`StatusRequest`]) over a
    /// short-lived [`Connection`]. Status probes are answered at admission,
    /// so this works even when the daemon is saturated or draining.
    ///
    /// # Errors
    ///
    /// Returns an IO error when the exchange fails or the daemon answers
    /// with a typed error.
    pub fn status(&self) -> io::Result<StatusResult> {
        self.builder().connect()?.status()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(20));
        assert_eq!(policy.backoff(1), Duration::from_millis(40));
        assert_eq!(policy.backoff(2), Duration::from_millis(80));
        assert_eq!(policy.backoff(3), Duration::from_millis(100));
        assert_eq!(policy.backoff(31), Duration::from_millis(100));
        assert_eq!(policy.backoff(32), Duration::from_millis(100));
    }
}
