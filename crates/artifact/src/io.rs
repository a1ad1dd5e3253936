//! The injectable I/O layer and deterministic crash-point injection.
//!
//! Every byte an artifact family publishes goes through a [`StoreIo`]
//! implementation: [`RealIo`] (fsynced) under the schedule store's
//! entries, [`UnsyncedIo`] under every rebuildable family, and
//! [`CrashPointIo`] in the durability suites. `CrashPointIo` is the one
//! injector at the I/O boundary (the daemon's `cuasmrld::FaultPlan` plans
//! only worker faults): every I/O operation is numbered in program order,
//! and a [`CrashPoint`] kills the process model at exactly one ordinal —
//! before the operation, after it, or (for writes) mid-way through, leaving
//! a torn prefix on disk. After the crash fires every further operation
//! fails, exactly as a killed process performs no further I/O.
//!
//! The same wrapper doubles as a recorder: run a store cycle against
//! [`CrashPointIo::recording`] and [`CrashPointIo::ops`] returns the full
//! numbered operation log, which is how the crash-point *sweep* tests
//! enumerate every boundary without hard-coding an I/O sequence.
//!
//! Durability note: under [`RealIo`] `fsync` is folded into
//! [`StoreIo::write`] and [`StoreIo::append`] — each returns only once the
//! bytes are synced, so "written but not yet synced, then power loss" is
//! modelled by the [`CrashEffect::Torn`] outcome of the same ordinal rather
//! than by a separate sync boundary. Likewise [`StoreIo::rename`] syncs
//! the parent directory before it returns, so a completed rename is the
//! one boundary after which a publish survives power loss.

use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The error a [`CrashPointIo`] kill carries inside its `io::Error`;
/// private, so no other error can pass for one.
#[derive(Debug)]
struct SimulatedCrash;

impl fmt::Display for SimulatedCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("simulated crash")
    }
}

impl std::error::Error for SimulatedCrash {}

/// True when an I/O error came from a [`CrashPointIo`] kill rather than a
/// real filesystem failure — recognised by the error's type, never by its
/// message.
#[must_use]
pub fn is_simulated_crash(err: &io::Error) -> bool {
    err.get_ref()
        .is_some_and(|inner| inner.is::<SimulatedCrash>())
}

/// The filesystem operations the durable store performs, as an injectable
/// trait so tests can kill the store at every I/O boundary.
///
/// Under [`RealIo`] `write` and `append` are *durable*: they return only
/// after the data is flushed (`File::sync_all`), and `rename` only after
/// the parent directory is; [`UnsyncedIo`] skips the flushes. `rename` is
/// the atomic publish primitive (same-directory rename, POSIX-atomic).
pub trait StoreIo: Send + Sync {
    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error (including
    /// `NotFound`).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates/truncates `path` and writes `bytes` ([`RealIo`]: fsyncing
    /// before returning).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Appends `bytes` to `path`, creating it if absent ([`RealIo`]:
    /// fsyncing before returning). No artifact family appends today; the
    /// operation stays for the crash-injection suites and the benchmark's
    /// fsync probe.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` over `to`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error (including
    /// `NotFound` — callers that tolerate absence filter it).
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The durable [`StoreIo`]: `std::fs` with fsync on every write path —
/// what the schedule store's entries publish through.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)?;
        // Durability flush: the rename lives in the parent directory, so
        // until the directory is synced a power loss can undo a publish
        // the caller has already acknowledged.
        let parent = to.parent().filter(|dir| !dir.as_os_str().is_empty());
        std::fs::File::open(parent.unwrap_or(Path::new(".")))?.sync_all()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// [`RealIo`]'s calls without the `sync_all`: what every family that a
/// later run rebuilds on damage (checkpoints, manifests, deploy-cache and
/// suite reports, the daemon's address file) publishes through. fsck
/// writes through neither: its repair only moves damage aside. Syncing one
/// of them is a measured, per-family decision made by naming [`RealIo`] at
/// its call site.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnsyncedIo;

impl StoreIo for UnsyncedIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?
            .write_all(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// When, relative to its target operation, a [`CrashPoint`] kills the
/// store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashEffect {
    /// The operation never happens: the kill lands just before the
    /// syscall.
    Before,
    /// The operation is half-applied: a `write`/`append` persists only a
    /// prefix of its bytes (a torn write). For operations with no partial
    /// state (`read`, `rename`, `remove`) this degenerates to
    /// [`CrashEffect::Before`].
    Torn,
    /// The operation completes fully, then the kill lands.
    After,
}

impl fmt::Display for CrashEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CrashEffect::Before => "before",
            CrashEffect::Torn => "torn",
            CrashEffect::After => "after",
        };
        f.write_str(name)
    }
}

/// One deterministic kill: the `ordinal`-th I/O operation (0-based, in
/// program order) dies with the given [`CrashEffect`].
#[derive(Debug, Clone, Copy)]
pub struct CrashPoint {
    /// Which operation (0-based count of all [`StoreIo`] calls) to kill.
    pub ordinal: u64,
    /// How much of that operation survives.
    pub effect: CrashEffect,
}

/// One recorded I/O operation, for sweep-test enumeration.
#[derive(Debug, Clone)]
pub struct IoOp {
    /// 0-based program-order position.
    pub ordinal: u64,
    /// Operation kind: `read` / `write` / `append` / `rename` / `remove`.
    pub kind: &'static str,
    /// Target file name (final component; paths are store-relative by
    /// construction).
    pub file: String,
}

/// A [`StoreIo`] that records every operation and optionally kills the
/// store at one deterministic [`CrashPoint`]. After the crash fires, every
/// subsequent operation fails with a simulated crash (see
/// [`is_simulated_crash`]) — a dead process does no more I/O.
pub struct CrashPointIo {
    inner: RealIo,
    point: Option<CrashPoint>,
    next_ordinal: AtomicU64,
    crashed: AtomicBool,
    log: Mutex<Vec<IoOp>>,
}

impl CrashPointIo {
    /// A recorder: never crashes, logs every operation.
    #[must_use]
    pub fn recording() -> CrashPointIo {
        CrashPointIo {
            inner: RealIo,
            point: None,
            next_ordinal: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            log: Mutex::new(Vec::new()),
        }
    }

    /// An injector that kills the store at `point`.
    #[must_use]
    pub fn crash_at(point: CrashPoint) -> CrashPointIo {
        CrashPointIo {
            point: Some(point),
            ..CrashPointIo::recording()
        }
    }

    /// The numbered operation log so far.
    #[must_use]
    pub fn ops(&self) -> Vec<IoOp> {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Whether the configured crash point has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    fn crash_error(&self) -> io::Error {
        io::Error::other(SimulatedCrash)
    }

    /// Numbers (and logs) one operation; returns its effect, or an error
    /// when the store is already dead.
    fn admit(&self, kind: &'static str, path: &Path) -> io::Result<Option<CrashEffect>> {
        if self.crashed() {
            return Err(self.crash_error());
        }
        let ordinal = self.next_ordinal.fetch_add(1, Ordering::SeqCst);
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(IoOp {
                ordinal,
                kind,
                file,
            });
        match self.point {
            Some(point) if point.ordinal == ordinal => {
                self.crashed.store(true, Ordering::SeqCst);
                Ok(Some(point.effect))
            }
            _ => Ok(None),
        }
    }

    /// A `write` or `append` of `bytes` under the crash point: a torn kill
    /// puts only the first half of them.
    fn put(
        &self,
        kind: &'static str,
        path: &Path,
        bytes: &[u8],
        put: impl Fn(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        match self.admit(kind, path)? {
            None => put(bytes),
            Some(CrashEffect::Before) => Err(self.crash_error()),
            Some(CrashEffect::Torn) => put(&bytes[..bytes.len() / 2]).and(Err(self.crash_error())),
            Some(CrashEffect::After) => put(bytes).and(Err(self.crash_error())),
        }
    }
}

impl StoreIo for CrashPointIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.admit("read", path)? {
            // Reads mutate nothing: any kill at a read boundary is the
            // same as killing before it.
            Some(_) => Err(self.crash_error()),
            None => self.inner.read(path),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.put("write", path, bytes, |bytes| self.inner.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.put("append", path, bytes, |bytes| {
            self.inner.append(path, bytes)
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.admit("rename", to)? {
            Some(CrashEffect::Before | CrashEffect::Torn) => Err(self.crash_error()),
            Some(CrashEffect::After) => {
                self.inner.rename(from, to)?;
                Err(self.crash_error())
            }
            None => self.inner.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.admit("remove", path)? {
            Some(CrashEffect::Before | CrashEffect::Torn) => Err(self.crash_error()),
            Some(CrashEffect::After) => {
                self.inner.remove(path)?;
                Err(self.crash_error())
            }
            None => self.inner.remove(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_file(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "artifact-io-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn recording_numbers_every_operation_in_program_order() {
        let path = temp_file("record");
        let io = CrashPointIo::recording();
        io.write(&path, b"abc").unwrap();
        io.append(&path, b"def").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"abcdef");
        io.remove(&path).unwrap();
        let ops = io.ops();
        assert_eq!(
            ops.iter().map(|o| o.kind).collect::<Vec<_>>(),
            vec!["write", "append", "read", "remove"]
        );
        assert_eq!(
            ops.iter().map(|o| o.ordinal).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(!io.crashed());
    }

    #[test]
    fn a_crash_point_kills_that_operation_and_everything_after() {
        let path = temp_file("kill");
        let _ = std::fs::remove_file(&path);
        // Ordinal 1 (the append) dies before doing anything.
        let io = CrashPointIo::crash_at(CrashPoint {
            ordinal: 1,
            effect: CrashEffect::Before,
        });
        io.write(&path, b"abc").unwrap();
        let err = io.append(&path, b"def").unwrap_err();
        assert!(is_simulated_crash(&err));
        assert!(io.crashed());
        // The dead store does no further I/O.
        assert!(is_simulated_crash(&io.read(&path).unwrap_err()));
        // The file holds exactly the pre-crash state.
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_real_error_that_says_simulated_crash_is_not_one() {
        // The mark is the error's type, not its message.
        assert!(!is_simulated_crash(&io::Error::other(
            "disk says: simulated crash"
        )));
    }

    #[test]
    fn torn_writes_leave_a_prefix_and_full_after_effects_apply() {
        let path = temp_file("torn");
        let _ = std::fs::remove_file(&path);
        let io = CrashPointIo::crash_at(CrashPoint {
            ordinal: 0,
            effect: CrashEffect::Torn,
        });
        assert!(is_simulated_crash(&io.write(&path, b"abcdef").unwrap_err()));
        assert_eq!(std::fs::read(&path).unwrap(), b"abc", "half survived");

        let io = CrashPointIo::crash_at(CrashPoint {
            ordinal: 0,
            effect: CrashEffect::After,
        });
        assert!(is_simulated_crash(&io.write(&path, b"xyz").unwrap_err()));
        assert_eq!(std::fs::read(&path).unwrap(), b"xyz", "fully applied");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rename_is_all_or_nothing_under_torn() {
        let from = temp_file("ren-from");
        let to = temp_file("ren-to");
        let _ = std::fs::remove_file(&to);
        std::fs::write(&from, b"payload").unwrap();
        // Torn degenerates to Before for rename: the publish either
        // happened or it did not.
        let io = CrashPointIo::crash_at(CrashPoint {
            ordinal: 0,
            effect: CrashEffect::Torn,
        });
        assert!(is_simulated_crash(&io.rename(&from, &to).unwrap_err()));
        assert!(from.exists() && !to.exists());
        let _ = std::fs::remove_file(&from);
    }
}
