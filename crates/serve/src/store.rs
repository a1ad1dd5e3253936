//! The persistent, memory-capped, crash-consistent schedule store behind
//! `cuasmrld`.
//!
//! One JSON file per served request, named by the request's
//! [`RequestKey::file_stem`] (see `docs/SERVICE.md` for the on-disk
//! layout). The store's one mutation, [`ScheduleStore::put`], is one
//! atomic publish through the injectable [`StoreIo`] layer: the entry is
//! written to a staging file and fsynced, renamed over its name, and the
//! directory is synced. Every entry carries a content checksum verified on
//! every read path. The resulting guarantee — proven by the crash-point
//! sweep in `tests/durability.rs` — is that a kill at *any* I/O boundary
//! leaves a store that reopens to either the pre-write or the post-write
//! bytes of the interrupted write, never a third state. A put killed
//! before its rename was never acknowledged (the daemon answers only after
//! `put` returns), and every answer is a deterministic function of its
//! canonical request, so losing it costs one recompute, never a wrong
//! answer.
//!
//! Every entry carries [`STORE_SCHEMA_VERSION`]; decoding is a
//! typed-error path ([`ArtifactError`], shared with every other artifact
//! family): a torn or corrupt file, checksum mismatch, version skew and an
//! entry that answers another request than its file names surface to the
//! caller, never as a panic. The daemon heals them all the same way —
//! treat as a miss, recompute, overwrite — counting checksum mismatches in
//! [`StoreStats::checksum_failures`].
//!
//! In memory the store keeps at most `capacity` decoded entries in an LRU
//! map; colder entries stay on disk and are decoded back in on demand.
//! The disk set is the source of truth — a daemon restart reloads it,
//! which is what makes repeat traffic near-free across restarts.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use artifact::{
    decode_json, fnv1a64_hex, is_temp_debris, publish_atomic, ArtifactError, RealIo, StoreIo,
};
use cuasmrl::OptimizationReport;
use serde::{Deserialize, Serialize};

use crate::protocol::{file_stem_of, RequestKey};

/// Version of the store's on-disk entry schema. Bumped on any field-level
/// change; entries with another version decode to
/// [`ArtifactError::UnsupportedVersion`]. v2 added the `generation` stamp
/// (retired since, see [`StoreEntry::generation`]) and the `checksum`
/// trailer field.
pub const STORE_SCHEMA_VERSION: u32 = 2;

/// File name of the write-ahead journal earlier builds kept in a store
/// directory. Retired: the only records it held that the entry files did
/// not were puts never acknowledged, so [`ScheduleStore::open`] removes a
/// leftover one as crash debris and `cuasmrld-fsck` calls it `orphaned`.
pub const JOURNAL_FILE: &str = "journal.wal";

/// One persisted schedule: the canonical request it answers plus the
/// optimization report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreEntry {
    /// [`STORE_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// The canonical request tuple this entry answers (digest preimage).
    pub canonical: String,
    /// Canonical architecture name.
    pub arch: String,
    /// Canonical kernel name.
    pub kernel: String,
    /// Base search seed.
    pub seed: u64,
    /// Retired: the journal generation earlier builds stamped at write
    /// time. Never stamped now, and outside the checksum, so entries those
    /// builds wrote still decode and verify.
    #[serde(default)]
    pub generation: u64,
    /// FNV-1a-64 (hex) over the entry's content fields — see
    /// [`StoreEntry::content_checksum`]. Verified on every read path;
    /// a mismatch decodes to [`ArtifactError::ChecksumMismatch`].
    #[serde(default)]
    pub checksum: String,
    /// The report, bit-identical to the search that produced it.
    pub report: OptimizationReport,
}

impl StoreEntry {
    /// The checksum of the entry's content fields (everything except the
    /// checksum itself and the retired `generation` stamp), as 16 hex
    /// digits of FNV-1a-64.
    #[must_use]
    pub fn content_checksum(&self) -> String {
        let report = serde_json::to_string(&self.report).unwrap_or_default();
        let preimage = format!(
            "v{};canonical={};arch={};kernel={};seed={};report={report}",
            self.schema_version, self.canonical, self.arch, self.kernel, self.seed
        );
        fnv1a64_hex(preimage.as_bytes())
    }

    /// Stamps the entry with its own content checksum. Every entry the
    /// daemon persists is sealed; an unsealed entry fails every read with
    /// [`ArtifactError::ChecksumMismatch`].
    #[must_use]
    pub fn seal(mut self) -> StoreEntry {
        self.checksum = self.content_checksum();
        self
    }

    /// The file stem of the request this entry answers — the
    /// [`RequestKey::file_stem`] of its `arch`, `kernel` and `canonical`.
    #[must_use]
    pub fn file_stem(&self) -> String {
        file_stem_of(
            &self.arch,
            &self.kernel,
            &fnv1a64_hex(self.canonical.as_bytes()),
        )
    }
}

/// Counters of the store's effectiveness, for telemetry and the load
/// generator's cache-hit economics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Lookups answered (from memory or disk).
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Hits that had to decode the entry back in from disk.
    pub disk_hits: u64,
    /// Entries currently decoded in memory.
    pub entries_in_memory: usize,
    /// Entry files skipped when the store was opened: undecodable, or
    /// answering another request than their file names.
    pub skipped_at_open: usize,
    /// Crash debris swept when the store was opened: orphaned temp files
    /// from a kill mid-write, and a retired [`JOURNAL_FILE`].
    pub tmp_swept: usize,
    /// Serialized bytes of the entries currently held in the in-memory LRU
    /// map — with `entries_in_memory`, the memory-pressure gauge a status
    /// probe surfaces. Added in v2 (additive, `#[serde(default)]`): stats
    /// from a v1 daemon decode as 0.
    #[serde(default)]
    pub lru_bytes: u64,
    /// Entries whose content failed its recorded checksum on a read path
    /// (get or open). Each is healed by recompute; a spike means the disk
    /// is silently corrupting data — see the SERVICE.md runbook. Additive
    /// since durability v2.
    #[serde(default)]
    pub checksum_failures: u64,
    /// Retired: journal records an earlier build replayed at open. Always
    /// 0 now that the store keeps no journal.
    #[serde(default)]
    pub journal_replayed: u64,
}

struct Inner {
    entries: HashMap<String, StoreEntry>,
    recency: VecDeque<String>,
    /// Serialized size of each in-memory entry, kept in lockstep with
    /// `entries` so `stats.lru_bytes` is always the exact LRU footprint.
    sizes: HashMap<String, u64>,
    stats: StoreStats,
}

impl Inner {
    fn touch(&mut self, stem: &str) {
        if let Some(position) = self.recency.iter().position(|s| s == stem) {
            self.recency.remove(position);
        }
        self.recency.push_back(stem.to_string());
    }

    /// Inserts into the LRU map, keeping `lru_bytes` incremental and
    /// underflow-proof: replacing an entry (e.g. a heal-by-recompute of a
    /// corrupt one with a different serialized size) releases the *old*
    /// size, and every release saturates — a healed-then-evicted entry can
    /// never drive the gauge below zero.
    fn insert(&mut self, stem: &str, entry: StoreEntry, capacity: usize) {
        let size = serde_json::to_string(&entry).map_or(0, |text| text.len() as u64);
        if let Some(old) = self.sizes.insert(stem.to_string(), size) {
            self.stats.lru_bytes = self.stats.lru_bytes.saturating_sub(old);
        }
        self.stats.lru_bytes += size;
        self.entries.insert(stem.to_string(), entry);
        self.touch(stem);
        while self.entries.len() > capacity.max(1) {
            let Some(coldest) = self.recency.pop_front() else {
                break;
            };
            self.entries.remove(&coldest);
            if let Some(old) = self.sizes.remove(&coldest) {
                self.stats.lru_bytes = self.stats.lru_bytes.saturating_sub(old);
            }
        }
        self.stats.entries_in_memory = self.entries.len();
    }
}

/// The disk-backed, memory-capped schedule store (see the module docs).
pub struct ScheduleStore {
    dir: PathBuf,
    capacity: usize,
    io: Arc<dyn StoreIo>,
    inner: Mutex<Inner>,
}

impl ScheduleStore {
    /// Locks the inner state, recovering from poison: every mutation under
    /// this mutex is a single complete insert/touch, so state is consistent
    /// even if a panicking thread held the lock — a poisoned store must not
    /// take the daemon's worker pool down with it.
    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens (creating if needed) the store rooted at `dir` with the
    /// production filesystem I/O. See [`ScheduleStore::open_with_io`].
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] when the directory cannot be created
    /// or listed.
    pub fn open(dir: impl Into<PathBuf>, capacity: usize) -> Result<ScheduleStore, ArtifactError> {
        Self::open_with_io(dir, capacity, Arc::new(RealIo))
    }

    /// Opens the store through an injectable [`StoreIo`] — the durability
    /// suite passes a [`crate::CrashPointIo`] here to kill the store at
    /// every I/O boundary.
    ///
    /// Open sweeps crash debris ([`is_store_debris`], counted in
    /// [`StoreStats::tmp_swept`]) and loads entries. Entry files that fail
    /// to decode, or answer another request than their file names, are
    /// skipped and counted in [`StoreStats::skipped_at_open`] (checksum
    /// mismatches additionally in [`StoreStats::checksum_failures`]) — one
    /// damaged file never takes the store down; the entry is recomputed
    /// and overwritten on next demand.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] when the directory cannot be created
    /// or listed.
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        capacity: usize,
        io: Arc<dyn StoreIo>,
    ) -> Result<ScheduleStore, ArtifactError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut inner = Inner {
            entries: HashMap::new(),
            recency: VecDeque::new(),
            sizes: HashMap::new(),
            stats: StoreStats::default(),
        };
        for name in list_dir(&dir)? {
            if is_store_debris(&name) && io.remove(&dir.join(&name)).is_ok() {
                inner.stats.tmp_swept += 1;
            }
        }

        // Reload the durable set into the LRU map, up to capacity.
        let mut names: Vec<String> = list_dir(&dir)?
            .into_iter()
            .filter(|name| is_entry_file(name))
            .collect();
        names.sort();
        for name in names {
            if inner.entries.len() >= capacity.max(1) {
                break;
            }
            let path = dir.join(&name);
            match io
                .read(&path)
                .map_err(ArtifactError::Io)
                .and_then(|bytes| decode_entry_file(&path, &bytes))
            {
                Ok(entry) => inner.insert(name.trim_end_matches(".json"), entry, capacity),
                Err(err) => {
                    if matches!(err, ArtifactError::ChecksumMismatch { .. }) {
                        inner.stats.checksum_failures += 1;
                    }
                    inner.stats.skipped_at_open += 1;
                }
            }
        }
        inner.stats.entries_in_memory = inner.entries.len();
        Ok(ScheduleStore {
            dir,
            capacity,
            io,
            inner: Mutex::new(inner),
        })
    }

    /// Decodes one entry file with the full typed-error path, including
    /// the check that the entry answers the request its file names.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the file cannot be read,
    /// [`ArtifactError::Torn`] when it ends before the entry does,
    /// [`ArtifactError::Corrupt`] when it is not a valid entry or answers
    /// another request than its file name,
    /// [`ArtifactError::UnsupportedVersion`] on schema-version skew,
    /// [`ArtifactError::ChecksumMismatch`] when the content does not match
    /// its recorded checksum.
    pub fn decode_entry(path: &Path) -> Result<StoreEntry, ArtifactError> {
        let bytes = std::fs::read(path)?;
        decode_entry_file(path, &bytes)
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a key's entry file.
    #[must_use]
    pub fn entry_path(&self, key: &RequestKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.file_stem()))
    }

    /// Path of a key's in-flight training checkpoint (the warm-restart
    /// file the daemon hands to [`cuasmrl::CuAsmRl::with_checkpoint`]).
    #[must_use]
    pub fn checkpoint_path(&self, key: &RequestKey) -> PathBuf {
        self.dir.join(format!("{}.ckpt", key.file_stem()))
    }

    /// Looks a key up: memory first, then disk (decoding the entry back
    /// into the LRU map on a disk hit). Either way the entry must answer
    /// the key's canonical request.
    ///
    /// # Errors
    ///
    /// Propagates the typed decode error when the entry file exists but
    /// cannot be read — the caller decides whether to recompute (the
    /// daemon does, overwriting the damaged file). An entry whose
    /// canonical request is not the key's (a file copied onto another
    /// key's name, or a digest collision) is [`ArtifactError::Corrupt`].
    /// A [`ArtifactError::ChecksumMismatch`] is additionally counted in
    /// [`StoreStats::checksum_failures`].
    pub fn get(&self, key: &RequestKey) -> Result<Option<StoreEntry>, ArtifactError> {
        let stem = key.file_stem();
        let mut inner = self.lock_inner();
        let cached = inner.entries.get(&stem).cloned();
        let from_disk = cached.is_none();
        let found = match cached {
            Some(entry) => Ok(entry),
            None => {
                let path = self.entry_path(key);
                match self.io.read(&path) {
                    Ok(bytes) => decode_entry_file(&path, &bytes),
                    Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                        inner.stats.misses += 1;
                        return Ok(None);
                    }
                    Err(err) => Err(err.into()),
                }
            }
        };
        let answer = found.and_then(|entry| {
            if entry.canonical == key.canonical {
                Ok(entry)
            } else {
                Err(ArtifactError::Corrupt {
                    detail: format!(
                        "entry answers `{}`, not `{}`",
                        entry.canonical, key.canonical
                    ),
                    path: self.entry_path(key),
                })
            }
        });
        match answer {
            Ok(entry) => {
                inner.stats.hits += 1;
                if from_disk {
                    inner.stats.disk_hits += 1;
                    inner.insert(&stem, entry.clone(), self.capacity);
                } else {
                    inner.touch(&stem);
                }
                Ok(Some(entry))
            }
            Err(err) => {
                if matches!(err, ArtifactError::ChecksumMismatch { .. }) {
                    inner.stats.checksum_failures += 1;
                }
                inner.stats.misses += 1;
                Err(err)
            }
        }
    }

    /// Persists an entry atomically-or-absent and caches it in memory,
    /// evicting the least-recently-used entry beyond capacity.
    ///
    /// The write is one [`publish_atomic`]: staging file written and
    /// fsynced, renamed over the entry's name, directory synced (under
    /// [`RealIo`]). A kill before the rename leaves the old bytes plus
    /// debris the next open sweeps; after it, the new bytes. The entry is
    /// written exactly as given — planting an unsealed or skewed entry is
    /// how the tests prove the read paths catch damage.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] when the write or rename fails.
    pub fn put(&self, key: &RequestKey, entry: StoreEntry) -> Result<(), ArtifactError> {
        let path = self.entry_path(key);
        let text = serde_json::to_string_pretty(&entry).map_err(|err| ArtifactError::Corrupt {
            path: path.clone(),
            detail: err.to_string(),
        })?;
        // Publish under the lock, so memory and disk agree on which of two
        // racing puts of one key won.
        let mut inner = self.lock_inner();
        publish_atomic(self.io.as_ref(), &path, text.as_bytes())?;
        inner.insert(&key.file_stem(), entry, self.capacity);
        Ok(())
    }

    /// Current effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.lock_inner().stats
    }
}

/// Decodes entry bytes with the full typed-error path, judging the
/// content alone (see [`ScheduleStore::decode_entry`] for the check
/// against the file name).
///
/// # Errors
///
/// [`ArtifactError::Torn`] or [`ArtifactError::Corrupt`] (see
/// [`artifact::decode_json`]), [`ArtifactError::UnsupportedVersion`] or
/// [`ArtifactError::ChecksumMismatch`], in that precedence order.
pub fn decode_entry_bytes(path: &Path, bytes: &[u8]) -> Result<StoreEntry, ArtifactError> {
    let entry: StoreEntry = decode_json(path, bytes)?;
    if entry.schema_version != STORE_SCHEMA_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: entry.schema_version,
            supported: STORE_SCHEMA_VERSION,
        });
    }
    let computed = entry.content_checksum();
    if entry.checksum != computed {
        return Err(ArtifactError::ChecksumMismatch {
            path: path.to_path_buf(),
            recorded: entry.checksum.clone(),
            computed,
        });
    }
    Ok(entry)
}

/// [`decode_entry_bytes`], then the provenance check: an entry answers
/// only the request its file names, so one whose [`StoreEntry::file_stem`]
/// is not the file's stem is [`ArtifactError::Corrupt`].
fn decode_entry_file(path: &Path, bytes: &[u8]) -> Result<StoreEntry, ArtifactError> {
    let entry = decode_entry_bytes(path, bytes)?;
    let named = path.file_stem().unwrap_or_default().to_string_lossy();
    let answers = entry.file_stem();
    if answers != named {
        return Err(ArtifactError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("entry answers {answers}, but its file names {named}"),
        });
    }
    Ok(entry)
}

/// Whether a file name is a store entry's: `.json`, but not a service
/// telemetry manifest (those share the directory — see
/// `docs/ARTIFACTS.md` — and have their own sealed format).
fn is_entry_file(name: &str) -> bool {
    name.ends_with(".json") && !name.ends_with("_telemetry.json")
}

/// Whether a file name is crash debris the store's open removes:
/// unpublished staging files ([`is_temp_debris`]) and a retired
/// [`JOURNAL_FILE`].
/// `cuasmrld-fsck` calls exactly these files `orphaned`.
#[must_use]
pub fn is_store_debris(name: &str) -> bool {
    is_temp_debris(name) || name == JOURNAL_FILE
}

/// The file names in `dir` — what [`is_store_debris`] and
/// [`is_entry_file`] classify.
fn list_dir(dir: &Path) -> std::io::Result<Vec<String>> {
    Ok(std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CanonicalRequest, OptimizeRequest, RequestDefaults};

    fn key_for(kernel: &str, seed: u64) -> RequestKey {
        let mut request = OptimizeRequest::table2(kernel, "ampere");
        request.seed = Some(seed);
        let canonical: CanonicalRequest = request
            .canonicalize(&RequestDefaults { scale: 16, seed: 0 })
            .unwrap();
        RequestKey::of(&canonical)
    }

    fn entry_for(key: &RequestKey, seed: u64) -> StoreEntry {
        StoreEntry {
            schema_version: STORE_SCHEMA_VERSION,
            canonical: key.canonical.clone(),
            arch: key.arch.clone(),
            kernel: key.kernel.clone(),
            seed,
            generation: 0,
            checksum: String::new(),
            report: cuasmrl::OptimizationReport {
                kernel: key.kernel.clone(),
                baseline_us: 10.0,
                optimized_us: 8.0,
                speedup: 1.25,
                verified: true,
                optimized_listing: String::new(),
                moves: Vec::new(),
            },
        }
        .seal()
    }

    /// An entry whose serialized size is inflated by `padding` bytes of
    /// listing, for the LRU accounting tests.
    fn padded_entry_for(key: &RequestKey, seed: u64, padding: usize) -> StoreEntry {
        let mut entry = entry_for(key, seed);
        entry.report.optimized_listing = "x".repeat(padding);
        entry.seal()
    }

    /// Number of entry files in `dir` (the durable set).
    fn entries_on_disk(dir: &Path) -> usize {
        list_dir(dir)
            .unwrap()
            .iter()
            .filter(|name| is_entry_file(name))
            .count()
    }

    fn temp_dir(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cuasmrld-store-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn entries_survive_reopen_and_damage_is_a_typed_error() {
        let dir = temp_dir("reopen");
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_for("softmax", 1);
        {
            let store = ScheduleStore::open(&dir, 8).unwrap();
            assert!(store.get(&key).unwrap().is_none());
            store.put(&key, entry_for(&key, 1)).unwrap();
            assert!(store.get(&key).unwrap().is_some());
        }
        // A fresh open (a daemon restart) reloads the durable set.
        let store = ScheduleStore::open(&dir, 8).unwrap();
        let entry = store.get(&key).unwrap().expect("entry survived restart");
        assert_eq!(entry.kernel, "softmax");
        assert_eq!(entries_on_disk(&dir), 1);

        // Damage the file: decoding is a typed error, opening skips it.
        let path = store.entry_path(&key);
        std::fs::write(&path, "{ not json").unwrap();
        assert!(matches!(
            ScheduleStore::decode_entry(&path),
            Err(ArtifactError::Corrupt { .. })
        ));
        let reopened = ScheduleStore::open(&dir, 8).unwrap();
        assert_eq!(reopened.stats().skipped_at_open, 1);
        assert!(matches!(
            reopened.get(&key),
            Err(ArtifactError::Corrupt { .. })
        ));
        // Recomputing overwrites the damage.
        reopened.put(&key, entry_for(&key, 1)).unwrap();
        assert!(reopened.get(&key).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_is_named_not_reinterpreted() {
        let dir = temp_dir("version");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ScheduleStore::open(&dir, 8).unwrap();
        let key = key_for("bmm", 2);
        let mut entry = entry_for(&key, 2);
        entry.schema_version = 99;
        // put() writes whatever it is given; decode is where skew surfaces.
        store.put(&key, entry).unwrap();
        let fresh = ScheduleStore::open(&dir, 8).unwrap();
        assert_eq!(fresh.stats().skipped_at_open, 1);
        assert!(matches!(
            ScheduleStore::decode_entry(&store.entry_path(&key)),
            Err(ArtifactError::UnsupportedVersion { found: 99, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_is_a_typed_error_and_counted() {
        let dir = temp_dir("checksum");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ScheduleStore::open(&dir, 8).unwrap();
        let key = key_for("softmax", 7);
        // An unsealed entry (planted damage: content changed after the
        // checksum was recorded).
        let mut entry = entry_for(&key, 7);
        entry.report.speedup = 9.99;
        store.put(&key, entry).unwrap();
        drop(store);

        // A fresh open skips it, counting the mismatch distinctly.
        let fresh = ScheduleStore::open(&dir, 8).unwrap();
        assert_eq!(fresh.stats().skipped_at_open, 1);
        assert_eq!(fresh.stats().checksum_failures, 1);
        // The read path reports the same typed error and counts again.
        assert!(matches!(
            fresh.get(&key),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        assert_eq!(fresh.stats().checksum_failures, 2);
        // Healing: recompute-and-overwrite with a sealed entry.
        fresh.put(&key, entry_for(&key, 7)).unwrap();
        assert!(fresh.get(&key).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_cap_evicts_lru_but_disk_keeps_everything() {
        let dir = temp_dir("lru");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ScheduleStore::open(&dir, 2).unwrap();
        let keys: Vec<RequestKey> = (0..4).map(|seed| key_for("rmsnorm", seed)).collect();
        for (seed, key) in keys.iter().enumerate() {
            store.put(key, entry_for(key, seed as u64)).unwrap();
        }
        assert_eq!(store.stats().entries_in_memory, 2);
        assert_eq!(entries_on_disk(&dir), 4);
        // The evicted entry still answers — from disk — and is re-cached.
        let before = store.stats().disk_hits;
        assert!(store.get(&keys[0]).unwrap().is_some());
        assert_eq!(store.stats().disk_hits, before + 1);
        assert!(store.get(&keys[0]).unwrap().is_some());
        assert_eq!(
            store.stats().disk_hits,
            before + 1,
            "second hit is in-memory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_bytes_track_the_in_memory_set_and_default_on_old_stats() {
        let dir = temp_dir("bytes");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ScheduleStore::open(&dir, 2).unwrap();
        assert_eq!(store.stats().lru_bytes, 0);
        let keys: Vec<RequestKey> = (0..3).map(|seed| key_for("softmax", seed)).collect();
        store.put(&keys[0], entry_for(&keys[0], 0)).unwrap();
        let one = store.stats().lru_bytes;
        assert!(one > 0, "a cached entry has a footprint");
        store.put(&keys[1], entry_for(&keys[1], 1)).unwrap();
        let two = store.stats().lru_bytes;
        assert!(two > one, "a second entry grows the footprint");
        // The third insert evicts the coldest: the footprint stays at two
        // entries' worth, not three.
        store.put(&keys[2], entry_for(&keys[2], 2)).unwrap();
        assert_eq!(store.stats().entries_in_memory, 2);
        assert!(
            store.stats().lru_bytes < two + one,
            "eviction released bytes"
        );
        assert!(store.stats().lru_bytes > one);

        // Stats serialized by a v1 daemon carry no `lru_bytes` (nor the
        // durability-v2 counters); the fields are additive and default.
        let v1 = r#"{"hits": 3, "misses": 1, "disk_hits": 0,
                     "entries_in_memory": 2, "skipped_at_open": 0, "tmp_swept": 0}"#;
        let stats: StoreStats = serde_json::from_str(v1).unwrap();
        assert_eq!(stats.lru_bytes, 0);
        assert_eq!(stats.checksum_failures, 0);
        assert_eq!(stats.journal_replayed, 0);
        assert_eq!(stats.hits, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The satellite regression: healing a corrupt entry by recompute
    /// replaces an in-memory entry with one of a *different* serialized
    /// size; evicting the healed entry must release the new size, never
    /// underflow the gauge with the old one.
    #[test]
    fn evicting_a_healed_entry_never_underflows_lru_bytes() {
        let dir = temp_dir("heal-underflow");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ScheduleStore::open(&dir, 2).unwrap();
        let hot = key_for("softmax", 1);
        let cold = key_for("bmm", 2);

        // A fat entry, then plant corruption over it on disk: recorded
        // checksum no longer matches the (still fat) content.
        store.put(&hot, padded_entry_for(&hot, 1, 4096)).unwrap();
        let mut damaged = padded_entry_for(&hot, 1, 4096);
        damaged.checksum = "0000000000000000".to_string();
        let text = serde_json::to_string_pretty(&damaged).unwrap();
        std::fs::write(store.entry_path(&hot), text).unwrap();
        drop(store);

        // Reopen: the damaged entry is skipped (mismatched sizes now live
        // only on disk), then healed by a recompute that is much smaller.
        let store = ScheduleStore::open(&dir, 2).unwrap();
        assert_eq!(store.stats().checksum_failures, 1);
        assert!(matches!(
            store.get(&hot),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        store.put(&hot, entry_for(&hot, 1)).unwrap(); // the heal: small
        let healed_footprint = store.stats().lru_bytes;

        // Evict the healed entry by filling the cap with other keys.
        store.put(&cold, entry_for(&cold, 2)).unwrap();
        let third = key_for("rmsnorm", 3);
        store.put(&third, padded_entry_for(&third, 3, 128)).unwrap();
        assert_eq!(store.stats().entries_in_memory, 2);
        let after = store.stats().lru_bytes;
        assert!(after > 0, "gauge never wraps or zeroes out");
        assert!(
            after < u64::MAX / 2,
            "gauge did not underflow (got {after})"
        );
        // The gauge equals the exact footprint of the two survivors.
        let survivors = serde_json::to_string(&store.get(&cold).unwrap().unwrap())
            .unwrap()
            .len() as u64
            + serde_json::to_string(&store.get(&third).unwrap().unwrap())
                .unwrap()
                .len() as u64;
        assert_eq!(store.stats().lru_bytes, survivors);
        assert!(
            healed_footprint
                >= serde_json::to_string(&store.get(&hot).unwrap().unwrap())
                    .unwrap()
                    .len() as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_temp_files_are_swept_at_open() {
        let dir = temp_dir("sweep");
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_for("fused_ff", 5);
        {
            let store = ScheduleStore::open(&dir, 8).unwrap();
            store.put(&key, entry_for(&key, 5)).unwrap();
        }
        // Plant the debris a crash between write and rename would leave
        // (any name `artifact::is_temp_debris` matches).
        let orphan = dir.join(format!(".{}.tmp.12345", key.file_stem()));
        std::fs::write(&orphan, "{ half-written").unwrap();

        let store = ScheduleStore::open(&dir, 8).unwrap();
        assert_eq!(store.stats().tmp_swept, 1, "the orphan was counted");
        assert!(!orphan.exists(), "the orphan was removed");
        assert_eq!(store.stats().skipped_at_open, 0, "not counted as damage");
        let entry = store.get(&key).unwrap().expect("real entry still loads");
        assert_eq!(entry.kernel, "fused_ff");
        // A clean reopen sweeps nothing.
        assert_eq!(ScheduleStore::open(&dir, 8).unwrap().stats().tmp_swept, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An entry answers only the request it names: key A's sealed bytes
    /// copied onto key B's file are refused by `get` and skipped by `open`,
    /// and a key whose digest collides with A's file is refused too.
    #[test]
    fn an_entry_answers_only_the_request_its_file_names() {
        let dir = temp_dir("provenance");
        let _ = std::fs::remove_dir_all(&dir);
        let a = key_for("softmax", 1);
        let b = key_for("bmm", 2);
        let store = ScheduleStore::open(&dir, 8).unwrap();
        store.put(&a, entry_for(&a, 1)).unwrap();
        assert_eq!(entry_for(&a, 1).file_stem(), a.file_stem());
        std::fs::copy(store.entry_path(&a), store.entry_path(&b)).unwrap();
        drop(store);

        let store = ScheduleStore::open(&dir, 8).unwrap();
        assert_eq!(store.stats().skipped_at_open, 1, "B's file is skipped");
        assert_eq!(store.stats().checksum_failures, 0, "its bytes are sound");
        match store.get(&b) {
            Err(ArtifactError::Corrupt { detail, .. }) => {
                assert!(detail.contains(&a.file_stem()), "{detail}");
            }
            other => panic!("B answered with A's entry: {other:?}"),
        }
        assert!(matches!(
            ScheduleStore::decode_entry(&store.entry_path(&b)),
            Err(ArtifactError::Corrupt { .. })
        ));
        assert_eq!(store.get(&a).unwrap().unwrap().canonical, a.canonical);

        // A digest collision: another request named by A's file. Only the
        // canonical comparison in `get` can tell them apart.
        let collision = RequestKey {
            canonical: format!("{};collides", a.canonical),
            ..a.clone()
        };
        let cold = ScheduleStore::open(&dir, 8).unwrap();
        assert!(matches!(
            cold.get(&collision),
            Err(ArtifactError::Corrupt { .. })
        ));

        // Healing B is a recompute that overwrites the file.
        cold.put(&b, entry_for(&b, 2)).unwrap();
        assert_eq!(
            ScheduleStore::open(&dir, 8)
                .unwrap()
                .stats()
                .skipped_at_open,
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
