//! Offline verification and repair of a store directory — the library
//! behind the `cuasmrld-fsck` binary.
//!
//! [`fsck`] walks a (cold) store directory and classifies every file into
//! the verdict taxonomy of `docs/SERVICE.md`:
//!
//! | verdict | meaning |
//! |---|---|
//! | `ok` | decodes, checksum verifies, provenance sane |
//! | `torn` | an interrupted mutation: the bytes end before the format does, a journaled write whose file is missing, or a journaled removal that never reached the file |
//! | `corrupt` | complete bytes that are not a valid instance, fail their checksum or carry another format version |
//! | `orphaned` | crash debris (unpublished temp files) |
//! | `stale-generation` | an entry stamped with a *future* journal generation — a store directory mixed from different machines or restored from a newer backup |
//!
//! With `repair`, every non-ok file is moved (never deleted) into the
//! [`QUARANTINE_DIR`] subdirectory, entries covered by a valid journal
//! record are rewritten from it, and a torn journal tail is truncated.
//! After a successful repair the directory reopens with every surviving
//! entry byte-identical to a state the store actually passed through —
//! the same pre-or-post guarantee the crash-point sweep proves for plain
//! reopen.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use artifact::{is_temp_debris, publish_atomic, ArtifactError, UnsyncedIo};
use serde::{Deserialize, Serialize};

use crate::journal::{self, JournalOp, JOURNAL_FILE};
use crate::store::decode_entry_bytes;

/// Version of the fsck report's JSON schema (stable for scripting; bumped
/// on any field-level change).
pub const FSCK_SCHEMA_VERSION: u32 = 1;

/// Subdirectory quarantined files are moved into. Quarantine is a move,
/// never a delete: the bytes stay available for forensics, and the store
/// ignores the subdirectory entirely.
pub const QUARANTINE_DIR: &str = "quarantine";

/// The per-file verdict taxonomy (serialized in kebab-case strings — see
/// the module docs table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryVerdict {
    /// Decodes, checksum verifies, provenance sane.
    Ok,
    /// An interrupted mutation (bytes that end before the format does,
    /// lost journaled write, unapplied journaled removal).
    Torn,
    /// Complete bytes that are not a valid instance, checksum failure, or
    /// format-version skew.
    Corrupt,
    /// Unpublished crash debris.
    Orphaned,
    /// Stamped with a future journal generation.
    StaleGeneration,
}

impl EntryVerdict {
    /// The stable string form used in the JSON report.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EntryVerdict::Ok => "ok",
            EntryVerdict::Torn => "torn",
            EntryVerdict::Corrupt => "corrupt",
            EntryVerdict::Orphaned => "orphaned",
            EntryVerdict::StaleGeneration => "stale-generation",
        }
    }
}

/// One file's verdict in the report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FsckEntry {
    /// File name (store-dir relative).
    pub file: String,
    /// Verdict string ([`EntryVerdict::as_str`]).
    pub verdict: String,
    /// Human-readable detail.
    pub detail: String,
    /// What `--repair` did (empty without repair or when nothing was
    /// needed).
    pub action: String,
}

/// The journal's health in the report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FsckJournal {
    /// Whether a journal file exists.
    pub present: bool,
    /// Generation from the header (0 when absent/damaged).
    pub generation: u64,
    /// Valid records found.
    pub records: usize,
    /// Whether a torn tail was found (truncated by repair).
    pub torn_tail: bool,
    /// Whether the header itself was unreadable.
    pub damaged_header: bool,
    /// What `--repair` did to the journal (empty when nothing was
    /// needed).
    pub action: String,
}

/// The stable JSON report of one fsck run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FsckReport {
    /// [`FSCK_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The directory walked.
    pub store_dir: String,
    /// Whether this run repaired.
    pub repair: bool,
    /// Journal health.
    pub journal: FsckJournal,
    /// Per-file verdicts, sorted by file name.
    pub entries: Vec<FsckEntry>,
    /// Count of `ok` verdicts.
    pub ok: usize,
    /// Count of `torn` verdicts.
    pub torn: usize,
    /// Count of `corrupt` verdicts.
    pub corrupt: usize,
    /// Count of `orphaned` verdicts.
    pub orphaned: usize,
    /// Count of `stale-generation` verdicts.
    pub stale_generation: usize,
    /// Files repaired (quarantined and/or rewritten from the journal).
    pub repaired: usize,
    /// Files moved into [`QUARANTINE_DIR`].
    pub quarantined: usize,
    /// Files a repair was attempted on but failed (I/O errors) — the only
    /// thing that leaves a repaired store unhealthy.
    pub unrepairable: usize,
}

impl FsckReport {
    /// Whether the walked store needs no attention: every file ok and the
    /// journal clean (after repair: nothing unrepairable).
    #[must_use]
    pub fn healthy(&self) -> bool {
        if self.repair {
            self.unrepairable == 0
        } else {
            self.torn == 0
                && self.corrupt == 0
                && self.orphaned == 0
                && self.stale_generation == 0
                && !self.journal.torn_tail
                && !self.journal.damaged_header
        }
    }
}

struct Walk<'a> {
    dir: &'a Path,
    repair: bool,
    report: FsckReport,
    /// Last journal op per stem (what replay would apply).
    journal_ops: HashMap<String, JournalOp>,
}

impl Walk<'_> {
    /// Moves a damaged file aside. The one rename outside
    /// [`publish_atomic`]: it relocates damage and publishes nothing.
    fn quarantine(&mut self, name: &str) -> io::Result<()> {
        let quarantine = self.dir.join(QUARANTINE_DIR);
        std::fs::create_dir_all(&quarantine)?;
        std::fs::rename(self.dir.join(name), quarantine.join(name))?;
        self.report.quarantined += 1;
        Ok(())
    }

    /// Rewrites an entry file from its journal record.
    fn rewrite_from_journal(&self, entry_file: &str, entry_json: &str) -> io::Result<()> {
        let path = self.dir.join(entry_file);
        publish_atomic(&UnsyncedIo, &path, entry_json.as_bytes())
    }

    /// Applies the configured repair for one bad file; records the action
    /// and the repaired/unrepairable tallies.
    fn repair_file(&mut self, name: &str, stem: Option<&str>) -> String {
        if !self.repair {
            return String::new();
        }
        let mut action = String::new();
        if let Err(err) = self.quarantine(name) {
            self.report.unrepairable += 1;
            return format!("quarantine failed: {err}");
        }
        action.push_str("quarantined");
        if let Some(stem) = stem {
            if let Some(JournalOp::Put { entry, .. }) = self.journal_ops.get(stem) {
                match serde_json::to_string_pretty(entry) {
                    Ok(json) => match self.rewrite_from_journal(name, &json) {
                        Ok(()) => action.push_str("; rewritten from journal record"),
                        Err(err) => {
                            self.report.unrepairable += 1;
                            action.push_str(&format!("; journal rewrite failed: {err}"));
                        }
                    },
                    Err(_) => action.push_str("; journal record unserializable"),
                }
            } else {
                action.push_str("; entry will be recomputed on demand");
            }
        }
        self.report.repaired += 1;
        action
    }

    /// The one damage arm of every file family: a file its reader refused
    /// is `torn` when its bytes end before its format does and `corrupt`
    /// otherwise, and is repaired either way.
    fn record_damage(&mut self, name: &str, stem: Option<&str>, err: &ArtifactError) {
        let (verdict, detail) = match err {
            ArtifactError::Torn { detail, .. } => (EntryVerdict::Torn, detail.clone()),
            ArtifactError::Corrupt { detail, .. } => (EntryVerdict::Corrupt, detail.clone()),
            ArtifactError::Io(err) => (EntryVerdict::Corrupt, format!("unreadable: {err}")),
            ArtifactError::UnsupportedVersion {
                found, supported, ..
            } => (
                EntryVerdict::Corrupt,
                format!("format version skew: file is v{found}, this build reads v{supported}"),
            ),
            ArtifactError::ChecksumMismatch {
                recorded, computed, ..
            } => (
                EntryVerdict::Corrupt,
                format!("checksum mismatch: recorded {recorded}, computed {computed}"),
            ),
        };
        let action = self.repair_file(name, stem);
        self.record(name.to_string(), verdict, detail, action);
    }

    fn record(&mut self, file: String, verdict: EntryVerdict, detail: String, action: String) {
        match verdict {
            EntryVerdict::Ok => self.report.ok += 1,
            EntryVerdict::Torn => self.report.torn += 1,
            EntryVerdict::Corrupt => self.report.corrupt += 1,
            EntryVerdict::Orphaned => self.report.orphaned += 1,
            EntryVerdict::StaleGeneration => self.report.stale_generation += 1,
        }
        self.report.entries.push(FsckEntry {
            file,
            verdict: verdict.as_str().to_string(),
            detail,
            action,
        });
    }
}

/// Walks `dir` offline, classifying every file (see the module docs), and
/// — when `repair` is set — quarantining damage, rewriting entries from
/// their journal records, and truncating a torn journal tail.
///
/// # Errors
///
/// Returns an I/O error only when the directory itself cannot be listed;
/// per-file failures are verdicts, not errors.
pub fn fsck(dir: &Path, repair: bool) -> io::Result<FsckReport> {
    let mut walk = Walk {
        dir,
        repair,
        report: FsckReport {
            schema_version: FSCK_SCHEMA_VERSION,
            store_dir: dir.display().to_string(),
            repair,
            journal: FsckJournal::default(),
            entries: Vec::new(),
            ok: 0,
            torn: 0,
            corrupt: 0,
            orphaned: 0,
            stale_generation: 0,
            repaired: 0,
            quarantined: 0,
            unrepairable: 0,
        },
        journal_ops: HashMap::new(),
    };

    // 1. The journal: the repair evidence, read first.
    let journal_path = dir.join(JOURNAL_FILE);
    let mut journal_ops_in_order: Vec<JournalOp> = Vec::new();
    match std::fs::read(&journal_path) {
        Ok(bytes) => {
            let replay = journal::decode(&bytes);
            walk.report.journal = FsckJournal {
                present: true,
                generation: replay.generation,
                records: replay.ops.len(),
                torn_tail: replay.torn_tail,
                damaged_header: replay.damaged_header,
                action: String::new(),
            };
            journal_ops_in_order = replay.ops;
        }
        Err(err) if err.kind() == io::ErrorKind::NotFound => {}
        Err(err) => {
            walk.report.journal.present = true;
            walk.report.journal.damaged_header = true;
            walk.report.journal.action = format!("unreadable: {err}");
        }
    }
    for op in &journal_ops_in_order {
        walk.journal_ops.insert(op.stem().to_string(), op.clone());
    }

    // 2. Every file in the directory, in sorted order for a stable report.
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    for name in names {
        if name == JOURNAL_FILE {
            continue;
        }
        let path = dir.join(&name);
        if is_temp_debris(&name) {
            let action = walk.repair_file(&name, None);
            walk.record(
                name,
                EntryVerdict::Orphaned,
                "unpublished temp file (crash debris; the rename never happened)".to_string(),
                action,
            );
            continue;
        }
        if name.ends_with("_telemetry.json") {
            classify_manifest(&mut walk, &name, dir);
            continue;
        }
        if name.ends_with(".ckpt") {
            classify_checkpoint(&mut walk, &name, &path);
            continue;
        }
        if name.ends_with(".json") {
            classify_entry(&mut walk, &name, &path);
            continue;
        }
        // Unknown file families are reported, never touched.
        walk.record(
            name,
            EntryVerdict::Ok,
            "not a store-managed file family; left alone".to_string(),
            String::new(),
        );
    }

    // 3. Journal records whose entry files are gone or stale: the write
    // (or removal) a kill interrupted. Replay them.
    let mut stems: Vec<&String> = walk.journal_ops.keys().collect();
    stems.sort();
    let mut replays: Vec<(String, EntryVerdict, String, Option<String>)> = Vec::new();
    for stem in stems {
        let entry_file = format!("{stem}.json");
        let path = dir.join(&entry_file);
        match &walk.journal_ops[stem.as_str()] {
            JournalOp::Put { entry, .. } if !path.exists() => {
                let json = serde_json::to_string_pretty(entry).unwrap_or_default();
                replays.push((
                    entry_file,
                    EntryVerdict::Torn,
                    "journaled write never reached the entry file".to_string(),
                    Some(json),
                ));
            }
            JournalOp::Remove { .. } if path.exists() => {
                replays.push((
                    entry_file,
                    EntryVerdict::Torn,
                    "journaled removal never reached the entry file".to_string(),
                    None,
                ));
            }
            _ => {}
        }
    }
    for (entry_file, verdict, detail, rewrite) in replays {
        let mut action = String::new();
        if walk.repair {
            match &rewrite {
                Some(json) => match walk.rewrite_from_journal(&entry_file, json) {
                    Ok(()) => {
                        action = "rewritten from journal record".to_string();
                        walk.report.repaired += 1;
                    }
                    Err(err) => {
                        action = format!("journal rewrite failed: {err}");
                        walk.report.unrepairable += 1;
                    }
                },
                None => {
                    action = walk.repair_file(&entry_file, None);
                }
            }
        }
        walk.record(entry_file, verdict, detail, action);
    }

    // 4. A torn or headerless journal is itself repaired by truncation to
    // its valid prefix (damaged header: a fresh generation-1 header — the
    // evidence is gone either way, and the store would rotate it away too).
    // Published atomically: a kill mid-repair leaves the journal it was
    // repairing, not a shorter one.
    if walk.repair && (walk.report.journal.torn_tail || walk.report.journal.damaged_header) {
        let generation = walk.report.journal.generation.max(1);
        let image = journal::encode(generation, &journal_ops_in_order);
        match publish_atomic(&UnsyncedIo, &journal_path, &image) {
            Ok(()) => {
                walk.report.journal.action = if walk.report.journal.damaged_header {
                    "rewritten with a fresh header".to_string()
                } else {
                    "torn tail truncated".to_string()
                };
                walk.report.repaired += 1;
            }
            Err(err) => {
                walk.report.journal.action = format!("truncation failed: {err}");
                walk.report.unrepairable += 1;
            }
        }
    }

    Ok(walk.report)
}

/// Classifies one store entry file.
fn classify_entry(walk: &mut Walk<'_>, name: &str, path: &Path) {
    let stem = name.trim_end_matches(".json");
    let decoded = std::fs::read(path)
        .map_err(ArtifactError::Io)
        .and_then(|bytes| decode_entry_bytes(path, &bytes));
    match decoded {
        Ok(entry) => {
            let journal_generation = walk.report.journal.generation;
            if walk.report.journal.present
                && !walk.report.journal.damaged_header
                && entry.generation > journal_generation
            {
                let action = walk.repair_file(name, Some(stem));
                walk.record(
                    name.to_string(),
                    EntryVerdict::StaleGeneration,
                    format!(
                        "entry stamped generation {} but the journal is at {} — \
                         mixed store directories or a restored newer backup",
                        entry.generation, journal_generation
                    ),
                    action,
                );
            } else {
                walk.record(
                    name.to_string(),
                    EntryVerdict::Ok,
                    format!("checksum {} verified", entry.checksum),
                    String::new(),
                );
            }
        }
        Err(err) => walk.record_damage(name, Some(stem), &err),
    }
}

/// Classifies one telemetry manifest (`{gpu}_{suite}_telemetry.json`).
fn classify_manifest(walk: &mut Walk<'_>, name: &str, dir: &Path) {
    let key = name.trim_end_matches("_telemetry.json");
    let Some((gpu, suite)) = key.rsplit_once('_') else {
        walk.record(
            name.to_string(),
            EntryVerdict::Corrupt,
            "unparseable manifest file name".to_string(),
            String::new(),
        );
        return;
    };
    match cuasmrl::load_run_manifest_checked(dir, gpu, suite) {
        Ok(Some(manifest)) => walk.record(
            name.to_string(),
            EntryVerdict::Ok,
            format!("manifest with {} kernels verified", manifest.kernels.len()),
            String::new(),
        ),
        Ok(None) => walk.record(
            name.to_string(),
            EntryVerdict::Ok,
            "absent (raced away)".to_string(),
            String::new(),
        ),
        Err(err) => walk.record_damage(name, None, &err),
    }
}

/// Classifies one RL training checkpoint (`{stem}.ckpt`).
fn classify_checkpoint(walk: &mut Walk<'_>, name: &str, path: &Path) {
    match rl::Checkpoint::read(path) {
        Ok(_) => walk.record(
            name.to_string(),
            EntryVerdict::Ok,
            "training checkpoint verified".to_string(),
            String::new(),
        ),
        // A bad checkpoint only costs a cold restart of that search;
        // quarantining it is the whole repair.
        Err(err) => walk.record_damage(name, None, &err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CanonicalRequest, OptimizeRequest, RequestDefaults, RequestKey};
    use crate::store::{ScheduleStore, StoreEntry, STORE_SCHEMA_VERSION};

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

    fn temp_dir(label: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "cuasmrld-fsck-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn a_healthy_store_reports_all_ok() {
        let dir = temp_dir("healthy");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ScheduleStore::open(&dir, 8).unwrap();
        for seed in 0..3 {
            let key = key_for("softmax", seed);
            store.put(&key, entry_for(&key, seed)).unwrap();
        }
        drop(store);
        let report = fsck(&dir, false).unwrap();
        assert!(report.healthy(), "healthy store: {report:?}");
        assert_eq!(report.ok, 3);
        assert_eq!(report.entries.len(), 3);
        assert!(report.journal.present);
        // The report is stable JSON, sorted by file name.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: FsckReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ok, 3);
        let mut sorted = report.entries.clone();
        sorted.sort_by(|a, b| a.file.cmp(&b.file));
        assert_eq!(
            sorted.iter().map(|e| &e.file).collect::<Vec<_>>(),
            report.entries.iter().map(|e| &e.file).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_families_classify_and_repair_into_quarantine() {
        let dir = temp_dir("repair");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ScheduleStore::open(&dir, 8).unwrap();
        let keep = key_for("softmax", 1);
        let torn = key_for("bmm", 2);
        let rot = key_for("rmsnorm", 3);
        for (key, seed) in [(&keep, 1), (&torn, 2), (&rot, 3)] {
            store.put(key, entry_for(key, seed)).unwrap();
        }
        let keep_bytes = std::fs::read(store.entry_path(&keep)).unwrap();
        // Torn: cut the file mid-JSON. Corrupt: flip the recorded checksum.
        let torn_path = store.entry_path(&torn);
        let full = std::fs::read(&torn_path).unwrap();
        std::fs::write(&torn_path, &full[..full.len() / 3]).unwrap();
        let rot_path = store.entry_path(&rot);
        let text = std::fs::read_to_string(&rot_path).unwrap();
        let mut damaged = entry_for(&rot, 3);
        damaged.checksum = "beefbeefbeefbeef".to_string();
        std::fs::write(&rot_path, serde_json::to_string_pretty(&damaged).unwrap()).unwrap();
        assert_ne!(text, std::fs::read_to_string(&rot_path).unwrap());
        // Orphan: planted temp debris.
        std::fs::write(dir.join(".zzz.tmp.999"), "{").unwrap();
        drop(store);

        let dry = fsck(&dir, false).unwrap();
        assert!(!dry.healthy());
        assert_eq!(dry.torn, 1);
        assert_eq!(dry.corrupt, 1);
        assert_eq!(dry.orphaned, 1);
        assert_eq!(dry.ok, 1);

        // Repair: quarantine + journal replay (the puts are still in the
        // un-rotated journal, so both bad entries are rewritten).
        let repaired = fsck(&dir, true).unwrap();
        assert!(repaired.healthy(), "{repaired:?}");
        assert_eq!(repaired.unrepairable, 0);
        assert!(repaired.quarantined >= 3);
        assert!(dir.join(QUARANTINE_DIR).is_dir());
        // The untouched entry is byte-identical; the repaired ones decode.
        assert_eq!(
            std::fs::read(dir.join(format!("{}.json", keep.file_stem()))).unwrap(),
            keep_bytes
        );
        let reopened = ScheduleStore::open(&dir, 8).unwrap();
        assert!(
            reopened.get(&torn).unwrap().is_some(),
            "rewritten from journal"
        );
        assert!(
            reopened.get(&rot).unwrap().is_some(),
            "rewritten from journal"
        );
        assert_eq!(reopened.stats().skipped_at_open, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_journal_is_republished_as_its_valid_prefix() {
        let dir = temp_dir("torn-journal");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ScheduleStore::open(&dir, 8).unwrap();
        let key = key_for("softmax", 4);
        store.put(&key, entry_for(&key, 4)).unwrap();
        drop(store);
        // A kill mid-append: the header and one whole record, then garbage.
        let journal_path = dir.join(JOURNAL_FILE);
        let whole = std::fs::read(&journal_path).unwrap();
        let mut torn = whole.clone();
        torn.extend_from_slice(&[0x2a, 0, 0, 0, b'{']);
        std::fs::write(&journal_path, &torn).unwrap();

        assert!(fsck(&dir, false).unwrap().journal.torn_tail);
        let repaired = fsck(&dir, true).unwrap();
        assert_eq!(repaired.journal.action, "torn tail truncated");
        assert_eq!(repaired.unrepairable, 0);
        assert_eq!(std::fs::read(&journal_path).unwrap(), whole);
        // The publish left no staging file behind.
        let after = fsck(&dir, false).unwrap();
        assert!(after.healthy(), "{after:?}");
        assert_eq!(after.orphaned, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// fsck's verdict on the one file `file` of `dir` after writing
    /// `bytes` there.
    fn verdict_of(dir: &Path, file: &str, bytes: &[u8]) -> String {
        std::fs::write(dir.join(file), bytes).unwrap();
        let report = fsck(dir, false).unwrap();
        let entry = report.entries.iter().find(|e| e.file == file).unwrap();
        entry.verdict.clone()
    }

    /// Judged alone (no journal to consult), every strict prefix of a
    /// sealed store entry or sealed telemetry manifest reads `torn`, and a
    /// 0xFF byte at any offset of the complete file reads `corrupt` — a
    /// manifest that is not UTF-8 exists, so it is never `ok` as absent.
    #[test]
    fn a_cut_file_is_torn_and_a_rotted_file_is_corrupt() {
        let dir = temp_dir("cut-and-rot");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = key_for("softmax", 5);
        let entry = entry_for(&key, 5);
        let manifest = cuasmrl::RunManifest::new(
            "a100",
            "service",
            "greedy",
            0,
            1,
            vec![cuasmrl::KernelTelemetry::cached(&entry.report)],
            1.25,
        );
        cuasmrl::persist_run_manifest(&UnsyncedIo, &dir, &manifest).unwrap();
        let manifest_file = "a100_service_telemetry.json".to_string();
        let manifest_bytes = std::fs::read(dir.join(&manifest_file)).unwrap();
        let entry_file = format!("{}.json", key.file_stem());
        let entry_bytes = serde_json::to_string_pretty(&entry).unwrap().into_bytes();

        for (file, sealed) in [(entry_file, entry_bytes), (manifest_file, manifest_bytes)] {
            assert_eq!(verdict_of(&dir, &file, &sealed), "ok", "{file}");
            for cut in 0..sealed.len() {
                assert_eq!(
                    verdict_of(&dir, &file, &sealed[..cut]),
                    "torn",
                    "{file} cut to {cut} of {} bytes",
                    sealed.len()
                );
            }
            for offset in 0..sealed.len() {
                let mut rotted = sealed.clone();
                rotted[offset] = 0xFF;
                assert_eq!(
                    verdict_of(&dir, &file, &rotted),
                    "corrupt",
                    "{file} with 0xFF at {offset}"
                );
            }
            std::fs::write(dir.join(&file), &sealed).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_generation_entries_are_flagged() {
        let dir = temp_dir("stale");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ScheduleStore::open(&dir, 8).unwrap();
        let key = key_for("softmax", 9);
        store.put(&key, entry_for(&key, 9)).unwrap();
        // Forge an entry from "the future": stamp a generation far beyond
        // the journal's (a mixed store directory / restored newer backup).
        let mut future = entry_for(&key, 9);
        future.generation = 10_000;
        std::fs::write(
            store.entry_path(&key),
            serde_json::to_string_pretty(&future).unwrap(),
        )
        .unwrap();
        drop(store);
        let report = fsck(&dir, false).unwrap();
        assert_eq!(report.stale_generation, 1, "{report:?}");
        assert!(!report.healthy());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
