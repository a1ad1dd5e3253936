//! Offline verification and repair of a store directory — the library
//! behind the `cuasmrld-fsck` binary.
//!
//! [`fsck`] walks a (cold) store directory and classifies every file into
//! the verdict taxonomy of `docs/SERVICE.md`:
//!
//! | verdict | meaning |
//! |---|---|
//! | `ok` | decodes, checksum verifies, answers the request its file names |
//! | `torn` | an interrupted write: the bytes end before the format does |
//! | `corrupt` | complete bytes that are not a valid instance, fail their checksum, carry another format version, or answer another request than their file names |
//! | `orphaned` | crash debris: unpublished temp files and a retired `journal.wal` — exactly what the next store open sweeps |
//!
//! With `repair`, every non-ok file is moved (never deleted) into the
//! [`QUARANTINE_DIR`] subdirectory. fsck writes no byte itself: a
//! quarantined entry is recomputed on demand, exactly as the daemon heals
//! a damaged one, so a repaired directory holds only states the store
//! legitimately passed through — the pre-or-post guarantee the crash-point
//! sweep proves.

use std::io;
use std::path::Path;

use artifact::ArtifactError;
use serde::{Deserialize, Serialize};

use crate::store::{is_store_debris, ScheduleStore, JOURNAL_FILE};

/// Version of the fsck report's JSON schema (stable for scripting; bumped
/// on any field-level change). v2 dropped the `journal` section and the
/// `stale_generation` count with the store's journal.
pub const FSCK_SCHEMA_VERSION: u32 = 2;

/// Subdirectory quarantined files are moved into. Quarantine is a move,
/// never a delete: the bytes stay available for forensics, and the store
/// ignores the subdirectory entirely.
pub const QUARANTINE_DIR: &str = "quarantine";

/// The per-file verdict taxonomy (serialized in kebab-case strings — see
/// the module docs table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryVerdict {
    /// Decodes, checksum verifies, answers the request its file names.
    Ok,
    /// An interrupted write: bytes that end before the format does.
    Torn,
    /// Complete bytes that are not a valid instance, checksum failure,
    /// format-version skew, or an entry answering another request.
    Corrupt,
    /// Crash debris the next store open sweeps.
    Orphaned,
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

/// The stable JSON report of one fsck run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FsckReport {
    /// [`FSCK_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The directory walked.
    pub store_dir: String,
    /// Whether this run repaired.
    pub repair: bool,
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
    /// Non-ok files repair quarantined.
    pub repaired: usize,
    /// Files moved into [`QUARANTINE_DIR`].
    pub quarantined: usize,
    /// Quarantines that failed (I/O errors) — the only thing that leaves
    /// a repaired store unhealthy.
    pub unrepairable: usize,
}

impl FsckReport {
    /// Whether the walked store needs no attention: every file ok (after
    /// repair: nothing unrepairable).
    #[must_use]
    pub fn healthy(&self) -> bool {
        if self.repair {
            self.unrepairable == 0
        } else {
            self.torn == 0 && self.corrupt == 0 && self.orphaned == 0
        }
    }
}

struct Walk<'a> {
    dir: &'a Path,
    repair: bool,
    report: FsckReport,
}

impl Walk<'_> {
    /// Moves a damaged file aside. The one rename outside
    /// [`artifact::publish_atomic`]: it relocates damage and publishes nothing.
    fn quarantine(&mut self, name: &str) -> io::Result<()> {
        let quarantine = self.dir.join(QUARANTINE_DIR);
        std::fs::create_dir_all(&quarantine)?;
        std::fs::rename(self.dir.join(name), quarantine.join(name))?;
        self.report.quarantined += 1;
        Ok(())
    }

    /// Quarantines one non-ok file under repair; returns the action taken
    /// and keeps the repaired/unrepairable tallies.
    fn repair_file(&mut self, name: &str) -> String {
        if !self.repair {
            return String::new();
        }
        match self.quarantine(name) {
            Ok(()) => {
                self.report.repaired += 1;
                "quarantined".to_string()
            }
            Err(err) => {
                self.report.unrepairable += 1;
                format!("quarantine failed: {err}")
            }
        }
    }

    /// The one damage arm of every file family: a file its reader refused
    /// is `torn` when its bytes end before its format does and `corrupt`
    /// otherwise, and is repaired either way.
    fn record_damage(&mut self, name: &str, err: &ArtifactError) {
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
        let action = self.repair_file(name);
        self.record(name.to_string(), verdict, detail, action);
    }

    fn record(&mut self, file: String, verdict: EntryVerdict, detail: String, action: String) {
        match verdict {
            EntryVerdict::Ok => self.report.ok += 1,
            EntryVerdict::Torn => self.report.torn += 1,
            EntryVerdict::Corrupt => self.report.corrupt += 1,
            EntryVerdict::Orphaned => self.report.orphaned += 1,
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
/// — when `repair` is set — quarantining every non-ok file.
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
            entries: Vec::new(),
            ok: 0,
            torn: 0,
            corrupt: 0,
            orphaned: 0,
            repaired: 0,
            quarantined: 0,
            unrepairable: 0,
        },
    };
    let names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    for name in names {
        let path = dir.join(&name);
        if is_store_debris(&name) {
            let detail = if name == JOURNAL_FILE {
                "retired write-ahead journal (the store keeps none; it held no acknowledged put)"
            } else {
                "unpublished temp file (crash debris; the rename never happened)"
            };
            let action = walk.repair_file(&name);
            walk.record(name, EntryVerdict::Orphaned, detail.to_string(), action);
            continue;
        }
        if name.ends_with("_telemetry.json") {
            classify_keyed(&mut walk, &name, "_telemetry.json", |gpu, suite| {
                let manifest = cuasmrl::load_run_manifest_checked(dir, gpu, suite)?;
                Ok(manifest.map(|m| format!("manifest with {} kernels verified", m.kernels.len())))
            });
            continue;
        }
        if name.ends_with("_suite.json") {
            classify_keyed(&mut walk, &name, "_suite.json", |gpu, suite| {
                let report = cuasmrl::load_suite_report(dir, gpu, suite)?;
                Ok(report.map(|r| format!("suite report of {} kernels verified", r.reports.len())))
            });
            continue;
        }
        if name.ends_with(".ckpt") {
            // A bad checkpoint only costs a cold restart of that search;
            // quarantining it is the whole repair.
            let read = rl::Checkpoint::read(&path)
                .map(|_| Some("training checkpoint verified".to_string()));
            classify(&mut walk, &name, read);
            continue;
        }
        if cuasmrl::is_deploy_record_file(&name) {
            let read = cuasmrl::read_deploy_record(&path).map(|report| {
                report.map(|report| format!("deploy record of {} verified", report.kernel))
            });
            classify(&mut walk, &name, read);
            continue;
        }
        if name.ends_with(".json") {
            let read = ScheduleStore::decode_entry(&path)
                .map(|entry| Some(format!("checksum {} verified", entry.checksum)));
            classify(&mut walk, &name, read);
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
    walk.report.entries.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(walk.report)
}

/// Records `name`'s verdict from its family reader's answer: a
/// description of the file it verified, `None` when the file raced away,
/// or the damage it found.
fn classify(walk: &mut Walk<'_>, name: &str, read: Result<Option<String>, ArtifactError>) {
    match read {
        Ok(Some(detail)) => walk.record(name.to_string(), EntryVerdict::Ok, detail, String::new()),
        Ok(None) => walk.record(
            name.to_string(),
            EntryVerdict::Ok,
            "absent (raced away)".to_string(),
            String::new(),
        ),
        Err(err) => walk.record_damage(name, &err),
    }
}

/// Classifies one sealed `{gpu}_{suite}{suffix}` file — a telemetry
/// manifest or a suite report — through `read`, its family's reader, which
/// describes the file it verified (`None`: the file raced away).
fn classify_keyed(
    walk: &mut Walk<'_>,
    name: &str,
    suffix: &str,
    read: impl FnOnce(&str, &str) -> Result<Option<String>, ArtifactError>,
) {
    let key = name.trim_end_matches(suffix);
    let Some((gpu, suite)) = key.rsplit_once('_') else {
        walk.record(
            name.to_string(),
            EntryVerdict::Corrupt,
            "unparseable file name".to_string(),
            String::new(),
        );
        return;
    };
    classify(walk, name, read(gpu, suite));
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
        assert_eq!(report.schema_version, FSCK_SCHEMA_VERSION);
        assert!(!dir.join(JOURNAL_FILE).exists(), "a put writes no journal");
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
        let keep = key_for("softmax", 1);
        let torn = key_for("bmm", 2);
        let rot = key_for("rmsnorm", 3);
        let store = ScheduleStore::open(&dir, 8).unwrap();
        for (key, seed) in [(&keep, 1), (&torn, 2), (&rot, 3)] {
            store.put(key, entry_for(key, seed)).unwrap();
        }
        let keep_bytes = std::fs::read(store.entry_path(&keep)).unwrap();
        let torn_path = store.entry_path(&torn);
        let torn_bytes = std::fs::read(&torn_path).unwrap();
        // Torn: cut the file mid-JSON. Corrupt: flip the recorded checksum.
        std::fs::write(&torn_path, &torn_bytes[..torn_bytes.len() / 3]).unwrap();
        let mut damaged = entry_for(&rot, 3);
        damaged.checksum = "beefbeefbeefbeef".to_string();
        std::fs::write(
            store.entry_path(&rot),
            serde_json::to_string_pretty(&damaged).unwrap(),
        )
        .unwrap();
        // Orphan: planted temp debris.
        std::fs::write(dir.join(".zzz.tmp.999"), "{").unwrap();
        drop(store);

        let dry = fsck(&dir, false).unwrap();
        assert!(!dry.healthy());
        assert_eq!(dry.torn, 1);
        assert_eq!(dry.corrupt, 1);
        assert_eq!(dry.orphaned, 1);
        assert_eq!(dry.ok, 1);

        // Repair: quarantine all three; the damaged entries are recomputed
        // on demand.
        let repaired = fsck(&dir, true).unwrap();
        assert!(repaired.healthy(), "{repaired:?}");
        assert_eq!(repaired.unrepairable, 0);
        assert_eq!(repaired.quarantined, 3);
        assert_eq!(repaired.repaired, 3);
        assert_eq!(
            std::fs::read(
                dir.join(QUARANTINE_DIR)
                    .join(torn_path.file_name().unwrap())
            )
            .unwrap(),
            &torn_bytes[..torn_bytes.len() / 3]
        );
        // The untouched entry is byte-identical and the directory is
        // healthy.
        assert_eq!(
            std::fs::read(dir.join(format!("{}.json", keep.file_stem()))).unwrap(),
            keep_bytes
        );
        assert!(fsck(&dir, false).unwrap().healthy());
        let reopened = ScheduleStore::open(&dir, 8).unwrap();
        assert!(reopened.get(&keep).unwrap().is_some());
        for key in [&torn, &rot] {
            assert!(reopened.get(key).unwrap().is_none(), "recomputed on demand");
        }
        assert_eq!(reopened.stats().skipped_at_open, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Key A's sealed entry copied onto key B's file decodes and verifies,
    /// but answers A: fsck calls it `corrupt`, and repair quarantines it.
    #[test]
    fn an_entry_on_another_requests_file_is_corrupt() {
        let dir = temp_dir("provenance");
        let _ = std::fs::remove_dir_all(&dir);
        let a = key_for("softmax", 1);
        let b = key_for("bmm", 2);
        let store = ScheduleStore::open(&dir, 8).unwrap();
        store.put(&a, entry_for(&a, 1)).unwrap();
        std::fs::copy(store.entry_path(&a), store.entry_path(&b)).unwrap();
        drop(store);

        let dry = fsck(&dir, false).unwrap();
        assert_eq!((dry.ok, dry.corrupt), (1, 1), "{dry:?}");
        let b_file = format!("{}.json", b.file_stem());
        let verdict = dry.entries.iter().find(|e| e.file == b_file).unwrap();
        assert_eq!(verdict.verdict, "corrupt");
        assert!(verdict.detail.contains(&a.file_stem()), "{verdict:?}");
        let repaired = fsck(&dir, true).unwrap();
        assert_eq!((repaired.quarantined, repaired.unrepairable), (1, 0));
        assert!(fsck(&dir, false).unwrap().healthy());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-kernel `a100` suite report of `entry`'s answer under `suite`.
    fn suite_of(entry: &StoreEntry, suite: &str) -> cuasmrl::SuiteReport {
        cuasmrl::SuiteReport {
            gpu: "a100".to_string(),
            suite: suite.to_string(),
            seed: entry.seed,
            reports: vec![entry.report.clone()],
            geomean_speedup: entry.report.speedup,
            verified: 1,
        }
    }

    /// A sealed suite report is `ok` — not a store entry missing its
    /// fields — and repair quarantines only a damaged one.
    #[test]
    fn a_suite_report_is_verified_and_only_a_damaged_one_is_quarantined() {
        let dir = temp_dir("suite-report");
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_for("softmax", 4);
        let entry = entry_for(&key, 4);
        for suite in ["table2", "attention"] {
            cuasmrl::persist_suite_report(&artifact::UnsyncedIo, &dir, &suite_of(&entry, suite))
                .unwrap();
        }
        let healthy = fsck(&dir, false).unwrap();
        assert!(healthy.healthy(), "{healthy:?}");
        assert_eq!(healthy.ok, 2);
        assert_eq!(
            healthy.entries[1].detail,
            "suite report of 1 kernels verified"
        );

        let good = dir.join("a100_table2_suite.json");
        let damaged = dir.join("a100_attention_suite.json");
        let good_bytes = std::fs::read(&good).unwrap();
        let bytes = std::fs::read(&damaged).unwrap();
        std::fs::write(&damaged, &bytes[..bytes.len() - 5]).unwrap();
        let repaired = fsck(&dir, true).unwrap();
        assert_eq!((repaired.ok, repaired.torn), (1, 1), "{repaired:?}");
        assert_eq!((repaired.quarantined, repaired.unrepairable), (1, 0));
        assert!(dir
            .join(QUARANTINE_DIR)
            .join("a100_attention_suite.json")
            .exists());
        assert!(!damaged.exists());
        assert_eq!(std::fs::read(&good).unwrap(), good_bytes);
        assert!(fsck(&dir, false).unwrap().healthy());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The file name and bytes of a deploy record answering with `report`,
    /// published in a directory of its own.
    fn deploy_record_of(report: &cuasmrl::OptimizationReport) -> (String, Vec<u8>) {
        let dir = temp_dir("deploy-record");
        let _ = std::fs::remove_dir_all(&dir);
        let space = kernels::ConfigSpace::small();
        cuasmrl::CuAsmRl::new(
            gpusim::GpuConfig::small(),
            cuasmrl::Strategy::Greedy { max_moves: 1 },
        )
        .with_cache_dir(&dir)
        .deploy_key(
            &kernels::KernelSpec::scaled(kernels::KernelKind::Softmax, 16),
            &space,
            &gpusim::MeasureOptions::default(),
        )
        .unwrap()
        .publish(&artifact::UnsyncedIo, space.candidates[0], report)
        .unwrap();
        let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
        let file = entry.file_name().to_string_lossy().into_owned();
        let bytes = std::fs::read(entry.path()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (file, bytes)
    }

    /// The deploy records, suite report and manifest a real suite pass
    /// leaves in its cache directory are `ok`, and repair moves none of
    /// them; a record copied onto another key's file answers that key with
    /// another key's answer, so it reads `corrupt`.
    #[test]
    fn a_suite_pass_cache_dir_is_healthy_and_a_record_on_another_keys_file_is_corrupt() {
        let dir = temp_dir("suite-pass");
        let _ = std::fs::remove_dir_all(&dir);
        let measure = gpusim::MeasureOptions {
            warmup: 0,
            repeats: 2,
            noise_std: 0.0,
            seed: 0,
        };
        let specs = [
            kernels::KernelSpec::scaled(kernels::KernelKind::Softmax, 16),
            kernels::KernelSpec::scaled(kernels::KernelKind::Rmsnorm, 16),
        ];
        let (suite, _manifest) = cuasmrl::SuiteOptimizer::new(
            gpusim::GpuConfig::small(),
            cuasmrl::Strategy::Greedy { max_moves: 2 },
        )
        .with_tune_options(measure.clone())
        .with_config_space(kernels::ConfigSpace::small())
        .with_game_config(cuasmrl::GameConfig {
            episode_length: 4,
            measure,
            ..cuasmrl::GameConfig::default()
        })
        .with_cache_dir(&dir)
        .optimize_labeled_instrumented(&specs, "custom");
        assert_eq!(suite.reports.len(), 2);
        let records: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| cuasmrl::is_deploy_record_file(name))
            .collect();
        assert_eq!(records.len(), 2, "one record per kernel");

        let dry = fsck(&dir, false).unwrap();
        assert!(dry.healthy(), "{dry:?}");
        assert_eq!(dry.ok, 4, "two records, the suite report and the manifest");
        for record in &records {
            let entry = dry.entries.iter().find(|e| &e.file == record).unwrap();
            assert!(entry.detail.starts_with("deploy record of "), "{entry:?}");
        }
        let repaired = fsck(&dir, true).unwrap();
        assert_eq!((repaired.ok, repaired.quarantined), (4, 0), "{repaired:?}");
        assert!(!dir.join(QUARANTINE_DIR).exists());

        std::fs::copy(dir.join(&records[0]), dir.join(&records[1])).unwrap();
        let dry = fsck(&dir, false).unwrap();
        assert_eq!((dry.ok, dry.corrupt), (3, 1), "{dry:?}");
        let entry = dry.entries.iter().find(|e| e.file == records[1]).unwrap();
        assert_eq!(entry.verdict, "corrupt", "{entry:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// fsck's verdict on the one file `file` of `dir` after writing
    /// `bytes` there.
    fn verdict_of(dir: &Path, file: &str, bytes: &[u8]) -> String {
        // A fresh file each time: ext4 flushes a file truncated and
        // rewritten in place when it is closed, and this runs once per cut
        // and per byte.
        let _ = std::fs::remove_file(dir.join(file));
        std::fs::write(dir.join(file), bytes).unwrap();
        let report = fsck(dir, false).unwrap();
        let entry = report.entries.iter().find(|e| e.file == file).unwrap();
        entry.verdict.clone()
    }

    /// Every strict prefix of a store entry, telemetry manifest, suite
    /// report, deploy record or training checkpoint reads `torn` (the seal
    /// decides it by the body length it declares, the entry by its JSON),
    /// and a 0xFF byte written over any other byte of the complete file
    /// reads `corrupt` —
    /// a sealed file that is not UTF-8 exists, so it is never `ok` as
    /// absent.
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
        );
        cuasmrl::persist_run_manifest(&artifact::UnsyncedIo, &dir, &manifest).unwrap();
        let manifest_file = "a100_service_telemetry.json".to_string();
        let manifest_bytes = std::fs::read(dir.join(&manifest_file)).unwrap();
        let entry_file = format!("{}.json", key.file_stem());
        let entry_bytes = serde_json::to_string_pretty(&entry).unwrap().into_bytes();
        cuasmrl::persist_suite_report(&artifact::UnsyncedIo, &dir, &suite_of(&entry, "table2"))
            .unwrap();
        let report_file = "a100_table2_suite.json".to_string();
        let report_bytes = std::fs::read(dir.join(&report_file)).unwrap();
        let (record_file, record_bytes) = deploy_record_of(&entry.report);
        let mut env = rl::test_envs::BanditEnv::new(8);
        let mut trainer = rl::PpoTrainer::new(rl::PpoConfig::tiny(), 3, 3);
        trainer.train_updates(&mut env, 1);
        let checkpoint_bytes = trainer.checkpoint(&env).unwrap().to_bytes();
        // Each family is swept alone in the directory.
        for file in [&manifest_file, &report_file] {
            std::fs::remove_file(dir.join(file)).unwrap();
        }

        for (file, sealed) in [
            (entry_file, entry_bytes),
            (manifest_file, manifest_bytes),
            (report_file, report_bytes),
            (record_file, record_bytes),
            ("search.ckpt".to_string(), checkpoint_bytes),
        ] {
            assert_eq!(verdict_of(&dir, &file, &sealed), "ok", "{file}");
            for cut in 0..sealed.len() {
                assert_eq!(
                    verdict_of(&dir, &file, &sealed[..cut]),
                    "torn",
                    "{file} cut to {cut} of {} bytes",
                    sealed.len()
                );
            }
            // A checkpoint body holds 0xFF bytes of its own; rot is a
            // changed byte.
            for offset in (0..sealed.len()).filter(|&at| sealed[at] != 0xFF) {
                let mut rotted = sealed.clone();
                rotted[offset] = 0xFF;
                assert_eq!(
                    verdict_of(&dir, &file, &rotted),
                    "corrupt",
                    "{file} with 0xFF at {offset}"
                );
            }
            std::fs::remove_file(dir.join(&file)).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest sealed under another version, or written before the seal
    /// (version 0), is format version skew, not a checksum mismatch: the
    /// runbook's disk-corruption alarm stays for damage.
    #[test]
    fn a_manifest_from_another_seal_version_reads_as_version_skew() {
        let dir = temp_dir("seal-skew");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = cuasmrl::RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new());
        cuasmrl::persist_run_manifest(&artifact::UnsyncedIo, &dir, &manifest).unwrap();
        let file = "a100_service_telemetry.json";
        let sealed = std::fs::read_to_string(dir.join(file)).unwrap();
        let version = cuasmrl::TELEMETRY_SCHEMA_VERSION;
        let skewed = sealed.replacen(
            &format!("{{\"seal\":{{\"version\":{version},"),
            &format!("{{\"seal\":{{\"version\":{},", version + 1),
            1,
        );
        assert_ne!(skewed, sealed, "the seal names its version");
        let bare = serde_json::to_string_pretty(&manifest).unwrap();
        let pre_seal = format!(
            "{{\n  \"seal_version\": 1,\n  \"checksum\": \"0123456789abcdef\",\n  \"manifest\": {bare}\n}}"
        );
        for (bytes, found) in [(skewed, version + 1), (pre_seal, 0)] {
            std::fs::write(dir.join(file), bytes).unwrap();
            let report = fsck(&dir, false).unwrap();
            let entry = report.entries.iter().find(|e| e.file == file).unwrap();
            assert_eq!(entry.verdict, "corrupt", "{entry:?}");
            assert_eq!(
                entry.detail,
                format!("format version skew: file is v{found}, this build reads v{version}"),
                "{entry:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
