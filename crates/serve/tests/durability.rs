//! The durability crash-point sweep: kill the store at EVERY I/O boundary
//! of a full sweep/write/evict/overwrite/reopen cycle, under every crash
//! effect (before / torn / after), and prove that recovery — plain reopen
//! or `cuasmrld-fsck --repair` — always lands every key on a state the
//! store legitimately passed through: absent, the first written value, or
//! the second. Never a third state. At every one of those crash points
//! fsck's verdict also predicts the reopen: the files it calls non-ok are
//! exactly the debris the next open sweeps, and no entry file is ever
//! torn — a put is one atomic publish.
//!
//! The op list is not hard-coded: a recording run enumerates the cycle's
//! actual I/O sequence ([`CrashPointIo::recording`]), so the sweep stays
//! exhaustive when the store's I/O pattern changes.
//!
//! The same sweep then runs over the families that publish outside the
//! store — RL checkpoints and the three sealed JSON families (telemetry
//! manifests, deploy-cache records, suite reports) — each read back with
//! its production reader: the old artifact or the new one, and nothing in
//! the directory but recognisable debris.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use artifact::{is_temp_debris, UnsyncedIo};
use cuasmrld::store::is_store_debris;
use cuasmrld::{
    decode_entry_bytes, fsck, is_simulated_crash, ArtifactError, CanonicalRequest, CrashEffect,
    CrashPoint, CrashPointIo, OptimizeRequest, RequestDefaults, RequestKey, ScheduleStore,
    StoreEntry, StoreIo, JOURNAL_FILE, STORE_SCHEMA_VERSION,
};

fn key_for(kernel: &str, seed: u64) -> RequestKey {
    let mut request = OptimizeRequest::table2(kernel, "ampere");
    request.seed = Some(seed);
    let canonical: CanonicalRequest = request
        .canonicalize(&RequestDefaults { scale: 16, seed: 0 })
        .unwrap();
    RequestKey::of(&canonical)
}

/// A deterministic sealed entry; `seed` also varies the content so the two
/// values a key passes through have distinct checksums.
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
            optimized_listing: format!("; schedule for seed {seed}"),
            moves: Vec::new(),
        },
    }
    .seal()
}

fn temp_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cuasmrld-durability-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

struct Cycle {
    a: RequestKey,
    b: RequestKey,
    c: RequestKey,
    /// The two values key B passes through (put, then overwrite).
    b_first: StoreEntry,
    b_second: StoreEntry,
    a_value: StoreEntry,
    c_value: StoreEntry,
}

impl Cycle {
    fn new() -> Cycle {
        let a = key_for("softmax", 1);
        let b = key_for("bmm", 2);
        let c = key_for("rmsnorm", 3);
        Cycle {
            b_first: entry_for(&b, 2),
            b_second: entry_for(&b, 22),
            a_value: entry_for(&a, 1),
            c_value: entry_for(&c, 3),
            a,
            b,
            c,
        }
    }

    /// One full store lifetime: open over planted crash debris (its sweep
    /// is the cycle's `remove` boundary; capacity 2, so the third put
    /// evicts from memory), three puts, a disk-path get, an overwrite of B
    /// with its second value, a reopen, and a disk-path get of A (the
    /// reopen loads the first two entry files by name; a failed load is a
    /// skipped entry, so it is this get that surfaces a kill there).
    fn run(&self, dir: &Path, io: Arc<dyn StoreIo>) -> Result<(), ArtifactError> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(".planted.json.tmp.4242.1"), b"{ half")?;
        let store = ScheduleStore::open_with_io(dir, 2, Arc::clone(&io))?;
        store.put(&self.a, self.a_value.clone())?;
        store.put(&self.b, self.b_first.clone())?;
        store.put(&self.c, self.c_value.clone())?;
        // A was evicted from memory by the third put: this get takes the
        // disk read path, adding a read boundary to the sweep.
        let read_back = store.get(&self.a)?;
        assert!(read_back.is_some(), "a published entry reads back");
        store.put(&self.b, self.b_second.clone())?;
        drop(store);
        let store = ScheduleStore::open_with_io(dir, 2, io)?;
        let read_back = store.get(&self.a)?;
        assert!(read_back.is_some(), "the reopened store serves A");
        Ok(())
    }

    /// Runs the cycle into a fresh `dir`, killed at `point`.
    fn crash(&self, dir: &Path, point: CrashPoint, label: &str) {
        let _ = std::fs::remove_dir_all(dir);
        let io = Arc::new(CrashPointIo::crash_at(point));
        let err = self
            .run(dir, Arc::clone(&io) as Arc<dyn StoreIo>)
            .expect_err(&format!("{label}: the crash point must fire"));
        match err {
            ArtifactError::Io(err) => {
                assert!(is_simulated_crash(&err), "{label}: unexpected error {err}")
            }
            other => panic!("{label}: unexpected error {other}"),
        }
        assert!(io.crashed(), "{label}: the crash point must fire");
    }

    /// Asserts every key sits on a state the cycle legitimately passed
    /// through: absent, or a decodable entry whose content checksum is one
    /// of the values written for that key.
    fn assert_no_third_state(&self, dir: &Path, label: &str) {
        let legal: [(&RequestKey, Vec<&str>); 3] = [
            (&self.a, vec![self.a_value.checksum.as_str()]),
            (
                &self.b,
                vec![
                    self.b_first.checksum.as_str(),
                    self.b_second.checksum.as_str(),
                ],
            ),
            (&self.c, vec![self.c_value.checksum.as_str()]),
        ];
        for (key, checksums) in legal {
            let path = dir.join(format!("{}.json", key.file_stem()));
            let bytes = match std::fs::read(&path) {
                // Absent is the pre-write state: legal.
                Err(err) if err.kind() == io::ErrorKind::NotFound => continue,
                Err(err) => panic!("{label}: {} unreadable: {err}", path.display()),
                Ok(bytes) => bytes,
            };
            let entry = decode_entry_bytes(&path, &bytes).unwrap_or_else(|err| {
                panic!(
                    "{label}: {} does not decode after recovery: {err}",
                    path.display()
                )
            });
            assert!(
                checksums.contains(&entry.checksum.as_str()),
                "{label}: {} holds a third state (checksum {}, legal {:?})",
                path.display(),
                entry.checksum,
                checksums
            );
        }
    }
}

/// Recovery path (a): just reopen the store — open is recovery (it sweeps
/// the debris).
fn recover_by_reopen(cycle: &Cycle, dir: &Path, label: &str) {
    let store = ScheduleStore::open(dir, 2)
        .unwrap_or_else(|err| panic!("{label}: reopen after crash failed: {err}"));
    cycle.assert_no_third_state(dir, label);
    // The reopened store serves every surviving key.
    for key in [&cycle.a, &cycle.b, &cycle.c] {
        if dir.join(format!("{}.json", key.file_stem())).exists() {
            let entry = store
                .get(key)
                .unwrap_or_else(|err| panic!("{label}: get after recovery failed: {err}"));
            assert!(entry.is_some(), "{label}: present entry must serve");
        }
    }
}

/// Recovery path (b): offline `cuasmrld-fsck --repair`, then reopen.
fn recover_by_fsck(cycle: &Cycle, dir: &Path, label: &str) {
    let report = fsck(dir, true).unwrap_or_else(|err| panic!("{label}: fsck failed: {err}"));
    assert_eq!(
        report.unrepairable, 0,
        "{label}: fsck left unrepairable damage: {report:?}"
    );
    cycle.assert_no_third_state(dir, label);
    let store = ScheduleStore::open(dir, 2)
        .unwrap_or_else(|err| panic!("{label}: reopen after fsck failed: {err}"));
    drop(store);
    cycle.assert_no_third_state(dir, label);
}

/// The cycle's I/O sequence, from a recording run.
fn recorded_ops(cycle: &Cycle) -> Vec<cuasmrld::IoOp> {
    let record_dir = temp_dir("record");
    let _ = std::fs::remove_dir_all(&record_dir);
    let recorder = Arc::new(CrashPointIo::recording());
    cycle
        .run(&record_dir, Arc::clone(&recorder) as Arc<dyn StoreIo>)
        .expect("the clean cycle completes");
    let _ = std::fs::remove_dir_all(&record_dir);
    recorder.ops()
}

#[test]
fn the_sweep_covers_every_io_boundary_and_recovery_never_invents_state() {
    // 1. Enumerate the cycle's I/O sequence with a recording run.
    let cycle = Cycle::new();
    let ops = recorded_ops(&cycle);
    assert!(
        ops.len() >= 12,
        "the cycle must exercise a real I/O sequence, got {ops:?}"
    );
    // Every operation kind the store performs shows up — the sweep
    // genuinely enumerates its whole surface — and it appends nothing: a
    // put is one atomic publish, with no journal in front of it.
    for kind in ["read", "write", "rename", "remove"] {
        assert!(
            ops.iter().any(|op| op.kind == kind),
            "cycle never performed a {kind}; ops: {ops:?}"
        );
    }
    assert!(ops.iter().all(|op| op.kind != "append"), "{ops:?}");

    // 2. The sweep proper: for every ordinal x every crash effect, run the
    // cycle to its deterministic death, then recover — alternating between
    // the two recovery paths so both are exercised across the whole op
    // range — and assert the pre-or-post-write guarantee.
    let effects = [CrashEffect::Before, CrashEffect::Torn, CrashEffect::After];
    let mut scenarios = 0usize;
    for ordinal in 0..ops.len() as u64 {
        for (which, effect) in effects.into_iter().enumerate() {
            let label = format!(
                "ordinal {ordinal} ({}) {effect}",
                ops[ordinal as usize].kind
            );
            let dir = temp_dir(&format!("sweep-{ordinal}-{which}"));
            cycle.crash(&dir, CrashPoint { ordinal, effect }, &label);
            // Alternate the recovery path; both sides of the alternation
            // cover every ordinal because the three effects split between
            // them at every position.
            if (ordinal as usize + which).is_multiple_of(2) {
                recover_by_reopen(&cycle, &dir, &label);
            } else {
                recover_by_fsck(&cycle, &dir, &label);
            }
            let _ = std::fs::remove_dir_all(&dir);
            scenarios += 1;
        }
    }
    assert_eq!(scenarios, ops.len() * 3);
}

/// The files of `dir` and their bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn fsck_verify_predicts_what_reopen_sweeps_at_every_crash_point() {
    let cycle = Cycle::new();
    let ops = recorded_ops(&cycle);
    let mut swept = 0usize;
    for op in &ops {
        for effect in [CrashEffect::Before, CrashEffect::Torn, CrashEffect::After] {
            let label = format!("ordinal {} ({}) {effect}", op.ordinal, op.kind);
            let point = CrashPoint {
                ordinal: op.ordinal,
                effect,
            };

            // What verify calls non-ok is debris, never a torn entry…
            let dir = temp_dir(&format!("predict-{}-{effect}", op.ordinal));
            cycle.crash(&dir, point, &label);
            let report = fsck(&dir, false).unwrap();
            assert_eq!(report.torn + report.corrupt, 0, "{label}: {report:?}");
            let predicted: Vec<&str> = report
                .entries
                .iter()
                .filter(|e| e.verdict != "ok")
                .map(|e| e.file.as_str())
                .collect();
            assert!(
                predicted.iter().all(|file| is_store_debris(file)),
                "{label}: {report:?}"
            );
            // …and is exactly what the next open sweeps, which writes
            // nothing and leaves every other file as it was.
            let before = files(&dir);
            let store = ScheduleStore::open(&dir, 2)
                .unwrap_or_else(|err| panic!("{label}: reopen failed: {err}"));
            let after = files(&dir);
            let removed: Vec<&str> = before
                .iter()
                .filter(|file| !after.contains(file))
                .map(|(name, _)| name.as_str())
                .collect();
            assert_eq!(predicted, removed, "{label}: {report:?}");
            assert!(
                after.iter().all(|file| before.contains(file)),
                "{label}: the reopen wrote"
            );
            assert_eq!(store.stats().tmp_swept, predicted.len(), "{label}");
            assert_eq!(store.stats().skipped_at_open, 0, "{label}");
            swept += predicted.len();
            drop(store);
            cycle.assert_no_third_state(&dir, &label);
            let _ = std::fs::remove_dir_all(&dir);

            // And a repair leaves a directory verify calls healthy.
            cycle.crash(&dir, point, &label);
            let repaired = fsck(&dir, true).unwrap();
            assert_eq!(repaired.unrepairable, 0, "{label}: {repaired:?}");
            let again = fsck(&dir, false).unwrap();
            assert!(again.healthy(), "{label}: after repair {again:?}");
            cycle.assert_no_third_state(&dir, &label);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    // The sweep crosses kills between a publish's write and its rename:
    // at least one crash point leaves debris for the reopen to sweep.
    assert!(swept > 0, "no crash point left debris");
}

/// A store directory as the journaled build left it — sealed entries
/// stamped with journal generations, beside a `journal.wal` — upgrades
/// without a recompute: verify calls the journal `orphaned` and every
/// entry `ok`, the open removes the journal and serves every entry, and
/// a repair of a second copy leaves it healthy.
#[test]
fn a_store_left_by_the_journaled_build_upgrades_without_recompute() {
    let cycle = Cycle::new();
    let dirs = [temp_dir("upgrade-open"), temp_dir("upgrade-repair")];
    let entries = [
        (&cycle.a, &cycle.a_value),
        (&cycle.b, &cycle.b_second),
        (&cycle.c, &cycle.c_value),
    ];
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        for (generation, (key, value)) in (1u64..).zip(entries) {
            let mut stamped = value.clone();
            stamped.generation = generation;
            let bytes = serde_json::to_string_pretty(&stamped).unwrap();
            std::fs::write(dir.join(format!("{}.json", key.file_stem())), bytes).unwrap();
        }
        std::fs::write(
            dir.join(JOURNAL_FILE),
            b"CASRLWAL\x01\0\0\0 arbitrary bytes",
        )
        .unwrap();
    }

    let dry = fsck(&dirs[0], false).unwrap();
    assert_eq!(
        (dry.ok, dry.orphaned, dry.entries.len()),
        (3, 1, 4),
        "{dry:?}"
    );
    let journal = dry.entries.iter().find(|e| e.file == JOURNAL_FILE).unwrap();
    assert_eq!(journal.verdict, "orphaned");

    let store = ScheduleStore::open(&dirs[0], 2).unwrap();
    assert!(!dirs[0].join(JOURNAL_FILE).exists());
    for (key, value) in entries {
        let entry = store.get(key).unwrap().expect("the entry serves");
        assert_eq!(entry.checksum, value.checksum);
    }
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.skipped_at_open), (3, 0, 0));
    assert_eq!(stats.tmp_swept, 1);
    drop(store);
    assert!(fsck(&dirs[0], false).unwrap().healthy());

    let repaired = fsck(&dirs[1], true).unwrap();
    assert_eq!((repaired.quarantined, repaired.unrepairable), (1, 0));
    let after = fsck(&dirs[1], false).unwrap();
    assert!(after.healthy() && after.ok == 3, "{after:?}");
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_completed_cycle_recovers_to_its_full_post_state() {
    // The degenerate sweep point: a crash point beyond the op list never
    // fires, so recovery sees the complete post-state — every key present
    // with its final value.
    let cycle = Cycle::new();
    let dir = temp_dir("post");
    let _ = std::fs::remove_dir_all(&dir);
    cycle.run(&dir, Arc::new(cuasmrld::RealIo)).unwrap();
    let store = ScheduleStore::open(&dir, 2).unwrap();
    let a = store.get(&cycle.a).unwrap().expect("a survives");
    assert_eq!(a.checksum, cycle.a_value.checksum);
    let b = store.get(&cycle.b).unwrap().expect("b survives");
    assert_eq!(
        b.checksum, cycle.b_second.checksum,
        "b holds its overwritten value"
    );
    let c = store.get(&cycle.c).unwrap().expect("c survives");
    assert_eq!(c.checksum, cycle.c_value.checksum);
    drop(store);
    // And fsck agrees the recovered directory is healthy.
    let report = fsck(&dir, false).unwrap();
    assert!(report.healthy(), "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills one artifact family's publish of a new version over an old one at
/// every recorded I/O ordinal x effect. `publish(io, dir, new)` writes the
/// old or the new version of the artifact named `file` into `dir`;
/// `read(dir)` is the family's production reader, returning a fingerprint
/// of what it decoded and panicking on anything it cannot decode.
fn sweep_family_publish(
    family: &str,
    file: &str,
    publish: &dyn Fn(&dyn StoreIo, &Path, bool) -> io::Result<()>,
    read: &dyn Fn(&Path) -> Vec<u8>,
) {
    let fresh_dir_with_old = |label: &str| {
        let dir = temp_dir(&format!("{family}-{label}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        publish(&UnsyncedIo, &dir, false).expect("the old version publishes");
        dir
    };

    // The clean publish: its op log is the sweep's range, its two ends the
    // only legal fingerprints.
    let dir = fresh_dir_with_old("record");
    let old = read(&dir);
    let recorder = CrashPointIo::recording();
    publish(&recorder, &dir, true).expect("the new version publishes");
    let new = read(&dir);
    assert_ne!(old, new, "{family}: the two versions must differ");
    let ops = recorder.ops();
    let kinds: Vec<&str> = ops.iter().map(|op| op.kind).collect();
    assert_eq!(kinds, ["write", "rename"], "{family}: one atomic publish");
    let _ = std::fs::remove_dir_all(&dir);

    for op in &ops {
        for effect in [CrashEffect::Before, CrashEffect::Torn, CrashEffect::After] {
            let label = format!("{family}: ordinal {} ({}) {effect}", op.ordinal, op.kind);
            let dir = fresh_dir_with_old(&format!("{}-{effect}", op.ordinal));
            let io = CrashPointIo::crash_at(CrashPoint {
                ordinal: op.ordinal,
                effect,
            });
            let err = publish(&io, &dir, true).expect_err(&label);
            assert!(is_simulated_crash(&err), "{label}: unexpected error {err}");
            // Only a completed rename publishes; every earlier kill leaves
            // the old artifact exactly as it was.
            let published = op.kind == "rename" && effect == CrashEffect::After;
            let expected = if published { &new } else { &old };
            assert!(
                read(&dir) == *expected,
                "{label}: the reader saw a third state"
            );
            let others: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|name| name != file)
                .collect();
            assert!(
                others.len() <= 1 && others.iter().all(|name| is_temp_debris(name)),
                "{label}: left {others:?} beside {file}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_killed_checkpoint_save_leaves_the_old_checkpoint_or_the_new_one() {
    let mut env = rl::test_envs::BanditEnv::new(8);
    let mut trainer = rl::PpoTrainer::new(rl::PpoConfig::tiny(), 3, 3);
    let mut versions = Vec::new();
    for _ in 0..2 {
        trainer.train_updates(&mut env, 1);
        versions.push(trainer.checkpoint(&env).expect("the bandit snapshots"));
    }
    sweep_family_publish(
        "checkpoint",
        "search.ckpt",
        &|io, dir, new| {
            versions[usize::from(new)]
                .write(io, &dir.join("search.ckpt"))
                .map_err(|err| match err {
                    ArtifactError::Io(err) => err,
                    other => panic!("only I/O can fail a save: {other}"),
                })
        },
        &|dir| {
            rl::Checkpoint::read(&dir.join("search.ckpt"))
                .expect("the checkpoint decodes and verifies")
                .to_bytes()
        },
    );
}

#[test]
fn a_killed_manifest_persist_leaves_the_old_manifest_or_the_new_one() {
    let version = |new: bool| {
        cuasmrl::RunManifest::new("a100", "service", "greedy", u64::from(new), 1, Vec::new())
    };
    sweep_family_publish(
        "manifest",
        "a100_service_telemetry.json",
        &|io, dir, new| cuasmrl::persist_run_manifest(io, dir, &version(new)),
        &|dir| {
            let manifest = cuasmrl::load_run_manifest_checked(dir, "a100", "service")
                .expect("the manifest decodes and verifies")
                .expect("a manifest is present");
            serde_json::to_string(&manifest).unwrap().into_bytes()
        },
    );
}

#[test]
fn a_killed_deploy_cache_store_leaves_the_old_report_or_the_new_one() {
    let spec = kernels::KernelSpec::scaled(kernels::KernelKind::Softmax, 16);
    let space = kernels::ConfigSpace::small();
    let options = gpusim::MeasureOptions::default();
    let best = space.candidates[0];
    let key_in = |dir: &Path| {
        cuasmrl::CuAsmRl::new(
            gpusim::GpuConfig::small(),
            cuasmrl::Strategy::Greedy { max_moves: 1 },
        )
        .with_cache_dir(dir)
        .deploy_key(&spec, &space, &options)
        .expect("a cache directory is configured")
    };
    let version = |new: bool| cuasmrl::OptimizationReport {
        kernel: "softmax".to_string(),
        baseline_us: 10.0,
        optimized_us: if new { 8.0 } else { 9.0 },
        speedup: if new { 1.25 } else { 1.0 },
        verified: true,
        optimized_listing: String::new(),
        moves: Vec::new(),
    };
    // The record's file name hashes its key: learn it from one publish.
    let probe = temp_dir("deploy-cache-name");
    let _ = std::fs::remove_dir_all(&probe);
    key_in(&probe)
        .publish(&UnsyncedIo, best, &version(false))
        .expect("the probe publishes");
    let file = std::fs::read_dir(&probe)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .next()
        .expect("one record");
    let _ = std::fs::remove_dir_all(&probe);
    sweep_family_publish(
        "deploy-cache",
        &file,
        &|io, dir, new| key_in(dir).publish(io, best, &version(new)),
        &|dir| {
            let (read_best, report) = key_in(dir)
                .read(&space)
                .expect("the cached record decodes and verifies")
                .expect("the record matches its key");
            assert_eq!(read_best, best);
            serde_json::to_string(&report).unwrap().into_bytes()
        },
    );
}

#[test]
fn a_killed_suite_report_persist_leaves_the_old_report_or_the_new_one() {
    let version = |new: bool| cuasmrl::SuiteReport {
        gpu: "a100".to_string(),
        suite: "table2".to_string(),
        seed: 0,
        reports: Vec::new(),
        geomean_speedup: if new { 1.25 } else { 1.0 },
        verified: 0,
    };
    sweep_family_publish(
        "suite-report",
        "a100_table2_suite.json",
        &|io, dir, new| cuasmrl::persist_suite_report(io, dir, &version(new)),
        &|dir| {
            let suite = cuasmrl::load_suite_report(dir, "a100", "table2")
                .expect("the suite report decodes and verifies")
                .expect("a suite report is present");
            serde_json::to_string(&suite).unwrap().into_bytes()
        },
    );
}

#[test]
fn checkpoint_staging_files_are_debris_the_store_and_fsck_recognise() {
    // What a kill between a checkpoint save's write and its rename leaves:
    // `.{stem}.ckpt.tmp.{pid}.{seq}`.
    let key = key_for("softmax", 1);
    let staged = format!(".{}.ckpt.tmp.4242.7", key.file_stem());
    let dirs = [temp_dir("ckpt-debris-open"), temp_dir("ckpt-debris-fsck")];
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
        let store = ScheduleStore::open(dir, 2).unwrap();
        store.put(&key, entry_for(&key, 1)).unwrap();
        drop(store);
        std::fs::write(dir.join(&staged), b"CASRLCKP half a checkpoint").unwrap();
    }

    // Reopening sweeps it…
    let store = ScheduleStore::open(&dirs[0], 2).unwrap();
    assert_eq!(store.stats().tmp_swept, 1);
    assert!(!dirs[0].join(&staged).exists());
    assert!(store.get(&key).unwrap().is_some());

    // …and offline fsck names it, then quarantines it.
    let dry = fsck(&dirs[1], false).unwrap();
    assert_eq!(dry.orphaned, 1, "{dry:?}");
    let verdict = dry.entries.iter().find(|e| e.file == staged).unwrap();
    assert_eq!(verdict.verdict, "orphaned");
    let repaired = fsck(&dirs[1], true).unwrap();
    assert_eq!(repaired.unrepairable, 0, "{repaired:?}");
    assert!(!dirs[1].join(&staged).exists());
    assert!(dirs[1]
        .join(cuasmrld::QUARANTINE_DIR)
        .join(&staged)
        .exists());
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
