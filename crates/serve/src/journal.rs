//! The store's checksummed append-only write-ahead journal.
//!
//! The store's one mutation, [`crate::ScheduleStore::put`], is appended
//! here — fsynced — *before* the per-entry JSON file is touched. A kill at
//! any later boundary is therefore recoverable: replay on the next open
//! rewrites whatever the crash interrupted, and a kill *during* the append
//! itself leaves a torn tail that truncates away, making the interrupted
//! write absent. The guarantee is always pre-write or post-write bytes,
//! never a third state.
//!
//! ## On-disk format (`journal.wal`)
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic `CASRLWAL` |
//! | 4 | format version, u32 LE ([`JOURNAL_FORMAT_VERSION`]) |
//! | 8 | generation, u64 LE (bumped on every rotation) |
//! | per record: 4 | payload length, u32 LE |
//! | per record: n | payload — JSON of one [`JournalOp`] |
//! | per record: 8 | FNV-1a-64 of the payload, u64 LE (the `rl::Checkpoint` trailer style) |
//!
//! Replay walks records until the first anomaly (short length word, short
//! payload, checksum mismatch, undecodable JSON) and reports everything
//! after it as the torn tail. Because appends are strictly ordered before
//! the entry-file writes they cover, a torn tail can only be the single
//! mutation in flight at the kill.
//!
//! The journal has one interpretation, [`unapplied`]: the last record per
//! stem whose entry file does not hold its bytes. The store's open
//! rewrites those files and `cuasmrld-fsck` reports them `torn`, so the
//! offline verdict is exactly what the next open will do.
//!
//! Entry files are written eagerly at put time, so journal records go
//! redundant quickly; rotation (an atomic temp+rename of a fresh header at
//! generation+1) retires them. The store rotates on every open and every
//! [`crate::ScheduleStore::JOURNAL_ROTATE_EVERY`] appends.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use artifact::{fnv1a64, publish_atomic, StoreIo};
use serde::{Deserialize, Serialize};

use crate::store::StoreEntry;

/// File name of the journal inside a store directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Leading magic of a journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"CASRLWAL";

/// Version of the journal's binary layout. Bumped on any layout change;
/// another version is treated as a damaged header (the journal is
/// evidence, not truth — entry files survive it).
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// Upper bound on one record's payload, mirroring the wire protocol's
/// frame cap: a length word beyond this is torn-tail garbage, not a real
/// record.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

const HEADER_LEN: usize = 8 + 4 + 8;

/// One journaled write. An enum so the record keeps its externally tagged
/// `{"Put": {stem, entry}}` bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JournalOp {
    /// An entry was (about to be) written to `{stem}.json`.
    Put {
        /// The entry's file stem ([`crate::RequestKey::file_stem`]).
        stem: String,
        /// The full entry, so replay can rewrite the file byte-identically.
        entry: StoreEntry,
    },
}

impl JournalOp {
    /// The file stem this write targets.
    #[must_use]
    pub fn stem(&self) -> &str {
        let JournalOp::Put { stem, .. } = self;
        stem
    }
}

/// A journaled write the entry files do not reflect (see [`unapplied`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnappliedPut {
    /// The entry file the record covers, `{stem}.json`.
    pub file: String,
    /// The file's post-write bytes, exactly as `put` publishes them.
    pub bytes: String,
    /// Whether the file is absent (otherwise it holds other bytes).
    pub missing: bool,
}

/// What replaying a journal found.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Generation recorded in the header (0 when the file was absent or
    /// its header was damaged).
    pub generation: u64,
    /// The valid records, in append order.
    pub ops: Vec<JournalOp>,
    /// Whether a torn tail (or mid-file damage) was truncated away.
    pub torn_tail: bool,
    /// Whether the header itself was unreadable (wrong magic/version or
    /// short file) — the whole file is then treated as evidence-free.
    pub damaged_header: bool,
}

/// The append side of the journal. Owned by the store (under its inner
/// mutex), so appends are strictly ordered with the writes they cover.
pub struct Journal {
    path: PathBuf,
    io: Arc<dyn StoreIo>,
    generation: u64,
    appends_since_rotate: u64,
}

impl Journal {
    /// Opens the journal inside `dir`, replaying whatever is on disk. Does
    /// not create or truncate anything — the caller applies the replay and
    /// then calls [`Journal::rotate`], which is what establishes the fresh
    /// file.
    ///
    /// # Errors
    ///
    /// Propagates real filesystem errors; a missing journal is not an
    /// error (first boot), and a damaged one is reported in the
    /// [`JournalReplay`], not thrown.
    pub fn open(dir: &Path, io: Arc<dyn StoreIo>) -> io::Result<(Journal, JournalReplay)> {
        let path = dir.join(JOURNAL_FILE);
        let replay = match io.read(&path) {
            Ok(bytes) => decode(&bytes),
            Err(err) if err.kind() == io::ErrorKind::NotFound => JournalReplay::default(),
            Err(err) => return Err(err),
        };
        let journal = Journal {
            path,
            io,
            generation: replay.generation,
            appends_since_rotate: 0,
        };
        Ok((journal, replay))
    }

    /// The current generation (what new entries are stamped with).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records appended since the last rotation.
    #[must_use]
    pub fn appends_since_rotate(&self) -> u64 {
        self.appends_since_rotate
    }

    /// Appends one record, fsynced. This is the write-ahead step: it MUST
    /// complete before the entry file it covers is touched.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error; the caller must then abandon the
    /// covered write (the record may be torn, which replay truncates).
    pub fn append(&mut self, op: &JournalOp) -> io::Result<()> {
        self.io.append(&self.path, &record(op)?)?;
        self.appends_since_rotate += 1;
        Ok(())
    }

    /// Atomically replaces the journal with a fresh, empty one at
    /// generation+1. Only safe once every record is reflected in its entry
    /// file — which the store guarantees by writing entry files eagerly at
    /// put time and by publishing [`unapplied`] before the open's rotation.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error. A crash before the rename leaves
    /// the old journal (replay stays idempotent); after it, the fresh one.
    pub fn rotate(&mut self) -> io::Result<()> {
        let next = self.generation + 1;
        publish_atomic(self.io.as_ref(), &self.path, &encode(next, &[]))?;
        self.generation = next;
        self.appends_since_rotate = 0;
        Ok(())
    }
}

/// The journal's one interpretation: for each stem, its last record, kept
/// when the entry file is missing or holds other bytes — the writes a kill
/// interrupted after their append. In order of each stem's last record.
/// `ScheduleStore::open` publishes these and `cuasmrld-fsck` reports them
/// `torn`.
///
/// # Errors
///
/// Propagates a read error other than `NotFound` on an entry file.
pub fn unapplied(dir: &Path, io: &dyn StoreIo, ops: &[JournalOp]) -> io::Result<Vec<UnappliedPut>> {
    let mut last_per_stem: Vec<&JournalOp> = Vec::new();
    for op in ops {
        last_per_stem.retain(|seen| seen.stem() != op.stem());
        last_per_stem.push(op);
    }
    let mut pending = Vec::new();
    for JournalOp::Put { stem, entry } in last_per_stem {
        let file = format!("{stem}.json");
        let bytes = serde_json::to_string_pretty(entry).unwrap_or_default();
        let current = match io.read(&dir.join(&file)) {
            Ok(current) => Some(current),
            Err(err) if err.kind() == io::ErrorKind::NotFound => None,
            Err(err) => return Err(err),
        };
        if current.as_deref() != Some(bytes.as_bytes()) {
            pending.push(UnappliedPut {
                file,
                bytes,
                missing: current.is_none(),
            });
        }
    }
    Ok(pending)
}

/// One record's bytes: length word, JSON payload, FNV-1a-64 trailer.
fn record(op: &JournalOp) -> io::Result<Vec<u8>> {
    let payload = serde_json::to_string(op)
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?
        .into_bytes();
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "record too large"))?;
    let mut record = Vec::with_capacity(4 + payload.len() + 8);
    record.extend_from_slice(&len.to_le_bytes());
    record.extend_from_slice(&payload);
    record.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    Ok(record)
}

/// Decodes a journal image: header, then records until the first anomaly.
#[must_use]
pub fn decode(bytes: &[u8]) -> JournalReplay {
    let mut replay = JournalReplay::default();
    if bytes.len() < HEADER_LEN
        || bytes[..8] != JOURNAL_MAGIC
        || u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) != JOURNAL_FORMAT_VERSION
    {
        replay.damaged_header = true;
        return replay;
    }
    replay.generation = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let mut offset = HEADER_LEN;
    while offset < bytes.len() {
        let Some(len_word) = bytes.get(offset..offset + 4) else {
            replay.torn_tail = true;
            break;
        };
        let len = u32::from_le_bytes([len_word[0], len_word[1], len_word[2], len_word[3]]);
        if len > MAX_RECORD_LEN {
            replay.torn_tail = true;
            break;
        }
        let len = len as usize;
        let Some(payload) = bytes.get(offset + 4..offset + 4 + len) else {
            replay.torn_tail = true;
            break;
        };
        let Some(trailer) = bytes.get(offset + 4 + len..offset + 4 + len + 8) else {
            replay.torn_tail = true;
            break;
        };
        let recorded = u64::from_le_bytes([
            trailer[0], trailer[1], trailer[2], trailer[3], trailer[4], trailer[5], trailer[6],
            trailer[7],
        ]);
        if recorded != fnv1a64(payload) {
            replay.torn_tail = true;
            break;
        }
        let Ok(op) = std::str::from_utf8(payload)
            .map_err(|_| ())
            .and_then(|text| serde_json::from_str::<JournalOp>(text).map_err(|_| ()))
        else {
            replay.torn_tail = true;
            break;
        };
        replay.ops.push(op);
        offset += 4 + len + 8;
    }
    replay
}

/// Encodes a header + records image (the inverse of [`decode`]; the
/// rotation's fresh header, and the tests' fixtures).
#[must_use]
pub fn encode(generation: u64, ops: &[JournalOp]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    bytes.extend_from_slice(&JOURNAL_MAGIC);
    bytes.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&generation.to_le_bytes());
    for op in ops {
        bytes.extend(record(op).unwrap_or_default());
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StoreEntry, STORE_SCHEMA_VERSION};
    use proptest::prelude::*;

    fn entry(stem: &str, seed: u64) -> StoreEntry {
        StoreEntry {
            schema_version: STORE_SCHEMA_VERSION,
            canonical: format!("canonical-{stem}"),
            arch: "ampere".to_string(),
            kernel: stem.to_string(),
            seed,
            generation: 0,
            checksum: String::new(),
            report: cuasmrl::OptimizationReport {
                kernel: stem.to_string(),
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

    /// `count` puts over `count / 2 + 1` stems, so later records overwrite
    /// earlier ones.
    fn ops_fixture(count: u64) -> Vec<JournalOp> {
        (0..count)
            .map(|i| JournalOp::Put {
                stem: format!("k{}", i / 2),
                entry: entry(&format!("k{}", i / 2), i),
            })
            .collect()
    }

    #[test]
    fn records_round_trip_through_encode_decode() {
        let ops = ops_fixture(7);
        let image = encode(3, &ops);
        let replay = decode(&image);
        assert_eq!(replay.generation, 3);
        assert_eq!(replay.ops.len(), 7);
        assert!(!replay.torn_tail && !replay.damaged_header);
        for (original, decoded) in ops.iter().zip(&replay.ops) {
            assert_eq!(original.stem(), decoded.stem());
        }
    }

    #[test]
    fn a_damaged_header_yields_no_evidence() {
        assert!(decode(b"short").damaged_header);
        let mut image = encode(1, &ops_fixture(2));
        image[0] ^= 0xFF;
        let replay = decode(&image);
        assert!(replay.damaged_header);
        assert!(replay.ops.is_empty());
    }

    #[test]
    fn torn_tails_truncate_to_the_longest_valid_prefix() {
        let ops = ops_fixture(4);
        let image = encode(2, &ops);
        // Chop mid-way through the last record.
        let torn = &image[..image.len() - 5];
        let replay = decode(torn);
        assert_eq!(replay.generation, 2);
        assert_eq!(replay.ops.len(), 3, "the in-flight record is absent");
        assert!(replay.torn_tail);
    }

    /// A record as earlier releases wrote it — payload and trailer taken
    /// verbatim from a journal, generation 3.
    const PINNED_PAYLOAD: &str = r#"{"Put":{"stem":"k0","entry":{"schema_version":2,"canonical":"canonical-k0","arch":"ampere","kernel":"k0","seed":7,"generation":3,"checksum":"767b7d8831c123e6","report":{"kernel":"k0","baseline_us":10.0,"optimized_us":8.0,"speedup":1.25,"verified":true,"optimized_listing":"","moves":[]}}}}"#;
    const PINNED_TRAILER: u64 = 0xf79b_af41_d16d_6c4e;

    #[test]
    fn a_pinned_put_record_replays_unchanged() {
        let mut image = encode(3, &[]);
        image.extend_from_slice(&(PINNED_PAYLOAD.len() as u32).to_le_bytes());
        image.extend_from_slice(PINNED_PAYLOAD.as_bytes());
        image.extend_from_slice(&PINNED_TRAILER.to_le_bytes());
        let replay = decode(&image);
        assert!(!replay.torn_tail && !replay.damaged_header);
        assert_eq!(replay.generation, 3);
        let [JournalOp::Put { stem, entry }] = replay.ops.as_slice() else {
            panic!("one record: {:?}", replay.ops);
        };
        assert_eq!(stem, "k0");
        assert_eq!(entry.checksum, entry.content_checksum());
        assert_eq!(
            serde_json::to_string(&replay.ops[0]).unwrap(),
            PINNED_PAYLOAD
        );
        assert_eq!(encode(3, &replay.ops), image, "re-encodes byte for byte");

        // The store's open applies it: the entry file appears with the
        // bytes `put` would have published.
        let dir = std::env::temp_dir().join(format!("cuasmrld-journal-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), &image).unwrap();
        let store = crate::ScheduleStore::open(&dir, 4).unwrap();
        assert_eq!(store.stats().journal_replayed, 1);
        assert_eq!(
            std::fs::read_to_string(dir.join("k0.json")).unwrap(),
            serde_json::to_string_pretty(entry).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unapplied_keeps_the_last_put_per_stem_the_files_do_not_hold() {
        let dir =
            std::env::temp_dir().join(format!("cuasmrld-journal-unapplied-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // k0: two records, the file holds the first (an interrupted
        // overwrite). k1: the file holds its record. k2: no file.
        let ops = ops_fixture(6);
        let pretty = |op: &JournalOp| {
            let JournalOp::Put { entry, .. } = op;
            serde_json::to_string_pretty(entry).unwrap()
        };
        std::fs::write(dir.join("k0.json"), pretty(&ops[0])).unwrap();
        std::fs::write(dir.join("k1.json"), pretty(&ops[3])).unwrap();
        let pending = unapplied(&dir, &artifact::RealIo, &ops).unwrap();
        assert_eq!(
            pending,
            [
                UnappliedPut {
                    file: "k0.json".to_string(),
                    bytes: pretty(&ops[1]),
                    missing: false,
                },
                UnappliedPut {
                    file: "k2.json".to_string(),
                    bytes: pretty(&ops[5]),
                    missing: true,
                },
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Any truncation point yields a valid prefix of the appended
        // records — never a phantom record, never a panic. This is the
        // crash model: a kill mid-append leaves an arbitrary prefix.
        #[test]
        fn replay_of_any_truncation_is_a_valid_prefix(
            count in 1u64..6,
            cut_back in 0usize..64,
        ) {
            let ops = ops_fixture(count);
            let image = encode(1, &ops);
            let cut = image.len().saturating_sub(cut_back);
            let replay = decode(&image[..cut]);
            if !replay.damaged_header {
                prop_assert!(replay.ops.len() <= ops.len());
                for (original, decoded) in ops.iter().zip(&replay.ops) {
                    prop_assert_eq!(original.stem(), decoded.stem());
                }
                // Anything dropped is flagged, never silent.
                if replay.ops.len() < ops.len() {
                    prop_assert!(replay.torn_tail);
                }
            }
        }

        // A single flipped byte anywhere in the record region is caught by
        // the per-record checksum: replay stops at (or before) the damaged
        // record and flags it.
        #[test]
        fn replay_of_any_single_byte_flip_never_invents_records(
            count in 1u64..5,
            position in 0usize..512,
            flip in 1u8..255,
        ) {
            let ops = ops_fixture(count);
            let mut image = encode(1, &ops);
            let position = HEADER_LEN + position % (image.len() - HEADER_LEN);
            image[position] ^= flip;
            let replay = decode(&image);
            prop_assert!(!replay.damaged_header);
            // The flip strikes exactly one record; the per-record checksum
            // stops replay there, so the damaged record and everything
            // after it are dropped — and what survives is the untouched
            // prefix, never a reinterpretation.
            prop_assert!(replay.ops.len() < ops.len());
            prop_assert!(replay.torn_tail);
            for (original, decoded) in ops.iter().zip(&replay.ops) {
                prop_assert_eq!(original.stem(), decoded.stem());
            }
        }
    }
}
