//! How an artifact becomes visible on disk.
//!
//! Everything this workspace produces is a file — schedule-store entries,
//! RL checkpoints, telemetry manifests, deploy-cache and suite reports — and every one of them is published the same way. This
//! crate sits at the bottom of the dependency graph (no first-party
//! dependency) and owns that decision and its inverse, reading a file
//! back:
//!
//! - [`StoreIo`] — the injectable filesystem layer, with [`RealIo`]
//!   (fsynced, directory included: store entries), [`UnsyncedIo`] (the
//!   same calls without `sync_all`: every rebuildable family) and
//!   [`CrashPointIo`] (deterministic kill at any I/O ordinal, for the
//!   durability sweeps). Which of the two unit implementations a family
//!   publishes through is fixed at its call site.
//! - [`publish_atomic`] — the only write-then-rename in first-party code.
//! - [`is_temp_debris`] — the rule that recognises what a kill between
//!   that write and that rename leaves behind.
//! - [`fnv1a64`] / [`fnv1a64_hex`] — the checksum every integrity format
//!   (entry, seal, request digest) is built on.
//! - [`ArtifactError`] — what every family's reader answers when the file
//!   is damaged. The rule: a file whose bytes end before its format does
//!   is **torn** (an interrupted write); a file whose bytes are complete
//!   but not a valid instance is **corrupt** (damage in place). Version
//!   skew and a failed checksum are named separately, and both count as
//!   corrupt. [`decode_json`] applies it to store entries.
//! - [`sealed`] / [`open`] — the one envelope of every rebuildable family
//!   (telemetry manifest, deploy-cache record, suite report, RL
//!   checkpoint): family version, body length and a checksum of the body
//!   bytes. [`seal_bytes`] publishes a sealed body; [`seal`] / [`unseal`]
//!   are the JSON families' typed wrappers.
//!
//! `docs/ARTIFACTS.md` tabulates the families: integrity format, synced or
//! rebuildable, and who sweeps the debris.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod io;
mod seal;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

pub use error::{decode_json, ArtifactError};
pub use io::{
    is_simulated_crash, CrashEffect, CrashPoint, CrashPointIo, IoOp, RealIo, StoreIo, UnsyncedIo,
};
pub use seal::{open, seal, seal_bytes, sealed, unseal};

/// FNV-1a-64 of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// [`fnv1a64`] as the 16 lower-case hex digits the JSON formats record.
#[must_use]
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Whether `file_name` is a staging file of [`publish_atomic`] — by
/// construction unpublished (its rename never happened), so removing or
/// quarantining it is always safe.
#[must_use]
pub fn is_temp_debris(file_name: &str) -> bool {
    file_name.starts_with('.') && file_name.contains(".tmp.")
}

/// Distinguishes the staging files of one process's concurrent publishes.
static PUBLISH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Publishes `bytes` at `path` so that readers — and a crash at any
/// point — see the old file or the new one, never a mix: exactly one
/// `io.write` of a sibling staging file, then one `io.rename` over `path`.
///
/// The staging file is named `.{file_name}.tmp.{pid}.{seq}`: unique per
/// call, so concurrent publishes of one target each rename their own file
/// and the last one wins, and always matched by [`is_temp_debris`].
/// Whether the bytes are synced before the rename is the `io`'s property;
/// creating the directory is the caller's.
///
/// # Errors
///
/// Propagates the write's or the rename's error; either leaves at most
/// debris beside an untouched `path`.
pub fn publish_atomic(io: &dyn StoreIo, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let temp = path.with_file_name(format!(
        ".{}.tmp.{}.{}",
        path.file_name().unwrap_or_default().to_string_lossy(),
        std::process::id(),
        PUBLISH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    io.write(&temp, bytes)?;
    io.rename(&temp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a64_hex(b"").len(), 16);
    }

    #[test]
    fn publishes_of_one_target_stage_under_distinct_debris_names() {
        let dir = std::env::temp_dir().join(format!("artifact-publish-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("report.json");
        let io = CrashPointIo::recording();
        publish_atomic(&io, &target, b"first").unwrap();
        publish_atomic(&io, &target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");

        let ops = io.ops();
        let kinds: Vec<&str> = ops.iter().map(|op| op.kind).collect();
        assert_eq!(kinds, ["write", "rename", "write", "rename"]);
        // Renames are logged under their target, writes under the staging
        // file: two different names, both recognised as debris.
        assert_eq!(ops[1].file, "report.json");
        assert_eq!(ops[3].file, "report.json");
        assert_ne!(ops[0].file, ops[2].file);
        for staged in [&ops[0].file, &ops[2].file] {
            assert!(staged.starts_with(".report.json.tmp."), "{staged}");
            assert!(is_temp_debris(staged), "{staged}");
        }
        assert!(!is_temp_debris("report.json"));
        assert!(!is_temp_debris("journal.wal"));
        // Nothing but the published file is left.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
