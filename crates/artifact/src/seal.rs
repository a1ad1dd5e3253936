//! The one sealed envelope of every rebuildable family — telemetry
//! manifest, deploy-cache record, suite report, RL checkpoint — and its
//! reader.
//!
//! ```text
//! {"seal":{"version":V,"len":N,"fnv1a64":"HHHHHHHHHHHHHHHH"},"body":
//! BODY}
//! ```
//!
//! `BODY` is exactly `N` bytes, and the checksum is FNV-1a-64 of those
//! bytes as they sit on disk: a publish encodes once, and a read hashes the
//! bytes it then decodes. [`sealed`] and [`open`] are the envelope at the
//! byte level, and a body may be any bytes: the checkpoint's is its binary
//! codec. [`seal`] and [`unseal`] are the JSON families' wrappers, whose
//! body is the value's compact JSON, so the file stays one JSON document
//! whose first line is the whole header.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::{error::damaged, fnv1a64_hex, publish_atomic, ArtifactError, StoreIo};

/// How every sealed file begins; the family's version follows.
const OPEN: &str = "{\"seal\":{\"version\":";
/// How the header line ends; the body follows on the next line.
const BODY_KEY: &str = "\"},\"body\":";
/// What follows the body.
const CLOSE: &[u8] = b"}\n";

/// `body` sealed under the family version `version`: the header line, the
/// body, then `}` and a newline.
#[must_use]
pub fn sealed(version: u32, body: &[u8]) -> Vec<u8> {
    let (len, hash) = (body.len(), fnv1a64_hex(body));
    let header = format!("{OPEN}{version},\"len\":{len},\"fnv1a64\":\"{hash}{BODY_KEY}\n");
    [header.as_bytes(), body, CLOSE].concat()
}

/// Publishes `body` at `path` through `io` ([`publish_atomic`]), sealed
/// under the family version `version` ([`sealed`]), creating the directory
/// first.
///
/// # Errors
///
/// Returns an IO error when the directory cannot be created or written.
pub fn seal_bytes(io: &dyn StoreIo, path: &Path, version: u32, body: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    publish_atomic(io, path, &sealed(version, body))
}

/// [`seal_bytes`] of `value`'s compact JSON.
///
/// # Errors
///
/// Returns an IO error when `value` does not serialise or the directory
/// cannot be created or written.
pub fn seal<T: Serialize>(
    io: &dyn StoreIo,
    path: &Path,
    version: u32,
    value: &T,
) -> std::io::Result<()> {
    let body = serde_json::to_string(value).map_err(std::io::Error::other)?;
    seal_bytes(io, path, version, body.as_bytes())
}

/// Reads the sealed JSON file at `path` back as a `T` of the family version
/// `version`: `Ok(None)` only when there is no file.
///
/// # Errors
///
/// [`ArtifactError::Io`] when the file cannot be read, every error of
/// [`open`], then [`ArtifactError::Corrupt`] when a body that passes its
/// checksum does not decode as a `T`.
pub fn unseal<T: Deserialize>(path: &Path, version: u32) -> Result<Option<T>, ArtifactError> {
    match std::fs::read(path) {
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(None),
        read => decode(path, open(path, &read?, version)?).map(Some),
    }
}

/// The JSON `body` of the sealed file `path` as a `T`.
fn decode<T: Deserialize>(path: &Path, body: &[u8]) -> Result<T, ArtifactError> {
    std::str::from_utf8(body)
        .map_err(|err| err.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|err| err.to_string()))
        .map_err(|detail| damaged(path, false, detail))
}

/// The body of `bytes`, the sealed file `path` holds, checked against the
/// family version `version`.
///
/// # Errors
///
/// In this precedence: [`ArtifactError::Torn`] when the bytes end inside
/// the header line or before the declared body length;
/// [`ArtifactError::Corrupt`] for a malformed header or an unclosed body;
/// [`ArtifactError::UnsupportedVersion`] for another version (bytes that do
/// not begin as a seal, as every earlier layout, are version 0);
/// [`ArtifactError::ChecksumMismatch`].
pub fn open<'a>(path: &Path, bytes: &'a [u8], version: u32) -> Result<&'a [u8], ArtifactError> {
    let skew = |found| ArtifactError::UnsupportedVersion {
        path: path.to_path_buf(),
        found,
        supported: version,
    };
    if !bytes.starts_with(OPEN.as_bytes()) && !OPEN.as_bytes().starts_with(bytes) {
        return Err(skew(0));
    }
    let Some(newline) = bytes.iter().position(|b| *b == b'\n') else {
        return Err(damaged(path, true, "the file ends inside the seal".into()));
    };
    let (header, rest) = (&bytes[..newline], &bytes[newline + 1..]);
    let fields = std::str::from_utf8(header)
        .ok()
        .and_then(|header| header.strip_prefix(OPEN)?.strip_suffix(BODY_KEY))
        .and_then(|fields| {
            let (found, fields) = fields.split_once(",\"len\":")?;
            let (len, recorded) = fields.split_once(",\"fnv1a64\":\"")?;
            Some((found.parse().ok()?, len.parse::<usize>().ok()?, recorded))
        });
    let Some((found, len, recorded)) = fields else {
        return Err(damaged(path, false, "malformed seal".into()));
    };
    if rest.len() < len.saturating_add(CLOSE.len()) {
        let detail = format!("the seal declares {len} body bytes, {} follow", rest.len());
        return Err(damaged(path, true, detail));
    }
    let (body, close) = rest.split_at(len);
    if close != CLOSE {
        return Err(damaged(path, false, "the body is not closed".into()));
    }
    if found != version {
        return Err(skew(found));
    }
    let computed = fnv1a64_hex(body);
    if computed != recorded {
        return Err(ArtifactError::ChecksumMismatch {
            path: path.to_path_buf(),
            recorded: recorded.to_string(),
            computed,
        });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;
    use crate::UnsyncedIo;

    const VERSION: u32 = 2;

    fn value() -> Vec<(String, u32)> {
        vec![("softmax".to_string(), 4), ("naïve".to_string(), 7)]
    }

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "artifact-seal-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The bytes of `value()` sealed under `version`.
    fn sealed_value(version: u32) -> Vec<u8> {
        let dir = temp_dir(&format!("bytes-v{version}"));
        let path = dir.join("sealed.json");
        seal(&UnsyncedIo, &path, version, &value()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    fn read(bytes: &[u8]) -> Result<Vec<(String, u32)>, ArtifactError> {
        let path = Path::new("sealed.json");
        decode(path, open(path, bytes, VERSION)?)
    }

    /// The offset just past the first `key` in `bytes`.
    fn after(bytes: &[u8], key: &[u8]) -> usize {
        bytes.windows(key.len()).position(|w| w == key).unwrap() + key.len()
    }

    /// Where the body of `bytes` starts and ends.
    fn body_range(bytes: &[u8]) -> std::ops::Range<usize> {
        after(bytes, b"\"body\":\n")..bytes.len() - CLOSE.len()
    }

    #[test]
    fn a_sealed_file_reads_back_and_stays_one_json_document() {
        let dir = temp_dir("round-trip");
        let path = dir.join("nested").join("sealed.json");
        assert!(unseal::<Vec<(String, u32)>>(&path, VERSION)
            .unwrap()
            .is_none());
        seal(&UnsyncedIo, &path, VERSION, &value()).unwrap();
        assert_eq!(unseal(&path, VERSION).unwrap(), Some(value()));
        let bytes = std::fs::read(&path).unwrap();
        let body = &bytes[body_range(&bytes)];
        assert_eq!(body, serde_json::to_string(&value()).unwrap().as_bytes());
        let header = format!(
            "{OPEN}{VERSION},\"len\":{},\"fnv1a64\":\"{}\"}},\"body\":\n",
            body.len(),
            fnv1a64_hex(body)
        );
        assert_eq!(&bytes[..header.len()], header.as_bytes());
        let document: serde::Value = crate::decode_json(&path, &bytes).unwrap();
        let serde::Value::Map(fields) = document else {
            panic!("{document:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["seal", "body"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A body may be any bytes: newlines, `}` and non-UTF-8 bytes inside
    /// it are the body's, told apart from the envelope by the declared
    /// length. `seal` writes exactly `sealed` of the value's JSON.
    #[test]
    fn a_binary_body_opens_to_its_bytes_and_json_seals_are_sealed_json() {
        let path = Path::new("binary.ckpt");
        let body = [b'\n', b'}', 0xFF, 0x00, b'\n', b'}', b'\n'];
        let bytes = sealed(VERSION, &body);
        assert_eq!(open(path, &bytes, VERSION).unwrap(), body);
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    open(path, &bytes[..cut], VERSION),
                    Err(ArtifactError::Torn { .. })
                ),
                "cut to {cut}"
            );
        }
        let json = serde_json::to_string(&value()).unwrap();
        assert_eq!(sealed_value(VERSION), sealed(VERSION, json.as_bytes()));
    }

    #[test]
    fn every_cut_is_torn() {
        let bytes = sealed_value(VERSION);
        for cut in 0..bytes.len() {
            assert!(
                matches!(read(&bytes[..cut]), Err(ArtifactError::Torn { .. })),
                "cut to {cut} of {} bytes: {:?}",
                bytes.len(),
                read(&bytes[..cut])
            );
        }
        assert_eq!(read(&bytes).unwrap(), value());
    }

    #[test]
    fn every_bit_flip_in_the_body_fails_the_checksum() {
        let bytes = sealed_value(VERSION);
        for offset in body_range(&bytes) {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[offset] ^= 1 << bit;
                assert!(
                    matches!(read(&flipped), Err(ArtifactError::ChecksumMismatch { .. })),
                    "bit {bit} of byte {offset}: {:?}",
                    read(&flipped)
                );
            }
        }
    }

    #[test]
    fn damage_outside_the_body_is_corrupt_and_an_undecodable_body_is_corrupt() {
        let bytes = sealed_value(VERSION);
        let trailing = [&bytes[..], b"{}"].concat();
        let mut malformed = bytes.clone();
        malformed[after(&bytes, b"\"len\":")] = 0xFF;
        // A body that passes its checksum but is not a `T`: another type's
        // seal, read as this one.
        let dir = temp_dir("other-type");
        let path = dir.join("sealed.json");
        seal(&UnsyncedIo, &path, VERSION, &42u32).unwrap();
        let other = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        for damaged in [trailing, malformed, other] {
            assert!(
                matches!(read(&damaged), Err(ArtifactError::Corrupt { .. })),
                "{:?}",
                read(&damaged)
            );
        }
    }

    #[test]
    fn another_version_and_every_pre_seal_layout_are_version_skew() {
        let skew = |bytes: &[u8]| match read(bytes) {
            Err(ArtifactError::UnsupportedVersion {
                found, supported, ..
            }) => {
                assert_eq!(supported, VERSION);
                found
            }
            other => panic!("{:?}: {other:?}", String::from_utf8_lossy(bytes)),
        };
        assert_eq!(skew(&sealed_value(VERSION + 1)), VERSION + 1);
        assert_eq!(skew(&sealed_value(VERSION - 1)), VERSION - 1);
        // The telemetry manifest's seal envelope and a version-2 deploy
        // record, as the files were written before the one seal, and a
        // bare report: none begins as a seal, so each is version 0.
        let seal_version_1 = "{\n  \"seal_version\": 1,\n  \"checksum\": \"0123456789abcdef\",\n  \"manifest\": {\n    \"schema_version\": 2\n  }\n}";
        let deploy_record_v2 =
            "{\n  \"version\": 2,\n  \"key\": \"[]\",\n  \"best\": {},\n  \"report\": {}\n}";
        let bare = "{\n  \"gpu\": \"a100\"\n}";
        for legacy in [seal_version_1, deploy_record_v2, bare] {
            assert_eq!(skew(legacy.as_bytes()), 0);
        }
    }
}
