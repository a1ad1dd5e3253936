//! What a damaged artifact is: the one error type every family's reader
//! returns, and the torn-versus-corrupt rule for unsealed JSON (store
//! entries).

use std::fmt;
use std::path::{Path, PathBuf};

use serde::Deserialize;

/// Why an artifact could not be read back — the same five answers for
/// every family (store entry, sealed JSON, RL checkpoint). The crate docs
/// state the rule that tells `Torn` from `Corrupt`; [`decode_json`]
/// applies it to store entries, [`crate::unseal`] to the sealed families.
#[derive(Debug)]
pub enum ArtifactError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The bytes end before the format does.
    Torn {
        /// The offending file.
        path: PathBuf,
        /// Decoder detail.
        detail: String,
    },
    /// Complete bytes that are not a valid instance of the format.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Decoder detail.
        detail: String,
    },
    /// A valid instance of another format version than this build reads.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// The version found in the file.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The content does not match its recorded checksum — silent damage
    /// that structural decoding alone cannot see.
    ChecksumMismatch {
        /// The offending file.
        path: PathBuf,
        /// The checksum recorded in the file.
        recorded: String,
        /// The checksum computed from the content.
        computed: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(err) => write!(f, "artifact i/o error: {err}"),
            ArtifactError::Torn { path, detail } => {
                write!(f, "torn artifact {}: {detail}", path.display())
            }
            ArtifactError::Corrupt { path, detail } => {
                write!(f, "corrupt artifact {}: {detail}", path.display())
            }
            ArtifactError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "artifact {} has format version {found}, this build reads {supported}",
                path.display()
            ),
            ArtifactError::ChecksumMismatch {
                path,
                recorded,
                computed,
            } => write!(
                f,
                "artifact {} fails its checksum (recorded {recorded}, computed {computed})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(err: std::io::Error) -> Self {
        ArtifactError::Io(err)
    }
}

/// Decodes the JSON file `path` holds as `bytes` into a `T`.
///
/// # Errors
///
/// [`ArtifactError::Torn`] when the bytes end before the document does —
/// they stop inside a UTF-8 sequence, or the parser ran out of input
/// ([`serde_json::Error::is_eof`]); [`ArtifactError::Corrupt`] on every
/// other failure: a byte that is not UTF-8, a byte the grammar forbids,
/// trailing bytes, or a document of another shape than `T`.
pub fn decode_json<T: Deserialize>(path: &Path, bytes: &[u8]) -> Result<T, ArtifactError> {
    let text = std::str::from_utf8(bytes).map_err(|err| {
        let detail = format!("not UTF-8: {err}");
        damaged(path, err.error_len().is_none(), detail)
    })?;
    serde_json::from_str(text).map_err(|err| damaged(path, err.is_eof(), err.to_string()))
}

/// The file `path` is damaged: [`ArtifactError::Torn`] when `torn`,
/// [`ArtifactError::Corrupt`] otherwise.
pub(crate) fn damaged(path: &Path, torn: bool, detail: String) -> ArtifactError {
    let path = path.to_path_buf();
    if torn {
        ArtifactError::Torn { path, detail }
    } else {
        ArtifactError::Corrupt { path, detail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(bytes: &[u8]) -> Result<Vec<u32>, ArtifactError> {
        decode_json(Path::new("t.json"), bytes)
    }

    #[test]
    fn a_cut_document_is_torn_and_a_damaged_one_is_corrupt() {
        assert_eq!(decode(b"[1, 2]").unwrap(), [1, 2]);
        for torn in [&b""[..], b"[1, 2", b"[1,", b"[\"a\xC3", b"[tr"] {
            assert!(
                matches!(decode(torn), Err(ArtifactError::Torn { .. })),
                "{torn:?}"
            );
        }
        for corrupt in [&b"[1, 2]]"[..], b"[1, \xFF]", b"[1; 2]", b"{}", b"[-1]"] {
            assert!(
                matches!(decode(corrupt), Err(ArtifactError::Corrupt { .. })),
                "{corrupt:?}"
            );
        }
    }
}
