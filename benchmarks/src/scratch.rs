//! Where the benchmark writes: `out/` inside its own directory, nothing
//! else. Temporary store and cache directories live under it and are
//! removed when their guard drops — on success, on a failed check and on an
//! unwinding panic alike.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);

/// The benchmark package's directory: where `cargo run` says the manifest
/// is, else where it was when the binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `out/` inside the package directory, created on demand.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A directory under `out/` that is removed when the guard drops.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `out/tmp-<pid>-<n>-<label>`.
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        let n = NEXT_TEMP.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()?.join(format!("tmp-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: Drop must not panic, and a leftover directory under
        // the ignored `out/` harms nothing.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Name and size of every regular file directly inside `dir` (none when the
/// directory cannot be read).
pub fn file_sizes(dir: &Path) -> Vec<(String, u64)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|entry| {
            let meta = entry.metadata().ok().filter(std::fs::Metadata::is_file)?;
            Some((entry.file_name().to_string_lossy().into_owned(), meta.len()))
        })
        .collect()
}
