//! Structured, machine-readable run telemetry.
//!
//! Every suite optimization can emit a [`RunManifest`]: a stable-schema JSON
//! artifact recording, per kernel, the reward curve of the best move trace,
//! the RL training series (per-update losses/entropy/KL) when the paper's
//! PPO strategy ran, the schedule-evaluation cache hit rate and the
//! wall-clock spent in each phase of the hierarchical search (autotune →
//! compile → assembly-game search → verification). The manifest is written
//! next to the persisted suite report in the schedule-cache directory, is
//! uploaded as a build artifact by CI, and is the input the perf-regression
//! tooling and any future dashboards consume.
//!
//! Schema stability: [`TELEMETRY_SCHEMA_VERSION`] is bumped on any
//! field-level change, and `docs/ARTIFACTS.md` documents the full schema.
//! Wall-clock fields are observability data — they are the only
//! non-deterministic values in the manifest, and consumers must not expect
//! them to be reproducible.

use std::path::{Path, PathBuf};
use std::time::Duration;

use artifact::{decode_json, fnv1a64_hex, publish_atomic, ArtifactError, StoreIo};
use serde::{Deserialize, Serialize};

use crate::eval_cache::EvalCacheStats;
use crate::optimizer::OptimizationReport;

/// Version of the telemetry JSON schema (see `docs/ARTIFACTS.md`).
///
/// v2 added the `delta_hits`, `delta_fallbacks` and `delta_fallback_rate`
/// counters to [`CacheTelemetry`]. They default to zero on decode, so v1
/// manifests remain loadable (pinned by the `v1_manifests_still_load`
/// test).
pub const TELEMETRY_SCHEMA_VERSION: u32 = 2;

/// Eval-cache effectiveness counters for one kernel search or a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheTelemetry {
    /// Schedule measurements answered from the cache.
    pub hits: u64,
    /// Schedule measurements that had to simulate.
    pub misses: u64,
    /// `hits / (hits + misses)`, 0 when nothing was measured.
    pub hit_rate: f64,
    /// Cache misses answered without simulating from cycle zero. The reward
    /// path simulates every miss in full, so this build always writes 0;
    /// manifests written while the game priced misses through
    /// `gpusim`'s delta engine carry its incremental evaluations here.
    #[serde(default)]
    pub delta_hits: u64,
    /// Cache misses simulated from cycle zero: every miss, so this build
    /// writes `misses`.
    #[serde(default)]
    pub delta_fallbacks: u64,
    /// `delta_fallbacks / (delta_hits + delta_fallbacks)`, 0 when nothing
    /// missed (1 in every manifest this build writes that missed at all).
    #[serde(default)]
    pub delta_fallback_rate: f64,
}

impl CacheTelemetry {
    /// Builds the telemetry record from raw cache counters.
    #[must_use]
    pub fn from_stats(stats: EvalCacheStats) -> Self {
        let total = stats.hits + stats.misses;
        CacheTelemetry {
            hits: stats.hits,
            misses: stats.misses,
            hit_rate: if total == 0 {
                0.0
            } else {
                stats.hits as f64 / total as f64
            },
            delta_hits: 0,
            delta_fallbacks: stats.misses,
            delta_fallback_rate: if stats.misses == 0 { 0.0 } else { 1.0 },
        }
    }

    /// Accumulates another record into this one, recomputing the rates.
    pub fn accumulate(&mut self, other: &CacheTelemetry) {
        self.hits += other.hits;
        self.misses += other.misses;
        let total = self.hits + self.misses;
        self.hit_rate = if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        };
        self.delta_hits += other.delta_hits;
        self.delta_fallbacks += other.delta_fallbacks;
        let attempts = self.delta_hits + self.delta_fallbacks;
        self.delta_fallback_rate = if attempts == 0 {
            0.0
        } else {
            self.delta_fallbacks as f64 / attempts as f64
        };
    }
}

/// Wall-clock spent in each phase of one hierarchical kernel optimization
/// (milliseconds). Non-deterministic by nature; informational only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Autotuning the kernel configuration.
    pub autotune_ms: f64,
    /// Compiling through the Triton-like pipeline (including the cubin
    /// interception).
    pub compile_ms: f64,
    /// Playing the assembly game (the search itself).
    pub search_ms: f64,
    /// Probabilistic verification of the winning schedule.
    pub verify_ms: f64,
    /// End-to-end wall clock of the kernel optimization.
    pub total_ms: f64,
}

impl PhaseTimings {
    /// Accumulates another kernel's timings into this aggregate.
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.autotune_ms += other.autotune_ms;
        self.compile_ms += other.compile_ms;
        self.search_ms += other.search_ms;
        self.verify_ms += other.verify_ms;
        self.total_ms += other.total_ms;
    }
}

/// Converts a measured [`Duration`] to fractional milliseconds.
#[must_use]
pub fn duration_ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The RL training series of one kernel (present when the search strategy
/// was [`crate::Strategy::Rl`]): the per-update time series Figures 8 and 12
/// of the paper plot, re-exported verbatim from [`rl::TrainingStats`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingTelemetry {
    /// Environment steps collected.
    pub steps: usize,
    /// Episodic returns in completion order.
    pub episodic_returns: Vec<f32>,
    /// Approximate KL divergence per update.
    pub approx_kl: Vec<f32>,
    /// Mean policy entropy per update.
    pub entropy: Vec<f32>,
    /// Mean policy loss per update.
    pub policy_loss: Vec<f32>,
    /// Mean value loss per update.
    pub value_loss: Vec<f32>,
}

impl TrainingTelemetry {
    /// Builds the telemetry record from PPO training statistics.
    #[must_use]
    pub fn from_stats(stats: &rl::TrainingStats) -> Self {
        TrainingTelemetry {
            steps: stats.steps,
            episodic_returns: stats.episodic_returns.clone(),
            approx_kl: stats.approx_kl.clone(),
            entropy: stats.entropy.clone(),
            policy_loss: stats.policy_loss.clone(),
            value_loss: stats.value_loss.clone(),
        }
    }
}

/// Everything recorded about one kernel's optimization.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelTelemetry {
    /// Kernel name (cubin symbol).
    pub kernel: String,
    /// Runtime of the `-O3` baseline schedule, microseconds.
    pub baseline_us: f64,
    /// Runtime of the best schedule found, microseconds.
    pub optimized_us: f64,
    /// `baseline_us / optimized_us`.
    pub speedup: f64,
    /// Whether the winning schedule passed probabilistic verification.
    pub verified: bool,
    /// Whether the result came from the deploy-time schedule cache (§4.2)
    /// instead of a fresh search.
    pub from_deploy_cache: bool,
    /// Rewards of the moves that reached the best schedule, in order (the
    /// reward curve of the report's `moves`).
    pub reward_curve: Vec<f32>,
    /// Eval-cache counters of this kernel's search.
    pub cache: CacheTelemetry,
    /// Wall-clock per phase of this kernel's optimization.
    pub phases: PhaseTimings,
    /// RL training series, when the strategy was PPO.
    pub training: Option<TrainingTelemetry>,
}

impl KernelTelemetry {
    /// The record of an answer that was looked up, not searched for — a
    /// deploy-cache hit (§4.2) or a daemon store hit: the remembered
    /// report's figures, the `from_deploy_cache` marker, and no eval-cache
    /// counters, training series or search/verify timings.
    #[must_use]
    pub fn cached(report: &OptimizationReport) -> Self {
        KernelTelemetry {
            kernel: report.kernel.clone(),
            baseline_us: report.baseline_us,
            optimized_us: report.optimized_us,
            speedup: report.speedup,
            verified: report.verified,
            from_deploy_cache: true,
            reward_curve: report.moves.iter().map(|m| m.reward).collect(),
            ..KernelTelemetry::default()
        }
    }
}

/// The aggregate telemetry manifest of one suite optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Telemetry schema version ([`TELEMETRY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Device profile the suite was optimized for.
    pub gpu: String,
    /// Workload-registry suite name (`"custom"` for ad-hoc spec lists).
    pub suite: String,
    /// Search strategy label.
    pub strategy: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Per-kernel telemetry, in suite order.
    pub kernels: Vec<KernelTelemetry>,
    /// Eval-cache counters summed over the suite.
    pub cache: CacheTelemetry,
    /// Phase wall-clock summed over the suite.
    pub phases: PhaseTimings,
    /// Geometric-mean speedup across the suite.
    pub geomean_speedup: f64,
    /// Number of kernels whose schedule verified.
    pub verified: usize,
}

impl RunManifest {
    /// Assembles a manifest from per-kernel telemetry plus run metadata,
    /// computing the aggregate cache and phase totals.
    #[must_use]
    pub fn new(
        gpu: impl Into<String>,
        suite: impl Into<String>,
        strategy: impl Into<String>,
        seed: u64,
        jobs: usize,
        kernels: Vec<KernelTelemetry>,
        geomean_speedup: f64,
    ) -> Self {
        let mut cache = CacheTelemetry::default();
        let mut phases = PhaseTimings::default();
        let mut verified = 0;
        for kernel in &kernels {
            cache.accumulate(&kernel.cache);
            phases.accumulate(&kernel.phases);
            verified += usize::from(kernel.verified);
        }
        RunManifest {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            gpu: gpu.into(),
            suite: suite.into(),
            strategy: strategy.into(),
            seed,
            jobs,
            kernels,
            cache,
            phases,
            geomean_speedup,
            verified,
        }
    }
}

/// Path of a run manifest inside a cache/report directory, keyed like the
/// suite report so different device/suite runs never overwrite each other.
#[must_use]
pub fn telemetry_path(dir: &Path, gpu: &str, suite: &str) -> PathBuf {
    dir.join(format!("{gpu}_{suite}_telemetry.json"))
}

/// Version of the sealed-manifest envelope ([`persist_run_manifest`]'s
/// on-disk wrapper). Bumped on any envelope-level change; the manifest's
/// own schema stays versioned by [`TELEMETRY_SCHEMA_VERSION`].
pub const MANIFEST_SEAL_VERSION: u32 = 1;

/// FNV-1a-64 over the manifest's compact-JSON serialization — the same
/// checksum family as the schedule store's entries and journal.
fn manifest_checksum(manifest: &RunManifest) -> Option<String> {
    let compact = serde_json::to_string(manifest).ok()?;
    Some(fnv1a64_hex(compact.as_bytes()))
}

/// The on-disk envelope of a persisted manifest: the manifest plus a
/// schema-versioned checksum trailer, so a reader can tell silent
/// corruption from schema skew.
#[derive(Debug, Serialize, Deserialize)]
struct SealedManifest {
    /// [`MANIFEST_SEAL_VERSION`] at write time.
    seal_version: u32,
    /// FNV-1a-64 (hex) of the manifest's compact-JSON serialization.
    checksum: String,
    /// The manifest itself.
    manifest: RunManifest,
}

/// Publishes `value` as pretty JSON at `path` through `io`
/// ([`artifact::publish_atomic`]), creating the directory first — how
/// every JSON artifact of this crate (deploy-cache report, suite report,
/// run manifest) reaches disk.
pub(crate) fn publish_json<T: Serialize>(
    io: &dyn StoreIo,
    path: &Path,
    value: &T,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    publish_atomic(io, path, text.as_bytes())
}

/// Writes a run manifest into the directory through `io`: a sealed
/// envelope (checksum trailer, [`MANIFEST_SEAL_VERSION`]) published
/// atomically, so a crash mid-persist leaves the previous manifest intact
/// — never a torn one — and concurrent persists of the same device's
/// manifest each stage their own file, the last rename winning.
///
/// # Errors
///
/// Returns an IO error when the directory cannot be created or written.
pub fn persist_run_manifest(
    io: &dyn StoreIo,
    dir: &Path,
    manifest: &RunManifest,
) -> std::io::Result<()> {
    let sealed = SealedManifest {
        seal_version: MANIFEST_SEAL_VERSION,
        checksum: manifest_checksum(manifest).unwrap_or_default(),
        manifest: manifest.clone(),
    };
    let path = telemetry_path(dir, &manifest.gpu, &manifest.suite);
    publish_json(io, &path, &sealed)
}

/// Loads a previously persisted run manifest with the full typed-error
/// path: `Ok(None)` only when no manifest file exists, [`ArtifactError`]
/// when one exists but cannot be read or is damaged. Reads both the sealed
/// envelope (verifying its checksum) and the legacy bare layout older
/// builds wrote.
///
/// # Errors
///
/// [`ArtifactError::Io`] when the file exists but cannot be read,
/// [`ArtifactError::Torn`] when it ends before the document does,
/// [`ArtifactError::Corrupt`] when it decodes as neither layout,
/// [`ArtifactError::UnsupportedVersion`] when the envelope was sealed under
/// another [`MANIFEST_SEAL_VERSION`] (checked before the checksum, whose
/// rule the version names), [`ArtifactError::ChecksumMismatch`] when the
/// envelope's checksum fails.
pub fn load_run_manifest_checked(
    dir: &Path,
    gpu: &str,
    suite: &str,
) -> Result<Option<RunManifest>, ArtifactError> {
    let path = telemetry_path(dir, gpu, suite);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(ArtifactError::Io(err)),
    };
    match decode_json::<SealedManifest>(&path, &bytes) {
        Ok(sealed) => {
            if sealed.seal_version != MANIFEST_SEAL_VERSION {
                return Err(ArtifactError::UnsupportedVersion {
                    path,
                    found: sealed.seal_version,
                    supported: MANIFEST_SEAL_VERSION,
                });
            }
            let computed = manifest_checksum(&sealed.manifest).unwrap_or_default();
            if computed == sealed.checksum {
                Ok(Some(sealed.manifest))
            } else {
                Err(ArtifactError::ChecksumMismatch {
                    path,
                    recorded: sealed.checksum,
                    computed,
                })
            }
        }
        // Legacy bare manifests (pre-seal) have no checksum to verify; a
        // `kernels` array distinguishes a real one from arbitrary JSON.
        Err(ArtifactError::Corrupt { .. }) => decode_json(&path, &bytes).map(Some),
        Err(err) => Err(err),
    }
}

/// Loads a previously persisted run manifest, treating damage as absence
/// (the checked variant, [`load_run_manifest_checked`], distinguishes).
#[must_use]
pub fn load_run_manifest(dir: &Path, gpu: &str, suite: &str) -> Option<RunManifest> {
    load_run_manifest_checked(dir, gpu, suite).ok().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use artifact::UnsyncedIo;

    #[test]
    fn cache_telemetry_computes_rates() {
        let t = CacheTelemetry::from_stats(EvalCacheStats { hits: 3, misses: 1 });
        assert_eq!(t.hit_rate, 0.75);
        // Every miss is a simulation from cycle zero.
        assert_eq!((t.delta_hits, t.delta_fallbacks), (0, 1));
        assert_eq!(t.delta_fallback_rate, 1.0);
        let none = CacheTelemetry::from_stats(EvalCacheStats { hits: 2, misses: 0 });
        assert_eq!(none.delta_fallback_rate, 0.0);
        let mut total = CacheTelemetry::default();
        assert_eq!(total.hit_rate, 0.0);
        total.accumulate(&t);
        // A record loaded from an older manifest may carry incremental
        // evaluations; the aggregate rate is recomputed over both.
        total.accumulate(&CacheTelemetry {
            hits: 0,
            misses: 4,
            hit_rate: 0.0,
            delta_hits: 3,
            delta_fallbacks: 1,
            delta_fallback_rate: 0.25,
        });
        assert_eq!(total.hits, 3);
        assert_eq!(total.misses, 5);
        assert_eq!(total.hit_rate, 0.375);
        assert_eq!(total.delta_hits, 3);
        assert_eq!(total.delta_fallbacks, 2);
        assert_eq!(total.delta_fallback_rate, 0.4);
    }

    #[test]
    fn v1_manifests_still_load() {
        // A literal schema-v1 manifest as PR 4 wrote it: no delta fields
        // anywhere. Decoding must succeed with the v2 counters defaulting
        // to zero — old CI artifacts and committed baselines stay readable.
        let v1 = r#"{
            "schema_version": 1,
            "gpu": "sim-a100-80gb-pcie",
            "suite": "table2",
            "strategy": "greedy",
            "seed": 7,
            "jobs": 4,
            "kernels": [
                {
                    "kernel": "k",
                    "baseline_us": 10.0,
                    "optimized_us": 8.0,
                    "speedup": 1.25,
                    "verified": true,
                    "from_deploy_cache": false,
                    "reward_curve": [0.5],
                    "cache": { "hits": 2, "misses": 2, "hit_rate": 0.5 },
                    "phases": {
                        "autotune_ms": 1.0,
                        "compile_ms": 2.0,
                        "search_ms": 3.0,
                        "verify_ms": 0.5,
                        "total_ms": 6.5
                    },
                    "training": null
                }
            ],
            "cache": { "hits": 2, "misses": 2, "hit_rate": 0.5 },
            "phases": {
                "autotune_ms": 1.0,
                "compile_ms": 2.0,
                "search_ms": 3.0,
                "verify_ms": 0.5,
                "total_ms": 6.5
            },
            "geomean_speedup": 1.25,
            "verified": 1
        }"#;
        let manifest: RunManifest = serde_json::from_str(v1).expect("v1 manifests must decode");
        assert_eq!(manifest.schema_version, 1);
        assert_eq!(manifest.cache.hits, 2);
        assert_eq!(manifest.cache.delta_hits, 0);
        assert_eq!(manifest.cache.delta_fallbacks, 0);
        assert_eq!(manifest.cache.delta_fallback_rate, 0.0);
        assert_eq!(manifest.kernels[0].cache.delta_hits, 0);
    }

    #[test]
    fn manifest_aggregates_and_round_trips_through_json() {
        let kernel = |name: &str, verified: bool| KernelTelemetry {
            kernel: name.to_string(),
            baseline_us: 10.0,
            optimized_us: 8.0,
            speedup: 1.25,
            verified,
            from_deploy_cache: false,
            reward_curve: vec![0.5, -0.25, 1.0],
            cache: CacheTelemetry {
                hits: 2,
                misses: 2,
                hit_rate: 0.5,
                delta_hits: 1,
                delta_fallbacks: 1,
                delta_fallback_rate: 0.5,
            },
            phases: PhaseTimings {
                autotune_ms: 1.0,
                compile_ms: 2.0,
                search_ms: 3.0,
                verify_ms: 0.5,
                total_ms: 6.5,
            },
            training: Some(TrainingTelemetry {
                steps: 64,
                episodic_returns: vec![1.0],
                approx_kl: vec![0.01],
                entropy: vec![1.5],
                policy_loss: vec![-0.2],
                value_loss: vec![0.4],
            }),
        };
        let manifest = RunManifest::new(
            "a100",
            "table2",
            "rl",
            7,
            4,
            vec![kernel("a", true), kernel("b", false)],
            1.25,
        );
        assert_eq!(manifest.schema_version, TELEMETRY_SCHEMA_VERSION);
        assert_eq!(manifest.verified, 1);
        assert_eq!(manifest.cache.hits, 4);
        assert_eq!(manifest.phases.total_ms, 13.0);
        let json = serde_json::to_string_pretty(&manifest).unwrap();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, manifest);
    }

    #[test]
    fn manifest_persists_keyed_by_gpu_and_suite() {
        let dir = std::env::temp_dir().join(format!(
            "cuasmrl-telemetry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let a = RunManifest::new("a100", "table2", "greedy", 0, 1, Vec::new(), 1.0);
        let b = RunManifest::new("a100", "attention", "greedy", 0, 1, Vec::new(), 1.0);
        persist_run_manifest(&UnsyncedIo, &dir, &a).unwrap();
        persist_run_manifest(&UnsyncedIo, &dir, &b).unwrap();
        assert_eq!(load_run_manifest(&dir, "a100", "table2"), Some(a));
        assert_eq!(load_run_manifest(&dir, "a100", "attention"), Some(b));
        assert_eq!(load_run_manifest(&dir, "hopper", "table2"), None);
        let _ = std::fs::remove_dir_all(dir);
    }

    fn seal_test_dir(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cuasmrl-telemetry-seal-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn persisted_manifests_are_sealed_and_verified() {
        let dir = seal_test_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new(), 1.0);
        persist_run_manifest(&UnsyncedIo, &dir, &manifest).unwrap();
        // The envelope is on disk…
        let raw = std::fs::read_to_string(telemetry_path(&dir, "a100", "service")).unwrap();
        assert!(raw.contains("\"seal_version\""));
        assert!(raw.contains("\"checksum\""));
        // …and both loaders see through it.
        assert_eq!(
            load_run_manifest_checked(&dir, "a100", "service").unwrap(),
            Some(manifest.clone())
        );
        assert_eq!(load_run_manifest(&dir, "a100", "service"), Some(manifest));
        // No temp debris left behind by the atomic publish.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "temp file was renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_manifest_sealed_under_another_version_is_version_skew_not_damage() {
        let dir = seal_test_dir("skew");
        let _ = std::fs::remove_dir_all(&dir);
        // A later build's envelope: another seal version, under a checksum
        // rule this build does not know.
        let sealed = SealedManifest {
            seal_version: 2,
            checksum: "v2:0123456789abcdef".to_string(),
            manifest: RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new(), 1.0),
        };
        publish_json(
            &UnsyncedIo,
            &telemetry_path(&dir, "a100", "service"),
            &sealed,
        )
        .unwrap();
        let err = load_run_manifest_checked(&dir, "a100", "service").unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::UnsupportedVersion {
                    found: 2,
                    supported: MANIFEST_SEAL_VERSION,
                    ..
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_persists_of_one_manifest_all_succeed() {
        // Daemon workers persist the same device's manifest concurrently;
        // with a per-process temp name one worker renamed the other's temp
        // file away and the loser failed with `No such file or directory`.
        const THREADS: usize = 8;
        let dir = seal_test_dir("concurrent");
        let _ = std::fs::remove_dir_all(&dir);
        let start = std::sync::Barrier::new(THREADS);
        let results: Vec<std::io::Result<()>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|seed| {
                    let (dir, start) = (&dir, &start);
                    scope.spawn(move || {
                        let manifest = RunManifest::new(
                            "a100",
                            "service",
                            "greedy",
                            seed as u64,
                            1,
                            Vec::new(),
                            1.0,
                        );
                        start.wait();
                        (0..16).try_for_each(|_| persist_run_manifest(&UnsyncedIo, dir, &manifest))
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("persist does not panic"))
                .collect()
        });
        for result in results {
            result.expect("every concurrent persist succeeds");
        }
        // One valid sealed manifest (some worker's), nothing else.
        let manifest = load_run_manifest_checked(&dir, "a100", "service")
            .expect("the survivor verifies")
            .expect("a manifest was published");
        assert!(manifest.seed < THREADS as u64);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a100_service_telemetry.json"], "no stray temp file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_bare_manifests_still_load_without_a_seal() {
        let dir = seal_test_dir("legacy");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new(), 1.0);
        // What an older build wrote: the bare manifest, no envelope.
        std::fs::write(
            telemetry_path(&dir, "a100", "service"),
            serde_json::to_string_pretty(&manifest).unwrap(),
        )
        .unwrap();
        assert_eq!(
            load_run_manifest_checked(&dir, "a100", "service").unwrap(),
            Some(manifest)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_manifests_are_typed_errors_not_silence() {
        let dir = seal_test_dir("damage");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = telemetry_path(&dir, "a100", "service");

        // Structural damage → Corrupt.
        std::fs::write(&path, "{ torn-off mid-write").unwrap();
        assert!(matches!(
            load_run_manifest_checked(&dir, "a100", "service"),
            Err(ArtifactError::Corrupt { .. })
        ));
        assert_eq!(load_run_manifest(&dir, "a100", "service"), None);

        // Content damage under a valid envelope → ChecksumMismatch.
        let manifest = RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new(), 1.0);
        persist_run_manifest(&UnsyncedIo, &dir, &manifest).unwrap();
        let sealed = std::fs::read_to_string(&path).unwrap();
        let tampered = sealed.replace("\"geomean_speedup\": 1.0", "\"geomean_speedup\": 99.0");
        assert_ne!(sealed, tampered, "tamper target present");
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(
            load_run_manifest_checked(&dir, "a100", "service"),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        assert_eq!(load_run_manifest(&dir, "a100", "service"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_manifest_that_exists_is_never_read_as_absent() {
        let dir = seal_test_dir("present");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = telemetry_path(&dir, "a100", "service");
        assert!(matches!(
            load_run_manifest_checked(&dir, "a100", "service"),
            Ok(None)
        ));

        // One byte that is not UTF-8: damage in place, not absence.
        let manifest = RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new(), 1.0);
        persist_run_manifest(&UnsyncedIo, &dir, &manifest).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_run_manifest_checked(&dir, "a100", "service"),
            Err(ArtifactError::Corrupt { .. })
        ));

        // Cut mid-document: torn. Unreadable (a directory in its place):
        // an I/O error.
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_run_manifest_checked(&dir, "a100", "service"),
            Err(ArtifactError::Torn { .. })
        ));
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(matches!(
            load_run_manifest_checked(&dir, "a100", "service"),
            Err(ArtifactError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
