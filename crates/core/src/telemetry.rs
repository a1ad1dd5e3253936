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

use artifact::{seal, unseal, ArtifactError, StoreIo};
use serde::{Deserialize, Serialize};

use crate::eval_cache::EvalCacheStats;
use crate::optimizer::OptimizationReport;

/// Version of the telemetry JSON schema (see `docs/ARTIFACTS.md`).
///
/// v2 added the `delta_hits`, `delta_fallbacks` and `delta_fallback_rate`
/// counters to [`CacheTelemetry`]. They default to zero on decode, so v1
/// manifests remain loadable (pinned by the `v1_manifests_still_load`
/// test). Manifest files are sealed under this version.
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
        let mut telemetry = CacheTelemetry::default();
        telemetry.accumulate(&CacheTelemetry {
            hits: stats.hits,
            misses: stats.misses,
            delta_fallbacks: stats.misses,
            ..CacheTelemetry::default()
        });
        telemetry
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
    /// interception); on a deploy-cache hit, building the cubin from the
    /// record's listing.
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
/// of the paper plot, recorded verbatim as [`rl::TrainingStats`].
pub type TrainingTelemetry = rl::TrainingStats;

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
    /// computing the aggregate cache and phase totals, the verified count
    /// and the geometric-mean speedup (1 for no kernels).
    #[must_use]
    pub fn new(
        gpu: impl Into<String>,
        suite: impl Into<String>,
        strategy: impl Into<String>,
        seed: u64,
        jobs: usize,
        kernels: Vec<KernelTelemetry>,
    ) -> Self {
        let mut cache = CacheTelemetry::default();
        let mut phases = PhaseTimings::default();
        let mut verified = 0;
        let mut log_sum = 0.0;
        for kernel in &kernels {
            cache.accumulate(&kernel.cache);
            phases.accumulate(&kernel.phases);
            verified += usize::from(kernel.verified);
            log_sum += kernel.speedup.max(1e-12).ln();
        }
        let geomean_speedup = (log_sum / kernels.len().max(1) as f64).exp();
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

/// Writes a run manifest into the directory through `io`, sealed under
/// [`TELEMETRY_SCHEMA_VERSION`] ([`artifact::seal`]) and published
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
    let path = telemetry_path(dir, &manifest.gpu, &manifest.suite);
    seal(io, &path, TELEMETRY_SCHEMA_VERSION, manifest)
}

/// Loads a previously persisted run manifest: `Ok(None)` only when no
/// manifest file exists.
///
/// # Errors
///
/// The [`ArtifactError`] of a damaged manifest ([`artifact::unseal`]; a
/// layout from before the seal reads as version skew).
pub fn load_run_manifest_checked(
    dir: &Path,
    gpu: &str,
    suite: &str,
) -> Result<Option<RunManifest>, ArtifactError> {
    unseal(&telemetry_path(dir, gpu, suite), TELEMETRY_SCHEMA_VERSION)
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
        let a = RunManifest::new("a100", "table2", "greedy", 0, 1, Vec::new());
        let b = RunManifest::new("a100", "attention", "greedy", 0, 1, Vec::new());
        persist_run_manifest(&UnsyncedIo, &dir, &a).unwrap();
        persist_run_manifest(&UnsyncedIo, &dir, &b).unwrap();
        let load = |gpu, suite| load_run_manifest_checked(&dir, gpu, suite).unwrap();
        assert_eq!(load("a100", "table2"), Some(a));
        assert_eq!(load("a100", "attention"), Some(b));
        assert_eq!(load("hopper", "table2"), None);
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
        let manifest = RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new());
        persist_run_manifest(&UnsyncedIo, &dir, &manifest).unwrap();
        // The seal is on disk, around the manifest's one serialisation…
        let raw = std::fs::read_to_string(telemetry_path(&dir, "a100", "service")).unwrap();
        assert!(raw.starts_with("{\"seal\":{\"version\":2,"), "{raw}");
        assert!(raw.contains(&serde_json::to_string(&manifest).unwrap()));
        // …and the reader sees through it.
        assert_eq!(
            load_run_manifest_checked(&dir, "a100", "service").unwrap(),
            Some(manifest)
        );
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
        // A later build's manifest: sealed under another schema version.
        let manifest = RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new());
        seal(
            &UnsyncedIo,
            &telemetry_path(&dir, "a100", "service"),
            TELEMETRY_SCHEMA_VERSION + 1,
            &manifest,
        )
        .unwrap();
        let err = load_run_manifest_checked(&dir, "a100", "service").unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::UnsupportedVersion {
                    found: 3,
                    supported: TELEMETRY_SCHEMA_VERSION,
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
    fn legacy_manifests_read_as_version_skew() {
        let dir = seal_test_dir("legacy");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new());
        let bare = serde_json::to_string_pretty(&manifest).unwrap();
        // What older builds wrote: the bare manifest, and the
        // `seal_version` 1 envelope around it. Neither is answered.
        let enveloped = format!(
            "{{\n  \"seal_version\": 1,\n  \"checksum\": \"{}\",\n  \"manifest\": {bare}\n}}",
            artifact::fnv1a64_hex(serde_json::to_string(&manifest).unwrap().as_bytes())
        );
        for legacy in [bare, enveloped] {
            std::fs::write(telemetry_path(&dir, "a100", "service"), &legacy).unwrap();
            assert!(
                matches!(
                    load_run_manifest_checked(&dir, "a100", "service"),
                    Err(ArtifactError::UnsupportedVersion { found: 0, .. })
                ),
                "{legacy}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_manifests_are_typed_errors_not_silence() {
        let dir = seal_test_dir("damage");
        let _ = std::fs::remove_dir_all(&dir);
        let path = telemetry_path(&dir, "a100", "service");
        let manifest = RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new());
        persist_run_manifest(&UnsyncedIo, &dir, &manifest).unwrap();
        let sealed = std::fs::read_to_string(&path).unwrap();

        // Structural damage → Corrupt.
        std::fs::write(&path, format!("{sealed} trailing bytes")).unwrap();
        assert!(matches!(
            load_run_manifest_checked(&dir, "a100", "service"),
            Err(ArtifactError::Corrupt { .. })
        ));

        // Content damage that still parses → ChecksumMismatch.
        let tampered = sealed.replace("\"geomean_speedup\":1.0", "\"geomean_speedup\":9.0");
        assert_ne!(sealed, tampered, "tamper target present");
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(
            load_run_manifest_checked(&dir, "a100", "service"),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
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

        // One byte that is not UTF-8 in the body: damage in place, not
        // absence.
        let manifest = RunManifest::new("a100", "service", "greedy", 0, 1, Vec::new());
        persist_run_manifest(&UnsyncedIo, &dir, &manifest).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_run_manifest_checked(&dir, "a100", "service"),
            Err(ArtifactError::ChecksumMismatch { .. })
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
