//! The autotune verdict, memoised beside the deploy cache (§4.2).
//!
//! A deploy-time lookup keys its report on the winning configuration's
//! kernel name, so without a memo every lookup would re-run the whole
//! autotune grid to learn a name that has not changed. With a cache
//! directory configured, the pipeline first reads
//! `{gpu}_{fnv1a64_hex(key)}.tune.json`, where the key is the canonical JSON
//! of (device, kernel spec, configuration space, measurement options) —
//! everything [`Autotuner::tune`] is a function of. The file records its
//! format version, the full key string and the [`TuningResult`]; anything
//! that does not match exactly (unreadable, undecodable, another version,
//! another key behind a colliding hash, a `best` outside the space) is a
//! miss that re-tunes and republishes. Without a cache directory nothing is
//! read or written.

use std::path::{Path, PathBuf};

use artifact::{fnv1a64_hex, UnsyncedIo};
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{Autotuner, ConfigSpace, KernelSpec, TuningResult};
use serde::{Deserialize, Serialize};

use crate::telemetry::publish_json;

/// Format version of a `*.tune.json` memo.
const TUNE_MEMO_VERSION: u32 = 1;

/// What a `*.tune.json` file holds.
#[derive(Debug, Serialize, Deserialize)]
struct TuneMemo {
    version: u32,
    key: String,
    tuning: TuningResult,
}

/// The canonical memo key: every input of [`Autotuner::tune`].
fn memo_key(
    gpu: &GpuConfig,
    spec: &KernelSpec,
    space: &ConfigSpace,
    options: &MeasureOptions,
) -> String {
    serde_json::to_string(&(gpu, spec, space, options)).expect("the tune inputs serialize")
}

fn memo_path(dir: &Path, gpu: &GpuConfig, key: &str) -> PathBuf {
    dir.join(format!(
        "{}_{}.tune.json",
        gpu.name,
        fnv1a64_hex(key.as_bytes())
    ))
}

/// The memoised verdict at `path`, if it is exactly the one for `key`.
fn read_memo(path: &Path, key: &str, space: &ConfigSpace) -> Option<TuningResult> {
    let text = std::fs::read_to_string(path).ok()?;
    let memo: TuneMemo = serde_json::from_str(&text).ok()?;
    (memo.version == TUNE_MEMO_VERSION
        && memo.key == key
        && space.candidates.contains(&memo.tuning.best))
    .then_some(memo.tuning)
}

/// The autotune step of the pipeline: [`Autotuner::tune`], answered from
/// the memo in `cache_dir` when one matches, and memoised there otherwise.
pub(crate) fn tune(
    gpu: &GpuConfig,
    cache_dir: Option<&Path>,
    spec: &KernelSpec,
    space: &ConfigSpace,
    options: &MeasureOptions,
) -> TuningResult {
    let grid = || {
        Autotuner::new(gpu.clone())
            .with_options(options.clone())
            .tune(spec, space)
    };
    let Some(dir) = cache_dir else {
        return grid();
    };
    let key = memo_key(gpu, spec, space, options);
    let path = memo_path(dir, gpu, &key);
    if let Some(tuning) = read_memo(&path, &key, space) {
        return tuning;
    }
    let memo = TuneMemo {
        version: TUNE_MEMO_VERSION,
        key,
        tuning: grid(),
    };
    if let Err(err) = publish_json(&UnsyncedIo, &path, &memo) {
        eprintln!("cuasmrl: failed to persist autotune memo: {err}");
    }
    memo.tuning
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CuAsmRl, Strategy};
    use kernels::{KernelConfig, KernelKind};

    fn options() -> MeasureOptions {
        MeasureOptions {
            warmup: 0,
            repeats: 2,
            noise_std: 0.0,
            seed: 0,
        }
    }

    fn spec() -> KernelSpec {
        KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 64)
    }

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cuasmrl-tune-memo-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn path_for(dir: &Path, space: &ConfigSpace, options: &MeasureOptions) -> PathBuf {
        let gpu = GpuConfig::small();
        memo_path(dir, &gpu, &memo_key(&gpu, &spec(), space, options))
    }

    fn optimizer(dir: &Path) -> CuAsmRl {
        CuAsmRl::new(GpuConfig::small(), Strategy::Greedy { max_moves: 2 }).with_cache_dir(dir)
    }

    /// The unmemoised verdict.
    fn fresh(space: &ConfigSpace, options: &MeasureOptions) -> TuningResult {
        Autotuner::new(GpuConfig::small())
            .with_options(options.clone())
            .tune(&spec(), space)
    }

    /// A memo for `(space, options)` whose verdict names `best` instead.
    fn plant(path: &Path, space: &ConfigSpace, options: &MeasureOptions, best: KernelConfig) {
        let tuning = TuningResult {
            best,
            ..fresh(space, options)
        };
        let memo = TuneMemo {
            version: TUNE_MEMO_VERSION,
            key: memo_key(&GpuConfig::small(), &spec(), space, options),
            tuning,
        };
        publish_json(&UnsyncedIo, path, &memo).unwrap();
    }

    /// A configuration of `space` the grid does not choose.
    fn loser(space: &ConfigSpace, options: &MeasureOptions) -> KernelConfig {
        let best = fresh(space, options).best;
        *space.candidates.iter().find(|c| **c != best).unwrap()
    }

    fn tune_in(dir: &Path, space: &ConfigSpace, options: &MeasureOptions) -> TuningResult {
        tune(&GpuConfig::small(), Some(dir), &spec(), space, options)
    }

    #[test]
    fn a_miss_tunes_and_publishes_and_the_next_call_reads_it() {
        let dir = temp_dir("publish");
        let space = ConfigSpace::small();
        let tuning = tune_in(&dir, &space, &options());
        assert_eq!(tuning, fresh(&space, &options()));
        let path = path_for(&dir, &space, &options());
        let memo: TuneMemo =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(memo.version, TUNE_MEMO_VERSION);
        assert_eq!(memo.tuning, tuning);
        assert_eq!(tune_in(&dir, &space, &options()), tuning);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_planted_memo_is_obeyed_by_the_pipeline() {
        let dir = temp_dir("obeyed");
        let space = ConfigSpace::small();
        let planted = loser(&space, &options());
        plant(
            &path_for(&dir, &space, &options()),
            &space,
            &options(),
            planted,
        );
        let (report, _cubin) = optimizer(&dir).optimize_spec(&spec(), &space, &options());
        assert!(
            report.kernel.ends_with(&planted.cache_key()),
            "{} was compiled with the memo's {}",
            report.kernel,
            planted.cache_key()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_memo_for_other_options_or_another_space_is_ignored() {
        let dir = temp_dir("other-key");
        let space = ConfigSpace::small();
        let noisy = MeasureOptions {
            noise_std: 0.01,
            ..options()
        };
        let wider = ConfigSpace {
            candidates: [space.candidates.clone(), vec![KernelConfig::untuned()]].concat(),
        };
        // Other inputs hash to another file, which this lookup never opens…
        for (other_space, other_options) in [(&space, &noisy), (&wider, &options())] {
            let path = path_for(&dir, other_space, other_options);
            plant(&path, other_space, other_options, loser(&space, &options()));
        }
        assert_eq!(tune_in(&dir, &space, &options()), fresh(&space, &options()));
        // …and a colliding file name holding another key's verdict, which
        // read back by name alone would answer for the wrong inputs, is a
        // miss too.
        let path = path_for(&dir, &space, &options());
        for (other_space, other_options) in [(&space, &noisy), (&wider, &options())] {
            plant(&path, other_space, other_options, loser(&space, &options()));
            assert_eq!(tune_in(&dir, &space, &options()), fresh(&space, &options()));
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_truncated_or_garbage_memo_is_retuned_and_republished() {
        let dir = temp_dir("garbage");
        let space = ConfigSpace::small();
        let path = path_for(&dir, &space, &options());
        let expected = fresh(&space, &options());
        tune_in(&dir, &space, &options());
        let good = std::fs::read(&path).unwrap();
        for damaged in [&good[..good.len() / 2], b"not json at all".as_slice(), b""] {
            std::fs::write(&path, damaged).unwrap();
            assert_eq!(tune_in(&dir, &space, &options()), expected);
            assert_eq!(std::fs::read(&path).unwrap(), good, "republished");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_memo_of_another_version_or_naming_a_config_outside_the_space_is_rejected() {
        let dir = temp_dir("rejected");
        let space = ConfigSpace::small();
        let path = path_for(&dir, &space, &options());
        let expected = fresh(&space, &options());
        plant(&path, &space, &options(), KernelConfig::untuned());
        assert_eq!(tune_in(&dir, &space, &options()), expected);
        let mut memo: TuneMemo =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        memo.version += 1;
        memo.tuning.best = loser(&space, &options());
        publish_json(&UnsyncedIo, &path, &memo).unwrap();
        assert_eq!(tune_in(&dir, &space, &options()), expected);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn without_a_cache_dir_nothing_is_memoised() {
        let space = ConfigSpace::small();
        let optimizer = CuAsmRl::new(GpuConfig::small(), Strategy::Greedy { max_moves: 2 });
        let (report, _cubin) = optimizer.optimize_spec(&spec(), &space, &options());
        assert!(report
            .kernel
            .ends_with(&fresh(&space, &options()).best.cache_key()));
        let memos = |dir: &Path| {
            std::fs::read_dir(dir).map_or(0, |entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".tune.json"))
                    .count()
            })
        };
        // The only place a memo could go is a cache directory; the pipeline
        // had none, so neither the working nor the temp directory gains one.
        assert_eq!(memos(Path::new(".")), 0);
        assert_eq!(memos(&std::env::temp_dir()), 0);
    }

    #[test]
    fn a_memo_hit_answers_with_the_bytes_of_a_memo_less_lookup() {
        let dir = temp_dir("bytes");
        let space = ConfigSpace::small();
        let optimizer = optimizer(&dir);
        let (searched, _) = optimizer.optimize_spec(&spec(), &space, &options());
        let path = path_for(&dir, &space, &options());
        assert!(path.exists(), "the search memoised its verdict");
        let (hit, hit_cubin, hit_telemetry) =
            optimizer.optimize_spec_instrumented(&spec(), &space, &options());
        std::fs::remove_file(&path).unwrap();
        let (retuned, retuned_cubin, retuned_telemetry) =
            optimizer.optimize_spec_instrumented(&spec(), &space, &options());
        assert!(hit_telemetry.from_deploy_cache && retuned_telemetry.from_deploy_cache);
        let json = |r: &crate::OptimizationReport| serde_json::to_string(r).unwrap();
        assert_eq!(json(&hit), json(&searched));
        assert_eq!(json(&hit), json(&retuned));
        assert_eq!(hit_cubin.to_bytes(), retuned_cubin.to_bytes());
        let _ = std::fs::remove_dir_all(dir);
    }
}
