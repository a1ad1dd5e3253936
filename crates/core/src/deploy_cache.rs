//! The deploy cache (§4.2): one file per answer.
//!
//! With a cache directory configured, the pipeline first reads
//! `{gpu}_{fnv1a64_hex(key)}.json`, where the key is the canonical JSON of
//! every input the answer is a function of: (device, kernel spec,
//! configuration space, tune measurement options) — what [`Autotuner::tune`]
//! depends on — then (search strategy, game configuration). The stall table
//! follows from the device's architecture and a training checkpoint cannot
//! change the answer (resume ≡ uninterrupted), so neither is part of it. The
//! record is sealed under [`DEPLOY_RECORD_VERSION`] ([`artifact::seal`]) and
//! holds the full key string, the autotune winner and the
//! [`OptimizationReport`]. Another key behind a colliding hash or a `best`
//! outside the space is a miss; a damaged record (torn, corrupt, another
//! version, a failed checksum) is an [`ArtifactError`] the pipeline logs.
//! Either way the pipeline re-searches and republishes. Without a cache
//! directory nothing is read or written. [`read_deploy_record`] verifies a
//! record without its key, for `cuasmrld-fsck`.
//!
//! [`Autotuner::tune`]: kernels::Autotuner::tune

use std::path::{Path, PathBuf};

use artifact::{fnv1a64_hex, seal, unseal, ArtifactError, StoreIo};
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{ConfigSpace, KernelConfig, KernelSpec};
use serde::{Deserialize, Serialize};

use crate::game::GameConfig;
use crate::optimizer::{OptimizationReport, Strategy};

/// The version a deploy record is sealed under. Version 3: the record is
/// sealed. Version 2: the report's `moves` are the game's best trace; a
/// version-1 record's evolutionary and PPO moves could run past, or miss,
/// the schedule it answers with.
pub(crate) const DEPLOY_RECORD_VERSION: u32 = 3;

/// What a deploy-cache file holds: one answer and the key it answers.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct DeployRecord {
    pub(crate) key: String,
    pub(crate) best: KernelConfig,
    pub(crate) report: OptimizationReport,
}

/// Where one answer lives in a deploy-cache directory and the key its
/// record must carry; see [`crate::CuAsmRl::deploy_key`].
#[derive(Debug, Clone)]
pub struct DeployKey {
    pub(crate) path: PathBuf,
    key: String,
}

impl DeployKey {
    pub(crate) fn new(
        dir: &Path,
        gpu: &GpuConfig,
        spec: &KernelSpec,
        space: &ConfigSpace,
        options: &MeasureOptions,
        strategy: &Strategy,
        game: &GameConfig,
    ) -> Self {
        let key = serde_json::to_string(&((gpu, spec, space, options), (strategy, game)))
            .expect("the inputs of an answer serialize");
        let path = dir.join(format!("{}_{}.json", gpu.name, fnv1a64_hex(key.as_bytes())));
        DeployKey { path, key }
    }

    /// The cached answer — the autotune winner and the report — if the
    /// record on disk is exactly this key's: a byte-equal key and a winner
    /// inside `space`. `Ok(None)` is a miss.
    ///
    /// # Errors
    ///
    /// The [`ArtifactError`] of a damaged record ([`artifact::unseal`]).
    pub fn read(
        &self,
        space: &ConfigSpace,
    ) -> Result<Option<(KernelConfig, OptimizationReport)>, ArtifactError> {
        Ok(unseal::<DeployRecord>(&self.path, DEPLOY_RECORD_VERSION)?
            .filter(|record| record.key == self.key && space.candidates.contains(&record.best))
            .map(|record| (record.best, record.report)))
    }

    /// Publishes `(best, report)` as this key's record through `io`,
    /// atomically: a kill mid-publish leaves the previous record (or none),
    /// never a torn one.
    ///
    /// # Errors
    ///
    /// Returns an IO error when the directory cannot be created or written.
    pub fn publish(
        &self,
        io: &dyn StoreIo,
        best: KernelConfig,
        report: &OptimizationReport,
    ) -> std::io::Result<()> {
        let record = DeployRecord {
            key: self.key.clone(),
            best,
            report: report.clone(),
        };
        seal(io, &self.path, DEPLOY_RECORD_VERSION, &record)
    }
}

/// The key hash a deploy record's file name carries: `name` is
/// `{gpu}_{16 lower-case hex digits}.json` with no `_` in the device name,
/// which tells it from a `{arch}_{kernel}_{digest}.json` store entry.
fn record_hash(name: &str) -> Option<&str> {
    let (gpu, hash) = name.strip_suffix(".json")?.split_once('_')?;
    let hex = |c: char| c.is_ascii_digit() || ('a'..='f').contains(&c);
    (!gpu.is_empty() && hash.len() == 16 && hash.chars().all(hex)).then_some(hash)
}

/// Whether `file_name` is named like a deploy record.
#[must_use]
pub fn is_deploy_record_file(file_name: &str) -> bool {
    record_hash(file_name).is_some()
}

/// The report of the deploy record at `path`, verified without its key: it
/// must unseal, and its key must hash to the hash its file name carries.
/// `Ok(None)` only when there is no file.
///
/// # Errors
///
/// The [`ArtifactError`] of a damaged record ([`artifact::unseal`]), and
/// [`ArtifactError::Corrupt`] for a file not named like a record or a
/// record of another key.
pub fn read_deploy_record(path: &Path) -> Result<Option<OptimizationReport>, ArtifactError> {
    let corrupt = |detail: String| ArtifactError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let hash = record_hash(&name).ok_or_else(|| corrupt("not a deploy record's name".into()))?;
    let Some(record) = unseal::<DeployRecord>(path, DEPLOY_RECORD_VERSION)? else {
        return Ok(None);
    };
    let found = fnv1a64_hex(record.key.as_bytes());
    if found != hash {
        return Err(corrupt(format!(
            "the record of key {found} is on key {hash}'s file"
        )));
    }
    Ok(Some(record.report))
}

#[cfg(test)]
mod tests {
    //! The record's search half: a hit is the searched answer, and every
    //! search input is in the key. Its autotune half: the record's `best`
    //! memoises the grid's winner for the record's key, so a hit answers
    //! with that configuration's kernel without re-running the grid —
    //! obeyed, keyed by every autotune input, rejected and re-tuned when it
    //! is damaged or foreign, and never written without a cache directory.

    use super::*;
    use crate::{ActionSpace, CuAsmRl, KernelTelemetry};
    use artifact::UnsyncedIo;
    use kernels::{Autotuner, KernelKind, TritonPipeline};
    use sass::Cubin;

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
            "cuasmrl-deploy-cache-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn optimizer() -> CuAsmRl {
        CuAsmRl::new(GpuConfig::small(), Strategy::Greedy { max_moves: 2 })
    }

    fn cached(dir: &Path) -> CuAsmRl {
        optimizer().with_cache_dir(dir)
    }

    fn answer(
        optimizer: &CuAsmRl,
        space: &ConfigSpace,
        options: &MeasureOptions,
    ) -> (OptimizationReport, Cubin, KernelTelemetry) {
        optimizer.optimize_spec_instrumented(&spec(), space, options)
    }

    /// The answer of a pipeline without a deploy cache.
    fn fresh(space: &ConfigSpace, options: &MeasureOptions) -> (OptimizationReport, Cubin) {
        let (report, cubin, _) = answer(&optimizer(), space, options);
        (report, cubin)
    }

    fn json(report: &OptimizationReport) -> String {
        serde_json::to_string(report).unwrap()
    }

    fn key_in(dir: &Path, space: &ConfigSpace, options: &MeasureOptions) -> DeployKey {
        cached(dir).deploy_key(&spec(), space, options).unwrap()
    }

    fn read_record(key: &DeployKey) -> DeployRecord {
        unseal(&key.path, DEPLOY_RECORD_VERSION).unwrap().unwrap()
    }

    /// Seals `record` at `at`'s file under `version`.
    fn write_record(at: &DeployKey, version: u32, record: &DeployRecord) {
        seal(&UnsyncedIo, &at.path, version, record).unwrap();
    }

    /// A configuration of `space` the autotune grid does not choose.
    fn loser(space: &ConfigSpace, options: &MeasureOptions) -> KernelConfig {
        let best = Autotuner::new(GpuConfig::small())
            .with_options(options.clone())
            .tune(&spec(), space)
            .best;
        *space.candidates.iter().find(|c| **c != best).unwrap()
    }

    /// Plants at `at`'s file a well-formed record carrying `key`'s key whose
    /// answer is the search of `best`'s kernel.
    fn plant(at: &DeployKey, key: &DeployKey, best: KernelConfig) {
        let compiled = TritonPipeline::new(GpuConfig::small()).compile(&spec(), &best);
        let program = compiled.cubin.kernel_program(&compiled.name).unwrap();
        let report = optimizer().optimize_program(&compiled.name, program, compiled.launch);
        let record = DeployRecord {
            key: key.key.clone(),
            best,
            report,
        };
        write_record(at, DEPLOY_RECORD_VERSION, &record);
    }

    #[test]
    fn a_damaged_hit_is_searched_not_answered_with_the_baseline_cubin() {
        let dir = temp_dir("damaged-hit");
        let space = ConfigSpace::small();
        let key = key_in(&dir, &space, &options());
        let (expected, expected_cubin) = fresh(&space, &options());
        answer(&cached(&dir), &space, &options());
        let good = std::fs::read(&key.path).unwrap();
        let best = read_record(&key).best;
        let baseline = TritonPipeline::new(GpuConfig::small())
            .compile(&spec(), &best)
            .cubin;
        assert_ne!(expected_cubin, baseline);
        let damages: [fn(&mut OptimizationReport); 2] = [
            |report| report.optimized_listing = "this is not SASS".to_string(),
            |report| report.kernel = "another_kernel".to_string(),
        ];
        for damage in damages {
            let mut record = read_record(&key);
            damage(&mut record.report);
            write_record(&key, DEPLOY_RECORD_VERSION, &record);
            let (report, cubin, telemetry) = answer(&cached(&dir), &space, &options());
            assert!(!telemetry.from_deploy_cache, "a damaged hit re-searches");
            assert_eq!(json(&report), json(&expected));
            assert_eq!(cubin, expected_cubin);
            assert_eq!(std::fs::read(&key.path).unwrap(), good, "republished");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A record edited in place so that its schedule still parses — one
    /// stall count of the optimized listing — is not answered: the
    /// pipeline searches again and republishes instead of compiling the
    /// edit into the cubin.
    #[test]
    fn a_record_edited_in_place_is_searched_not_answered() {
        let dir = temp_dir("edited");
        let space = ConfigSpace::small();
        let key = key_in(&dir, &space, &options());
        let (expected, expected_cubin) = fresh(&space, &options());
        answer(&cached(&dir), &space, &options());
        let good = std::fs::read_to_string(&key.path).unwrap();
        let edited = good.replacen(":S04]", ":S01]", 1);
        assert_ne!(edited, good, "the listing has a stall count to edit");
        std::fs::write(&key.path, &edited).unwrap();
        let (report, cubin, telemetry) = answer(&cached(&dir), &space, &options());
        assert!(!telemetry.from_deploy_cache, "an edited record re-searches");
        assert_eq!(json(&report), json(&expected));
        assert_eq!(cubin, expected_cubin);
        assert_eq!(
            std::fs::read_to_string(&key.path).unwrap(),
            good,
            "republished"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn every_input_of_the_answer_is_in_its_key() {
        let dir = temp_dir("isolation");
        let space = ConfigSpace::small();
        let game = GameConfig {
            episode_length: 8,
            measure: options(),
            ..GameConfig::default()
        };
        let with = |strategy: Strategy, game: GameConfig| {
            CuAsmRl::new(GpuConfig::small(), strategy)
                .with_game_config(game)
                .with_cache_dir(&dir)
        };
        let greedy = Strategy::Greedy { max_moves: 2 };
        let evolutionary = |seed| Strategy::Evolutionary {
            generations: 2,
            mutation_length: 4,
            seed,
        };
        let records = || std::fs::read_dir(&dir).unwrap().count();
        let (_, _, telemetry) = answer(&with(greedy.clone(), game.clone()), &space, &options());
        assert!(!telemetry.from_deploy_cache);
        let variants = [
            ("strategy", with(evolutionary(0), game.clone()), options()),
            // One field away from the evolutionary record just written.
            ("seed", with(evolutionary(1), game.clone()), options()),
            (
                "budget",
                with(Strategy::Greedy { max_moves: 3 }, game.clone()),
                options(),
            ),
            (
                "episode length",
                with(
                    greedy.clone(),
                    GameConfig {
                        episode_length: 6,
                        ..game.clone()
                    },
                ),
                options(),
            ),
            (
                "action space",
                with(
                    greedy.clone(),
                    GameConfig {
                        action_space: ActionSpace::Rich,
                        ..game.clone()
                    },
                ),
                options(),
            ),
            (
                "tune options",
                with(greedy.clone(), game.clone()),
                MeasureOptions {
                    repeats: 3,
                    ..options()
                },
            ),
        ];
        for (index, (field, optimizer, tune)) in variants.iter().enumerate() {
            let (_, _, telemetry) = answer(optimizer, &space, tune);
            assert!(!telemetry.from_deploy_cache, "another {field} must miss");
            assert_eq!(
                records(),
                index + 2,
                "another {field} leaves its own record"
            );
            let (_, _, telemetry) = answer(optimizer, &space, tune);
            assert!(
                telemetry.from_deploy_cache,
                "{field}: its own record answers"
            );
        }
        let (_, _, telemetry) = answer(&with(greedy, game), &space, &options());
        assert!(
            telemetry.from_deploy_cache,
            "the first record still answers"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_miss_tunes_and_publishes_and_the_next_call_reads_it() {
        let dir = temp_dir("publish");
        let space = ConfigSpace::small();
        let (searched, _, telemetry) = answer(&cached(&dir), &space, &options());
        assert!(!telemetry.from_deploy_cache);
        assert_eq!(json(&searched), json(&fresh(&space, &options()).0));
        let record = read_record(&key_in(&dir, &space, &options()));
        assert!(searched.kernel.ends_with(&record.best.cache_key()));
        assert_eq!(json(&record.report), json(&searched));
        let (hit, _, telemetry) = answer(&cached(&dir), &space, &options());
        assert!(telemetry.from_deploy_cache);
        assert_eq!(json(&hit), json(&searched));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_planted_memo_is_obeyed_by_the_pipeline() {
        let dir = temp_dir("obeyed");
        let space = ConfigSpace::small();
        let key = key_in(&dir, &space, &options());
        let planted = loser(&space, &options());
        plant(&key, &key, planted);
        let (report, _cubin, telemetry) = answer(&cached(&dir), &space, &options());
        assert!(telemetry.from_deploy_cache);
        assert!(
            report.kernel.ends_with(&planted.cache_key()),
            "{} was compiled with the record's {}",
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
        let expected = json(&fresh(&space, &options()).0);
        let ours = key_in(&dir, &space, &options());
        let others = [
            key_in(&dir, &space, &noisy),
            key_in(&dir, &wider, &options()),
        ];
        // Other inputs hash to another file, which this lookup never opens…
        for other in &others {
            plant(other, other, loser(&space, &options()));
        }
        let (report, _, telemetry) = answer(&cached(&dir), &space, &options());
        assert!(!telemetry.from_deploy_cache);
        assert_eq!(json(&report), expected);
        // …and a colliding file name holding another key's answer, which
        // read back by name alone would answer for the wrong inputs, is a
        // miss too.
        for other in &others {
            plant(&ours, other, loser(&space, &options()));
            let (report, _, telemetry) = answer(&cached(&dir), &space, &options());
            assert!(!telemetry.from_deploy_cache);
            assert_eq!(json(&report), expected);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_truncated_or_garbage_memo_is_retuned_and_republished() {
        let dir = temp_dir("garbage");
        let space = ConfigSpace::small();
        let path = key_in(&dir, &space, &options()).path;
        let expected = json(&fresh(&space, &options()).0);
        answer(&cached(&dir), &space, &options());
        let good = std::fs::read(&path).unwrap();
        for damaged in [&good[..good.len() / 2], b"not json at all".as_slice(), b""] {
            std::fs::write(&path, damaged).unwrap();
            let (report, _, telemetry) = answer(&cached(&dir), &space, &options());
            assert!(!telemetry.from_deploy_cache);
            assert_eq!(json(&report), expected);
            assert_eq!(std::fs::read(&path).unwrap(), good, "republished");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_memo_of_another_version_or_naming_a_config_outside_the_space_is_rejected() {
        let dir = temp_dir("rejected");
        let space = ConfigSpace::small();
        let key = key_in(&dir, &space, &options());
        let expected = json(&fresh(&space, &options()).0);
        plant(&key, &key, KernelConfig::untuned());
        let (report, _, telemetry) = answer(&cached(&dir), &space, &options());
        assert!(!telemetry.from_deploy_cache);
        assert_eq!(json(&report), expected);
        // The republished record is a valid hit but for the version it is
        // sealed under: the previous format's and a later one's both
        // re-search.
        for version in [DEPLOY_RECORD_VERSION - 1, DEPLOY_RECORD_VERSION + 1] {
            write_record(&key, version, &read_record(&key));
            let (report, _, telemetry) = answer(&cached(&dir), &space, &options());
            assert!(!telemetry.from_deploy_cache, "version {version}");
            assert_eq!(json(&report), expected);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn without_a_cache_dir_nothing_is_memoised() {
        let space = ConfigSpace::small();
        let _ = fresh(&space, &options());
        // The only place a record could go is a cache directory; the
        // pipeline had none, so neither the working nor the temp directory
        // gains one.
        for dir in [Path::new("."), &std::env::temp_dir()] {
            assert!(!key_in(dir, &space, &options()).path.exists());
        }
    }

    #[test]
    fn a_memo_hit_answers_with_the_bytes_of_a_memo_less_lookup() {
        let dir = temp_dir("bytes");
        let space = ConfigSpace::small();
        let (searched, searched_cubin, _) = answer(&cached(&dir), &space, &options());
        let (hit, hit_cubin, telemetry) = answer(&cached(&dir), &space, &options());
        assert!(telemetry.from_deploy_cache);
        let (fresh, fresh_cubin) = fresh(&space, &options());
        assert_eq!(json(&hit), json(&searched));
        assert_eq!(json(&hit), json(&fresh));
        assert_eq!(hit_cubin, searched_cubin);
        assert_eq!(hit_cubin, fresh_cubin);
        let _ = std::fs::remove_dir_all(dir);
    }
}
