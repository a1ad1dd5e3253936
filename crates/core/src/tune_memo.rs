//! The deploy record's autotune half: its `best` memoises the autotune
//! grid's winner for the record's key, so a hit compiles that configuration
//! without re-running the grid. The record itself lives in
//! [`crate::deploy_cache`]; these tests pin that the memoised winner is
//! obeyed, keyed by every autotune input, rejected and re-tuned when it is
//! damaged or foreign, and never written without a cache directory.

#[cfg(test)]
mod tests {
    use std::path::Path;

    use gpusim::MeasureOptions;
    use kernels::{ConfigSpace, KernelConfig};

    use crate::deploy_cache::tests::{
        answer, cached, fresh, json, key_in, loser, options, plant, read_record, temp_dir,
        write_record,
    };
    use crate::deploy_cache::DEPLOY_RECORD_VERSION;

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
        assert_eq!(hit_cubin.to_bytes(), searched_cubin.to_bytes());
        assert_eq!(hit_cubin.to_bytes(), fresh_cubin.to_bytes());
        let _ = std::fs::remove_dir_all(dir);
    }
}
