//! Cross-commit pin of the default action space: the serialized
//! `SuiteReport` (listings, runtimes, move traces) of every search strategy
//! on `table2` must stay byte-identical to the digests recorded before the
//! adjacent-swap space was routed through the typed-edit path. A mismatch
//! means default-space answers — and with them every stored schedule and
//! checkpoint — changed.

use artifact::fnv1a64;
use cuasmrl::{GameConfig, Strategy, SuiteOptimizer};
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{find_suite, ConfigSpace};
use rl::PpoConfig;

fn fast_measure() -> MeasureOptions {
    MeasureOptions {
        warmup: 0,
        repeats: 2,
        noise_std: 0.0,
        seed: 0,
    }
}

fn report_digest(strategy: Strategy) -> u64 {
    let report = SuiteOptimizer::new(GpuConfig::small(), strategy)
        .with_jobs(1)
        .with_seed(42)
        .with_tune_options(fast_measure())
        .with_config_space(ConfigSpace::small())
        .with_game_config(GameConfig {
            episode_length: 16,
            measure: fast_measure(),
            ..GameConfig::default()
        })
        .optimize_workload(&find_suite("table2").expect("built-in suite"), 16);
    assert!(
        report.reports.iter().any(|r| !r.moves.is_empty()),
        "the pinned run must record moves"
    );
    fnv1a64(serde_json::to_string(&report).unwrap().as_bytes())
}

#[test]
fn default_space_reports_match_the_pinned_digests() {
    let pinned = [
        (
            Strategy::Evolutionary {
                generations: 6,
                mutation_length: 8,
                seed: 0,
            },
            0x5667_8e4f_3c7a_861e,
        ),
        (Strategy::Greedy { max_moves: 6 }, 0x5fed_ce6d_fef9_6a67),
        (
            Strategy::Random { steps: 48, seed: 3 },
            0x162e_11db_4179_d8d5,
        ),
        (
            Strategy::Rl(PpoConfig {
                rollout_steps: 32,
                total_steps: 128,
                ..PpoConfig::tiny()
            }),
            0x89bf_355e_40a3_3a4e,
        ),
        // `train-rl`'s encoder shape (16 channels, window 5), so a kernel
        // change that only moves wide or long-window outputs still shows.
        (
            Strategy::Rl(PpoConfig {
                rollout_steps: 32,
                total_steps: 128,
                channels: 16,
                kernel: 5,
                ..PpoConfig::tiny()
            }),
            0x5c54_7583_fd27_3376,
        ),
    ];
    for (strategy, expected) in pinned {
        let name = strategy.name();
        assert_eq!(
            report_digest(strategy),
            expected,
            "default-space {name} report changed"
        );
    }
}
