//! Cross-commit pin of the default action space: the serialized
//! `SuiteReport` (listings, runtimes, move traces) of every search strategy
//! on `table2` must stay byte-identical to the digests recorded before the
//! adjacent-swap space was routed through the typed-edit path. A mismatch
//! means default-space answers — and with them every stored schedule and
//! checkpoint — changed. Greedy's answer in the rich action space is pinned
//! beside them, so a change to how greedy prices content edits cannot move
//! it unseen.

use artifact::fnv1a64;
use cuasmrl::{ActionSpace, EditKind, GameConfig, Strategy, SuiteOptimizer, SuiteReport};
use gpusim::{ArchSpec, GpuConfig, MeasureOptions};
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
    digest(&suite_report(
        GpuConfig::small(),
        "table2",
        ActionSpace::default(),
        strategy,
    ))
}

fn digest(report: &SuiteReport) -> u64 {
    fnv1a64(serde_json::to_string(report).unwrap().as_bytes())
}

fn suite_report(
    gpu: GpuConfig,
    suite: &str,
    space: ActionSpace,
    strategy: Strategy,
) -> SuiteReport {
    let report = SuiteOptimizer::new(gpu, strategy)
        .with_jobs(1)
        .with_seed(42)
        .with_tune_options(fast_measure())
        .with_config_space(ConfigSpace::small())
        .with_game_config(GameConfig {
            episode_length: 16,
            measure: fast_measure(),
            action_space: space,
        })
        .optimize_workload(&find_suite(suite).expect("built-in suite"), 16);
    assert!(
        report.reports.iter().any(|r| !r.moves.is_empty()),
        "the pinned run must record moves"
    );
    report
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

/// Greedy over the rich action space (`search-rich`'s strategy and space on
/// `attention` and a Hopper backend): its scan prices content edits as well
/// as swaps, so this digest moves if pricing a candidate changes the answer.
#[test]
fn rich_space_greedy_report_matches_the_pinned_digest() {
    let report = suite_report(
        GpuConfig::small_with_arch(ArchSpec::hopper()),
        "attention",
        ActionSpace::Rich,
        Strategy::Greedy { max_moves: 6 },
    );
    let kinds: Vec<EditKind> = report
        .reports
        .iter()
        .flat_map(|r| r.moves.iter().map(|m| m.kind))
        .collect();
    assert!(
        kinds
            .iter()
            .any(|kind| !matches!(kind, EditKind::SwapUp | EditKind::SwapDown)),
        "the pinned run must accept a content edit: {kinds:?}"
    );
    assert_eq!(
        digest(&report),
        0xe2d9_ace5_731f_1829,
        "rich-space greedy report changed"
    );
}
