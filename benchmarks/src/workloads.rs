//! The workload configuration. It is owned here — not by `crates/bench` — so
//! that a change to the program under test cannot resize the benchmark.
//!
//! Every workload is a closed loop run from one process with at most two
//! load threads or connections. A run repeats a fixed unit of work (one
//! optimisation pass, one serving script) until `--seconds` have passed, so
//! two commits always execute identical units and only their number differs.

use cuasmrl::{ActionSpace, GameConfig, Strategy, SuiteOptimizer};
use cuasmrld::ServerConfig;
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{find_suite, ConfigSpace, KernelKind, KernelSpec};
use rl::PpoConfig;

/// Load threads, optimiser jobs and daemon workers: the two cores of the
/// box the bounds were fixed on.
pub const JOBS: usize = 2;

/// The three search budgets of the time-to-quality sweep
/// (`core.speedup_geomean_b8`/`_b24`/`_b48`).
pub const BUDGETS: [usize; 3] = [8, 24, 48];

/// The seed of unit `index` of a run started with `--seed seed`: a SplitMix64
/// step over the pair, so neighbouring runs and units share no stream.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generations of evolutionary search one unit of budget buys.
const GENERATIONS_PER_BUDGET: usize = 8;

/// How a search workload spends its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Search {
    /// (1+1) evolutionary search; one unit of budget is
    /// [`GENERATIONS_PER_BUDGET`] generations.
    Evolutionary { mutation_length: usize },
    /// Greedy hill climbing; the budget is the number of moves.
    Greedy,
    /// PPO; the budget is the number of 64-step policy updates.
    Rl { channels: usize },
}

/// One of the three offline-search workloads.
#[derive(Debug, Clone)]
pub struct SearchWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Architecture name, as a daemon request would spell it.
    pub arch: &'static str,
    /// Device profile.
    pub gpu: GpuConfig,
    /// The kernels one pass optimises.
    pub specs: Vec<KernelSpec>,
    /// Label the suite report is filed under.
    pub label: &'static str,
    /// Forced autotuning space; `None` = each kernel kind's own full grid.
    pub space: Option<ConfigSpace>,
    /// Assembly-game settings.
    pub game: GameConfig,
    /// The workload's own search budget (see [`SearchWorkload::strategy`]).
    pub budget: usize,
    search: Search,
}

fn game_measure(repeats: usize) -> MeasureOptions {
    MeasureOptions {
        warmup: 0,
        repeats,
        noise_std: 0.0,
        seed: 0,
    }
}

impl SearchWorkload {
    /// Looks a search workload up by name.
    pub fn by_name(name: &str) -> Option<SearchWorkload> {
        let suite = |suite: &str, scale| {
            find_suite(suite)
                .expect("built-in registry suite")
                .specs(scale)
        };
        match name {
            // The paper's own game on the paper's own suite. Many generations
            // of two-move mutations: each generation replays the best
            // sequence, so 98.6% of evaluations are eval-cache hits — a hit
            // costs 6 us against 280 us for a miss, and it takes that rate
            // for the hit path to lead the pass. The full autotune grid is
            // the next largest share, `gpusim` the smallest.
            "search-swap" => Some(SearchWorkload {
                name: "search-swap",
                arch: "ampere",
                gpu: GpuConfig::a100(),
                specs: suite("table2", 8),
                label: "table2",
                space: None,
                game: GameConfig {
                    episode_length: 48,
                    measure: game_measure(3),
                    action_space: ActionSpace::AdjacentSwap,
                },
                budget: 48,
                search: Search::Evolutionary { mutation_length: 2 },
            }),
            // Content edits instead of swaps, one game clone plus one delta
            // evaluation per candidate of greedy's scan, 8-bank Hopper
            // profile: almost every evaluation is a miss the delta engine
            // answers.
            "search-rich" => Some(SearchWorkload {
                name: "search-rich",
                arch: "hopper",
                gpu: GpuConfig::hopper(),
                specs: suite("attention", 8),
                label: "attention",
                space: Some(ConfigSpace::small()),
                game: GameConfig {
                    action_space: ActionSpace::Rich,
                    ..GameConfig::default()
                },
                budget: 4,
                search: Search::Greedy,
            }),
            // The paper's default strategy: the only workload on which the
            // conv encoder, Adam and the PPO update are not idle, and the
            // only one with from-cycle-zero delta fallbacks at volume.
            "train-rl" => Some(SearchWorkload {
                name: "train-rl",
                arch: "ampere",
                gpu: GpuConfig::a100(),
                specs: vec![
                    KernelSpec::scaled(KernelKind::MatmulLeakyRelu, 16),
                    KernelSpec::scaled(KernelKind::FlashAttention, 16),
                ],
                label: "rl-pair",
                space: Some(ConfigSpace::small()),
                game: GameConfig {
                    episode_length: 32,
                    ..GameConfig::default()
                },
                budget: 6,
                search: Search::Rl { channels: 16 },
            }),
            _ => None,
        }
    }

    /// The search strategy at `budget` (eight generations, one greedy move or
    /// one PPO update per unit). Seeds are filled in per kernel by
    /// [`SuiteOptimizer`].
    pub fn strategy(&self, budget: usize) -> Strategy {
        match self.search {
            Search::Evolutionary { mutation_length } => Strategy::Evolutionary {
                generations: budget * GENERATIONS_PER_BUDGET,
                mutation_length,
                seed: 0,
            },
            Search::Greedy => Strategy::Greedy { max_moves: budget },
            Search::Rl { channels } => {
                let config = PpoConfig::default();
                Strategy::Rl(PpoConfig {
                    total_steps: budget * config.rollout_steps,
                    channels,
                    ..config
                })
            }
        }
    }

    /// The PPO configuration the RL probe trains with: the workload's own
    /// when it is the RL workload, the same shape at a fixed small budget
    /// otherwise.
    pub fn ppo_config(&self, seed: u64) -> PpoConfig {
        match self.strategy(self.budget) {
            Strategy::Rl(config) => PpoConfig { seed, ..config },
            _ => probe_ppo(seed),
        }
    }

    /// The suite optimizer one pass runs through.
    pub fn optimizer(&self, seed: u64, budget: usize) -> SuiteOptimizer {
        let optimizer = SuiteOptimizer::new(self.gpu.clone(), self.strategy(budget))
            .with_jobs(JOBS)
            .with_seed(seed)
            .with_game_config(self.game.clone());
        match &self.space {
            Some(space) => optimizer.with_config_space(space.clone()),
            None => optimizer,
        }
    }
}

/// The PPO configuration the `rl` and `nn` probes use on a workload whose own
/// strategy is not RL: `train-rl`'s network at a four-update budget.
pub fn probe_ppo(seed: u64) -> PpoConfig {
    let config = PpoConfig::default();
    PpoConfig {
        total_steps: 4 * config.rollout_steps,
        channels: 16,
        seed,
        ..config
    }
}

/// How much one repetition of the serving script does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptSizes {
    /// Cold sweeps: each sends one never-seen request per kernel.
    pub cold_sweeps: usize,
    /// One-shot hit sweeps: each repeats one stored request per kernel.
    pub hit_sweeps: usize,
    /// Depth-1 hits on one persistent session.
    pub session_hits: usize,
    /// Pipelined chunks: each is [`JOBS`] sessions × `PIPELINE_BATCHES`
    /// batches of `PIPELINE_DEPTH` in-flight hits.
    pub pipelined_chunks: usize,
    /// One-shot hits after a restart with a four-entry memory cap.
    pub disk_hits: usize,
}

/// Batches each session sends per pipelined chunk.
pub const PIPELINE_BATCHES: usize = 3;
/// In-flight requests per batch.
pub const PIPELINE_DEPTH: usize = 4;
/// Memory cap of the restarted daemon, so repeats must come from disk.
pub const DISK_PHASE_CAPACITY: usize = 4;

/// The serving workload, or the serving probe of a search workload.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Architecture name requests carry.
    pub arch: &'static str,
    /// Device profile the architecture name resolves to.
    pub gpu: GpuConfig,
    /// The kernels requests ask for (explicit shapes).
    pub specs: Vec<KernelSpec>,
    /// Script sizes.
    pub sizes: ScriptSizes,
}

impl ServeWorkload {
    /// `serve-mixed`: the six Table-2 kernels at the daemon's `--fast` scale.
    pub fn mixed() -> ServeWorkload {
        ServeWorkload {
            arch: "ampere",
            gpu: GpuConfig::a100(),
            specs: KernelKind::all()
                .into_iter()
                .map(|kind| KernelSpec::scaled(kind, 16))
                .collect(),
            sizes: ScriptSizes {
                cold_sweeps: 8,
                hit_sweeps: 30,
                session_hits: 6,
                pipelined_chunks: 4,
                disk_hits: 12,
            },
        }
    }

    /// `serve-mixed` as the traced run sizes it: one repetition, with a hit
    /// phase long enough to show how hit latency moves with requests served.
    pub fn mixed_traced() -> ServeWorkload {
        ServeWorkload {
            sizes: ScriptSizes {
                cold_sweeps: 8,
                hit_sweeps: 100,
                session_hits: 20,
                pipelined_chunks: 6,
                disk_hits: 48,
            },
            ..ServeWorkload::mixed()
        }
    }

    /// A short script over a search workload's own kernels, for the `serve`
    /// layer probe of its traced run.
    pub fn probe_for(search: &SearchWorkload) -> ServeWorkload {
        ServeWorkload {
            arch: search.arch,
            gpu: search.gpu.clone(),
            specs: search.specs.clone(),
            sizes: ScriptSizes {
                cold_sweeps: 2,
                hit_sweeps: 20,
                session_hits: 10,
                pipelined_chunks: 2,
                disk_hits: 20,
            },
        }
    }

    /// The daemon configuration: greedy search with the `cuasmrld --fast`
    /// settings and [`JOBS`] workers.
    pub fn server_config(
        &self,
        store_dir: &std::path::Path,
        store_capacity: usize,
    ) -> ServerConfig {
        let fast = game_measure(2);
        let mut config = ServerConfig::new(store_dir);
        config.workers = JOBS;
        config.store_capacity = store_capacity;
        config.scale = 16;
        config.tune_options = fast.clone();
        config.game_config = GameConfig {
            episode_length: 8,
            measure: fast,
            ..GameConfig::default()
        };
        config
    }
}
