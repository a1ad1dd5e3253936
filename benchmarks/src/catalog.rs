//! Every workload and metric the benchmark reports, in one place.
//! `BENCHMARK.json` at the repository root must name exactly these (a unit
//! test holds the two together), and a run fails if it cannot produce one.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// One line: why it was chosen.
    pub why: &'static str,
}

/// A metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
    /// What is measured.
    pub what: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "search-swap",
        why: "evolutionary adjacent-swap search on table2/ampere, full autotune grid: 98% of evaluations are eval-cache hits, so core's hit path leads and gpusim does least",
    },
    WorkloadDef {
        name: "search-rich",
        why: "greedy rich-edit search on attention/hopper: 88% misses, one game clone and one delta simulation per candidate, so gpusim and core clone/step-miss lead",
    },
    WorkloadDef {
        name: "train-rl",
        why: "PPO, the paper's default strategy, on two kernels: the only workload where nn and rl are not idle and delta fallbacks from cycle zero occur at volume",
    },
    WorkloadDef {
        name: "serve-mixed",
        why: "in-process cuasmrld under a fixed cold/hit/pipelined/session/restart/disk script: serve owns every phase but cold, reads sit beside journaled writes",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every one is defined on
/// every workload: *cold* is a from-scratch optimisation sweep over the
/// workload's kernels (a suite pass, or one never-seen daemon request per
/// kernel), *warm* is the paper's deploy-time lookup of an answer already
/// found (deploy-cache lookup, or a one-shot store hit).
///
/// Host interference on a shared two-core box only ever adds time, so each
/// timing is reported at its *favourable* quartile (lower for a latency,
/// upper for a rate), the steadiest reading of what the code itself costs
/// that still has ten samples beyond it. Medians moved by up to a third and
/// tail percentiles by more between identical runs; they are printed with
/// every run, not bounded.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, 0.25,
        "median of three set-ups: inputs, oracle references, deploy cache or daemon start, one untimed warm-up"),
    e2e("cold_ms_p25", "ms", Lower, 0.20,
        "host ms per cold sweep (search: one suite pass; serve: per request of a six-kernel cold sweep), lower quartile"),
    e2e("evals_per_s", "1/s", Higher, 0.20,
        "schedule evaluations (eval-cache hits + misses) per host second of a cold sweep, upper quartile over sweeps"),
    e2e("sim_speedup_geomean", "x", Higher, 0.02,
        "geomean over the first eight sweeps and their kernels of baseline / optimized runtime in simulated microseconds; deterministic per seed"),
    e2e("warm_ms_p25", "ms", Lower, 0.25,
        "host ms per already-known answer for one caller (search: deploy-cache lookup; serve: one-shot hit), per-sweep mean, lower quartile"),
    e2e("warm_per_s", "1/s", Higher, 0.25,
        "already-known answers per host second with two concurrent callers (search: jobs=2 deploy-cache pass; serve: two pipelined sessions, four in flight each), upper quartile"),
    e2e("peak_rss_mb", "MB", Lower, 0.25,
        "peak resident set of the benchmark process, daemon included, at the end of the run"),
];

/// Per-layer metrics, from the separate traced run. Timings are host time
/// unless the name says `sim`; `est` marks a share estimated as
/// count x micro-timed per-call cost rather than read from spans.
pub const PER_LAYER: [MetricDef; 106] = [
    layer("bench.trace_overhead_share", "ratio", Lower,
        "traced / untraced host time of the workload's unit, minus one"),
    layer("bench.attributed_share", "ratio", Higher,
        "share of the traced units' thread time inside named layer spans; the rest is residual"),
    layer("sass.insts", "count", Lower,
        "instructions per baseline kernel, mean over the workload's kernels"),
    layer("sass.parse_us_per_inst", "us", Lower,
        "listing text -> Program, host us per instruction"),
    layer("sass.print_us_per_inst", "us", Lower,
        "Program -> listing text, host us per instruction"),
    layer("sass.cubin_replace_us", "us", Lower,
        "Cubin::replace_kernel_section of one kernel"),
    layer("sass.share", "ratio", Lower,
        "share of traced thread time in sass spans (kernel_program, parse + write-back)"),
    layer("kernels.generate_us", "us", Lower,
        "kernels::generate of one baseline kernel"),
    layer("kernels.autotune_ms", "ms", Lower,
        "Autotuner::tune over the workload's configuration space, per kernel"),
    layer("kernels.autotune_configs", "count", Lower,
        "configurations the autotuner measures per kernel"),
    layer("kernels.compile_us", "us", Lower,
        "TritonPipeline::compile of the tuned configuration"),
    layer("kernels.share", "ratio", Lower,
        "share of traced thread time in kernels spans (autotune, compile)"),
    layer("gpusim.lower_us", "us", Lower,
        "CompiledProgram::compile of one baseline schedule"),
    layer("gpusim.full_run_us", "us", Lower,
        "SmSimulator::run_compiled of one baseline schedule, host time"),
    layer("gpusim.sim_cycles", "count", Lower,
        "simulated cycles of one baseline schedule (deterministic)"),
    layer("gpusim.sim_insts", "count", Lower,
        "dynamic instructions one baseline schedule issues (deterministic)"),
    layer("gpusim.host_ns_per_sim_cycle", "ns", Lower,
        "host ns per simulated cycle of the full run"),
    layer("gpusim.sim_minst_per_host_s", "1/s", Higher,
        "simulated million instructions per host second of the full run"),
    layer("gpusim.record_baseline_us", "us", Lower,
        "DeltaEngine::record_baseline (full run plus epoch snapshots)"),
    layer("gpusim.snapshots", "count", Lower,
        "epoch snapshots a recorded baseline retains (deterministic)"),
    layer("gpusim.delta_swap_us", "us", Lower,
        "DeltaEngine::simulate_delta of a legal swap or block move, mean over candidates"),
    layer("gpusim.delta_edit_us", "us", Lower,
        "DeltaEngine::simulate_delta of a legal reuse/stall/wait edit, mean over candidates"),
    layer("gpusim.delta_swap_spliced", "count", Higher,
        "positional candidates answered by splicing or unchanged (deterministic)"),
    layer("gpusim.delta_swap_resumed", "count", Lower,
        "positional candidates re-run from a snapshot past cycle zero (deterministic)"),
    layer("gpusim.delta_swap_fallback", "count", Lower,
        "positional candidates re-run from cycle zero (deterministic)"),
    layer("gpusim.delta_edit_spliced", "count", Higher,
        "content candidates answered by splicing or unchanged (deterministic)"),
    layer("gpusim.delta_edit_resumed", "count", Lower,
        "content candidates re-run from a snapshot past cycle zero (deterministic)"),
    layer("gpusim.delta_edit_fallback", "count", Lower,
        "content candidates re-run from cycle zero (deterministic)"),
    layer("gpusim.delta_vs_full_ratio", "ratio", Lower,
        "mean delta evaluation time / full run time"),
    layer("gpusim.est_share", "ratio", Lower,
        "estimated share of a cold unit's thread time: delta and fallback counts x probed per-call cost"),
    layer("nn.encoder_forward_us", "us", Lower,
        "ConvEncoder::forward on the first kernel's observation"),
    layer("nn.encoder_backward_us", "us", Lower,
        "ConvEncoder::backward on the same observation"),
    layer("nn.matmul_mflops", "1/s", Higher,
        "Matrix::matmul_transposed, MFLOP/s with FLOPs computed from the shapes"),
    layer("nn.adam_step_us", "us", Lower,
        "Adam::step over the encoder's parameters"),
    layer("nn.policy_params", "count", Lower,
        "parameters of the actor-critic (encoder, actor and critic heads)"),
    layer("rl.act_us", "us", Lower,
        "ActorCritic::act on one observation"),
    layer("rl.update_minibatch_ms", "ms", Lower,
        "ActorCritic::update_minibatch on sixteen samples"),
    layer("rl.env_steps_per_s", "1/s", Higher,
        "environment steps per host second of PpoTrainer::train on the first kernel"),
    layer("rl.learner_share", "ratio", Lower,
        "1 - environment time / train time: the rl + nn share of training"),
    layer("rl.updates", "count", Lower,
        "policy updates of the probe training run (deterministic)"),
    layer("rl.env_steps", "count", Lower,
        "environment steps of the probe training run (deterministic)"),
    layer("rl.checkpoint_save_ms", "ms", Lower,
        "PpoTrainer::save_checkpoint"),
    layer("rl.checkpoint_bytes", "B", Lower,
        "size of the checkpoint file"),
    layer("core.game_new_ms", "ms", Lower,
        "AssemblyGame::new: baseline recording, analysis, mask, embedding"),
    layer("core.analyze_us", "us", Lower,
        "cuasmrl::analyze"),
    layer("core.mask_full_us", "us", Lower,
        "cuasmrl::action_mask from scratch"),
    layer("core.schedule_edits_us", "us", Lower,
        "cuasmrl::schedule_edits over the workload's action space"),
    layer("core.embed_us", "us", Lower,
        "cuasmrl::embed_program"),
    layer("core.program_key_us", "us", Lower,
        "cuasmrl::program_key"),
    layer("core.clone_us", "us", Lower,
        "AssemblyGame::clone"),
    layer("core.step_miss_us", "us", Lower,
        "Env::step of a legal action the eval cache has not seen"),
    layer("core.step_hit_us", "us", Lower,
        "Env::step of the same action answered by the eval cache"),
    layer("core.legal_actions_mean", "count", Higher,
        "legal actions in the initial state, mean over kernels (deterministic)"),
    layer("core.evals", "count", Lower,
        "schedule evaluations per cold unit (deterministic)"),
    layer("core.eval_cache_hit_rate", "ratio", Higher,
        "eval-cache hits / evaluations of a cold unit (deterministic)"),
    layer("core.delta_hits", "count", Higher,
        "misses of a cold unit answered incrementally (deterministic)"),
    layer("core.delta_fallbacks", "count", Lower,
        "misses of a cold unit re-simulated from cycle zero (deterministic)"),
    layer("core.delta_fallback_rate", "ratio", Lower,
        "fallbacks / delta evaluations of a cold unit (deterministic)"),
    layer("core.phase_autotune_ms", "ms", Lower,
        "PhaseTimings.autotune_ms summed over a cold unit's kernels"),
    layer("core.phase_compile_ms", "ms", Lower,
        "PhaseTimings.compile_ms summed over a cold unit's kernels"),
    layer("core.phase_search_ms", "ms", Lower,
        "PhaseTimings.search_ms summed over a cold unit's kernels"),
    layer("core.phase_verify_ms", "ms", Lower,
        "PhaseTimings.verify_ms summed over a cold unit's kernels"),
    layer("core.phase_residual_ms", "ms", Lower,
        "PhaseTimings.total_ms minus the four phases"),
    layer("core.speedup_geomean_b8", "x", Higher,
        "simulated-time geomean speedup at search budget 8 (deterministic per seed)"),
    layer("core.speedup_geomean_b24", "x", Higher,
        "the same at budget 24"),
    layer("core.speedup_geomean_b48", "x", Higher,
        "the same at budget 48"),
    layer("core.search_share", "ratio", Lower,
        "share of traced thread time inside the search (core + gpusim + rl + nn)"),
    layer("core.hit_path_est_share", "ratio", Lower,
        "estimated share of a cold unit's thread time: eval-cache hits x probed step-hit cost"),
    layer("serve.encode_request_us", "us", Lower,
        "serde_json::to_string of an OptimizeRequest"),
    layer("serve.decode_response_us", "us", Lower,
        "bytes -> OptimizeResponse of a hit answer"),
    layer("serve.response_bytes", "B", Lower,
        "size of a hit answer"),
    layer("serve.frame_roundtrip_us", "us", Lower,
        "write_frame + read_frame of a hit answer in memory"),
    layer("serve.canonicalize_us", "us", Lower,
        "OptimizeRequest::canonicalize + RequestKey::of"),
    layer("serve.queue_push_pop_us", "us", Lower,
        "AdmissionQueue::try_push + pop"),
    layer("serve.store_open_ms", "ms", Lower,
        "ScheduleStore::open_with_io on the populated directory (sweep, replay, rotate)"),
    layer("serve.store_put_ms", "ms", Lower,
        "ScheduleStore::put: journal append + fsync, entry write + fsync, rename"),
    layer("serve.store_put_io_ops", "count", Lower,
        "StoreIo operations per put (deterministic)"),
    layer("serve.store_put_bytes", "B", Lower,
        "bytes written per put, journal record and entry (deterministic)"),
    layer("serve.store_get_lru_us", "us", Lower,
        "ScheduleStore::get answered from memory"),
    layer("serve.store_get_disk_us", "us", Lower,
        "ScheduleStore::get answered from disk (one-entry memory cap)"),
    layer("serve.journal_append_us", "us", Lower,
        "StoreIo::append of one journal record, fsync included"),
    layer("serve.fsck_ms", "ms", Lower,
        "fsck verify walk over the probe store"),
    layer("serve.connect_us", "us", Lower,
        "ClientBuilder::connect: TCP connect plus reader thread"),
    layer("serve.status_ms", "ms", Lower,
        "Client::status round trip"),
    layer("serve.restart_ms", "ms", Lower,
        "Server::start on the populated store directory"),
    layer("serve.hit_latency_growth", "ratio", Lower,
        "median one-shot hit of the last decile / first decile of the hit phase; 1.0 = flat"),
    layer("serve.session_vs_oneshot_ratio", "ratio", Lower,
        "median depth-1 session hit / median one-shot hit"),
    layer("serve.manifest_bytes", "B", Lower,
        "telemetry manifest size after the first daemon's shutdown"),
    layer("serve.store_dir_bytes", "B", Lower,
        "bytes in the store directory after the first daemon's shutdown"),
    layer("serve.journal_bytes", "B", Lower,
        "journal size after the first daemon's shutdown"),
    layer("serve.requests", "count", Lower,
        "StatusResult.stats.requests of the first daemon (deterministic)"),
    layer("serve.store_hits", "count", Higher,
        "StatusResult.stats.store_hits of the first daemon (deterministic)"),
    layer("serve.computed", "count", Lower,
        "StatusResult.stats.computed of the first daemon (deterministic)"),
    layer("serve.busy", "count", Lower,
        "StatusResult.stats.busy of the first daemon"),
    layer("serve.disk_hits", "count", Lower,
        "StoreStats.disk_hits of the restarted daemon (deterministic)"),
    layer("serve.lru_bytes", "B", Lower,
        "StoreStats.lru_bytes of the first daemon"),
    layer("serve.checksum_failures", "count", Lower,
        "checksum failures both daemons reported; nonzero means damage"),
    layer("serve.journal_replayed", "count", Lower,
        "journal records the restarted daemon replayed"),
    layer("serve.cold_ms_p50", "ms", Lower,
        "host ms of one cold one-shot request, median"),
    layer("serve.cold_overhead_ms", "ms", Lower,
        "cold request minus the direct run of the same search, median"),
    layer("serve.hit_ms_p50", "ms", Lower,
        "host ms of one one-shot hit, median"),
    layer("serve.hit_ms_p99", "ms", Lower,
        "the same, 99th percentile (supported only by serve-mixed's 600 hits)"),
    layer("serve.session_hit_ms_p50", "ms", Lower,
        "host ms of one depth-1 hit on a persistent session, median"),
    layer("serve.pipelined_hits_per_s", "1/s", Higher,
        "hits per host second, two sessions with four in flight each"),
    layer("serve.disk_hit_ms_p50", "ms", Lower,
        "host ms of one one-shot hit served from disk after the capped restart"),
    layer("serve.share", "ratio", Lower,
        "share of traced thread time in serve spans, the estimated search of cold requests excluded"),
];

/// What the driver runs from the repository root; it appends
/// `--workload NAME --seed N --seconds S --trace 0|1`. `cargo run` builds the
/// package on the first run of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmarks/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmarks"];

/// `BENCHMARK.json` as this catalog defines it (`benchmarks list --json`).
pub fn benchmark_json(run_seconds: u64) -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|item| format!("\"{item}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |def: &MetricDef| {
        let bound = def
            .bound
            .map_or_else(String::new, |bound| format!(", \"bound\": {bound}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            def.name,
            def.unit,
            def.better.as_str()
        )
    };
    let metrics = |defs: &[MetricDef]| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        workloads.join(",\n"),
        metrics(&END_TO_END),
        metrics(&PER_LAYER)
    )
}

/// Looks an end-to-end or per-layer metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|def| def.name == name)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use serde::Deserialize;

    use super::*;
    use crate::run::DEFAULT_SECONDS;

    #[derive(Debug, Deserialize)]
    struct WorkloadEntry {
        name: String,
        why: String,
    }

    #[derive(Debug, Deserialize)]
    struct BoundedEntry {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Debug, Deserialize)]
    struct LayerEntry {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(Debug, Deserialize)]
    struct BenchmarkFile {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<WorkloadEntry>,
        end_to_end: Vec<BoundedEntry>,
        per_layer: Vec<LayerEntry>,
    }

    fn committed() -> BenchmarkFile {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json has the contract's shape")
    }

    fn is_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_and_the_catalog_name_the_same_workloads_and_metrics() {
        let file = committed();
        assert_eq!(file.command, COMMAND);
        assert_eq!(file.paths, PATHS);
        assert_eq!(file.run_seconds as f64, DEFAULT_SECONDS);

        let listed: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        let committed: Vec<(&str, &str)> = file
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        assert_eq!(committed, listed);

        let listed: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str(), m.bound.expect("bounded")))
            .collect();
        let committed: Vec<(&str, &str, &str, f64)> = file
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str(), m.bound))
            .collect();
        assert_eq!(committed, listed);

        let listed: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect();
        let committed: Vec<(&str, &str, &str)> = file
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        assert_eq!(committed, listed);

        // `list --json` is how the file is produced, so it must reproduce it.
        let regenerated: BenchmarkFile =
            serde_json::from_str(&benchmark_json(file.run_seconds)).expect("generated JSON parses");
        assert_eq!(regenerated.per_layer.len(), file.per_layer.len());
        assert_eq!(regenerated.command, file.command);
    }

    #[test]
    fn the_catalog_stays_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&(DEFAULT_SECONDS as u64)));
        let mut seen = BTreeSet::new();
        for workload in WORKLOADS {
            assert!(is_name(workload.name), "{}", workload.name);
            assert!(
                workload.why.len() <= 200 && !workload.why.contains('\n'),
                "{}",
                workload.name
            );
            assert!(
                seen.insert(workload.name),
                "{} is used twice",
                workload.name
            );
        }
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(is_name(def.name), "{}", def.name);
            assert!(is_unit(def.unit), "{}: unit {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} is used twice", def.name);
            assert!(!def.what.is_empty());
        }
        for def in &END_TO_END {
            let bound = def.bound.expect("every end-to-end metric is bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        }
        assert!(PER_LAYER.iter().all(|def| def.bound.is_none()));
        let setup = metric("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(benchmark_json(DEFAULT_SECONDS as u64).len() <= 64 * 1024);
    }
}
