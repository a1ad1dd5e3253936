//! The traced run: one per workload, separate from the end-to-end run.
//!
//! It (1) times the workload's unit untraced and traced, for the tracing
//! overhead; (2) records spans around every call into a layer's public
//! functions while a unit runs — where the unit is opaque from outside (the
//! greedy and evolutionary loops are private to `core`, a cold request's
//! search runs inside the daemon) it uses what the public `*_instrumented`
//! calls return; (3) runs the per-layer probes of [`crate::layers`] on the
//! workload's own kernels; (4) repeats the workload at three search budgets
//! for time-to-quality; and (5) runs the serving script (in full for
//! `serve-mixed`, a short one over the workload's kernels otherwise).
//! Spans are written to `out/trace-<workload>.jsonl` at exit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cuasmrl::{CacheTelemetry, GameConfig, PhaseTimings, Strategy, SuiteOptimizer};
use gpusim::{GpuConfig, MeasureOptions};
use kernels::{Autotuner, ConfigSpace, KernelSpec, TritonPipeline};
use rl::PpoConfig;
use sass::Program;

use crate::layers::{self, Values};
use crate::oracle::{Reference, Verifier};
use crate::report::{MetricValue, Outcome, Tally};
use crate::scratch::{out_dir, TempDir};
use crate::search::{self, SearchSamples, SearchSetup};
use crate::serve::{self, ServeSamples, ServeSetup};
use crate::stats::{median, percentile};
use crate::trace::{layer_self_times, Span, Tracer, ROOT};
use crate::workloads::{probe_ppo, SearchWorkload, ServeWorkload, BUDGETS, JOBS};

/// Fewest units timed on each side of the overhead comparison.
const MIN_UNITS: usize = 3;

/// What one unit of cold work (a suite pass, a six-kernel cold sweep) did,
/// summed over its kernels, as the instrumented public calls report it.
#[derive(Debug, Clone, Copy, Default)]
struct UnitTelemetry {
    cache: CacheTelemetry,
    phases: PhaseTimings,
    kernels: usize,
}

/// What the layer probes need to know about a workload.
struct LayerContext<'a> {
    gpu: &'a GpuConfig,
    references: &'a [Reference],
    specs: &'a [KernelSpec],
    space: Option<&'a ConfigSpace>,
    tune: &'a MeasureOptions,
    game: &'a GameConfig,
    ppo: PpoConfig,
    unit: UnitTelemetry,
    verifier: &'a Verifier,
    /// The workload's optimizer at a given search budget.
    at_budget: &'a dyn Fn(usize) -> SuiteOptimizer,
}

/// Probes `sass`, `kernels`, `gpusim`, `nn`, `rl` and `core`, runs the budget
/// sweep, and derives the estimated shares.
fn layer_values(ctx: &LayerContext<'_>, tally: &mut Tally) -> Result<Values, String> {
    let first = ctx.references.first().ok_or("the workload has no kernel")?;
    let scratch = TempDir::new("rl-probe").map_err(|err| err.to_string())?;
    let mut values = layers::probe_sass(ctx.references);
    values.extend(layers::probe_kernels(
        ctx.gpu,
        ctx.references,
        ctx.space,
        ctx.tune,
    ));
    values.extend(layers::probe_gpusim(ctx.gpu, ctx.references, tally));
    values.extend(layers::probe_core(ctx.gpu, ctx.references, ctx.game));
    values.extend(layers::probe_rl(
        ctx.gpu,
        first,
        ctx.game,
        &ctx.ppo,
        scratch.path(),
    )?);
    values.extend(layers::probe_nn(ctx.gpu, first, ctx.game, &ctx.ppo));

    for (name, budget) in [
        "core.speedup_geomean_b8",
        "core.speedup_geomean_b24",
        "core.speedup_geomean_b48",
    ]
    .into_iter()
    .zip(BUDGETS)
    {
        let suite = (ctx.at_budget)(budget).optimize_labeled(ctx.specs, "budget");
        search::check_suite(ctx.verifier, &suite, ctx.specs.len(), tally);
        values.insert(name, suite.geomean_speedup);
    }

    let UnitTelemetry {
        cache,
        phases,
        kernels,
    } = ctx.unit;
    let residual = phases.total_ms
        - phases.autotune_ms
        - phases.compile_ms
        - phases.search_ms
        - phases.verify_ms;
    values.extend([
        ("core.evals", (cache.hits + cache.misses) as f64),
        ("core.eval_cache_hit_rate", cache.hit_rate),
        ("core.delta_hits", cache.delta_hits as f64),
        ("core.delta_fallbacks", cache.delta_fallbacks as f64),
        ("core.delta_fallback_rate", cache.delta_fallback_rate),
        ("core.phase_autotune_ms", phases.autotune_ms),
        ("core.phase_compile_ms", phases.compile_ms),
        ("core.phase_search_ms", phases.search_ms),
        ("core.phase_verify_ms", phases.verify_ms),
        ("core.phase_residual_ms", residual),
    ]);

    // Estimated shares of the unit's thread time: count x per-call cost.
    let delta_us = match ctx.game.action_space {
        cuasmrl::ActionSpace::AdjacentSwap => values["gpusim.delta_swap_us"],
        cuasmrl::ActionSpace::Rich => {
            (values["gpusim.delta_swap_us"] + values["gpusim.delta_edit_us"]) / 2.0
        }
    };
    let thread_us = (phases.total_ms * 1e3).max(1e-9);
    let gpusim_us = cache.delta_hits as f64 * delta_us
        + cache.delta_fallbacks as f64 * values["gpusim.full_run_us"]
        + kernels as f64 * (values["gpusim.record_baseline_us"] + values["gpusim.lower_us"]);
    values.insert("gpusim.est_share", gpusim_us / thread_us);
    values.insert(
        "core.hit_path_est_share",
        cache.hits as f64 * values["core.step_hit_us"] / thread_us,
    );
    Ok(values)
}

/// Shares of the traced units' thread time by layer, from span self times.
fn share_values(spans: &[Span]) -> Values {
    let by_layer = layer_self_times(spans);
    let total = by_layer.values().sum::<u64>().max(1) as f64;
    let share = |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / total;
    Values::from([
        ("sass.share", share("sass")),
        ("kernels.share", share("kernels")),
        (
            "core.search_share",
            share("core") + share("gpusim") + share("rl") + share("nn"),
        ),
        ("serve.share", share("serve")),
        ("bench.attributed_share", 1.0 - share("residual")),
    ])
}

/// `serve.*` values from the script's samples plus the offline probe.
fn serve_values(
    setup: &ServeSetup,
    samples: &ServeSamples,
    tally: &mut Tally,
) -> Result<Values, String> {
    let hits = samples
        .hit_request_ms
        .first()
        .filter(|hits| !hits.is_empty())
        .ok_or("the script recorded no hit")?;
    let decile = (hits.len() / 10).max(1);
    let growth = median(&hits[hits.len() - decile..]) / median(&hits[..decile]);
    let all_hits: Vec<f64> = samples.hit_request_ms.iter().flatten().copied().collect();
    let hit_p50 = median(&all_hits);
    let memory = samples
        .memory_status
        .as_ref()
        .ok_or("the first daemon answered no status probe")?;
    let disk = samples
        .disk_status
        .as_ref()
        .ok_or("the restarted daemon answered no status probe")?;
    let (dir_bytes, manifest_bytes, journal_bytes) = samples.store_dir_bytes;

    let hit_bytes = samples
        .first_hit_bytes
        .as_deref()
        .ok_or("the script kept no hit answer")?;
    let mut values = layers::probe_serve_offline(&setup.planned(), hit_bytes, tally)?;
    values.extend([
        ("serve.response_bytes", median(&samples.response_bytes)),
        ("serve.connect_us", median(&samples.connect_us)),
        ("serve.status_ms", median(&samples.status_ms)),
        ("serve.restart_ms", median(&samples.restart_ms)),
        ("serve.hit_latency_growth", growth),
        (
            "serve.session_vs_oneshot_ratio",
            median(&samples.session_ms) / hit_p50,
        ),
        ("serve.manifest_bytes", manifest_bytes as f64),
        ("serve.store_dir_bytes", dir_bytes as f64),
        ("serve.journal_bytes", journal_bytes as f64),
        ("serve.requests", memory.stats.requests as f64),
        ("serve.store_hits", memory.stats.store_hits as f64),
        ("serve.computed", memory.stats.computed as f64),
        ("serve.busy", memory.stats.busy as f64),
        ("serve.disk_hits", disk.store.disk_hits as f64),
        ("serve.lru_bytes", memory.store.lru_bytes as f64),
        (
            "serve.checksum_failures",
            (memory.stats.checksum_failures + disk.stats.checksum_failures) as f64,
        ),
        ("serve.journal_replayed", disk.store.journal_replayed as f64),
        ("serve.cold_ms_p50", median(&samples.cold_request_ms)),
        ("serve.cold_overhead_ms", median(&samples.cold_overhead_ms)),
        ("serve.hit_ms_p50", hit_p50),
        ("serve.hit_ms_p99", percentile(&all_hits, 99.0)),
        ("serve.session_hit_ms_p50", median(&samples.session_ms)),
        (
            "serve.pipelined_hits_per_s",
            median(&samples.pipelined_per_s),
        ),
        ("serve.disk_hit_ms_p50", median(&samples.disk_ms)),
    ]);
    Ok(values)
}

fn finish(
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    values: Values,
    tally: Tally,
) -> Result<Outcome, String> {
    let path = out_dir()
        .map_err(|err| err.to_string())?
        .join(format!("trace-{workload}.jsonl"));
    tracer
        .write_jsonl(&path, workload)
        .map_err(|err| format!("{}: {err}", path.display()))?;
    Ok(Outcome {
        workload: workload.to_string(),
        seed,
        traced: true,
        notes: Vec::new(),
        tally,
        metrics: values
            .into_iter()
            .map(|(name, value)| (name.to_string(), MetricValue::single(value)))
            .collect::<BTreeMap<_, _>>(),
    })
}

/// One pass through the same public calls `CuAsmRl::optimize_spec` makes,
/// on the same two-worker pool shape `SuiteOptimizer` uses, with a span
/// around each call. Returns the pass's host ms.
fn traced_pass(setup: &SearchSetup, tracer: &Tracer, unit: u64, tally: &mut Tally) -> f64 {
    let workload = &setup.workload;
    let specs = &workload.specs;
    // The same seed the untraced pass of this index searched under.
    let optimizer = setup.pass_optimizer(unit);
    let next = AtomicUsize::new(0);
    let reports = Mutex::new(Vec::with_capacity(specs.len()));
    let start = Instant::now();
    tracer.span("pass", ROOT, unit, |pass| {
        std::thread::scope(|scope| {
            for _ in 0..JOBS.min(specs.len()) {
                scope.spawn(|| {
                    while let Some(spec) = specs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let report = tracer.span("kernel", pass, unit, |kernel| {
                            traced_kernel(&optimizer, tracer, kernel, unit, spec)
                        });
                        reports
                            .lock()
                            .expect("a push cannot leave the list half-updated")
                            .push(report);
                    }
                });
            }
        });
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let reports = reports
        .into_inner()
        .expect("a push cannot leave the list half-updated");
    for report in &reports {
        tally.record(setup.verifier.check(report));
    }
    for _ in reports.len()..specs.len() {
        tally.record(Err("a kernel produced no report".to_string()));
    }
    ms
}

fn traced_kernel(
    suite: &SuiteOptimizer,
    tracer: &Tracer,
    kernel: u64,
    unit: u64,
    spec: &KernelSpec,
) -> cuasmrl::OptimizationReport {
    let gpu = suite.gpu();
    let optimizer = suite.optimizer_for(spec);
    let space = suite.config_space_for(spec);
    let tuning = tracer.span("kernels.autotune", kernel, unit, |_| {
        Autotuner::new(gpu.clone())
            .with_options(suite.tune_options().clone())
            .tune(spec, &space)
    });
    let compiled = tracer.span("kernels.compile", kernel, unit, |_| {
        TritonPipeline::new(gpu.clone()).compile(spec, &tuning.best)
    });
    let program = tracer.span("sass.kernel_program", kernel, unit, |_| {
        compiled
            .cubin
            .kernel_program(&compiled.name)
            .expect("the pipeline names the kernel it compiled")
    });
    let (report, _telemetry) = tracer.span("core.optimize_program", kernel, unit, |_| {
        optimizer.optimize_program_instrumented(&compiled.name, program, compiled.launch.clone())
    });
    let mut cubin = compiled.cubin;
    tracer.span("sass.write_back", kernel, unit, |_| {
        if let Ok(optimized) = report.optimized_listing.parse::<Program>() {
            let _ = cubin.replace_kernel_section(&compiled.name, &optimized);
        }
    });
    report
}

/// The traced run of a search workload.
pub fn run_search(workload: &SearchWorkload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let setup = search::setup(workload, seed).map_err(|err| format!("set-up failed: {err}"))?;
    let tracer = Tracer::new(true);
    let mut tally = setup.tally.clone();
    let slice = Duration::from_secs_f64(seconds / 4.0);

    let mut untraced = SearchSamples::default();
    let deadline = Instant::now() + slice;
    while untraced.cold_ms.len() < MIN_UNITS || Instant::now() < deadline {
        search::cold_pass(&setup, untraced.cold_ms.len() as u64, &mut untraced);
    }
    let mut traced_ms = Vec::new();
    let deadline = Instant::now() + slice;
    while traced_ms.len() < MIN_UNITS || Instant::now() < deadline {
        let unit = traced_ms.len() as u64;
        traced_ms.push(traced_pass(&setup, &tracer, unit, &mut tally));
    }
    let manifest = untraced
        .manifest
        .take()
        .ok_or("no untraced pass was measured")?;
    tally.absorb(untraced.tally);

    let unit = UnitTelemetry {
        cache: manifest.cache,
        phases: manifest.phases,
        kernels: workload.specs.len(),
    };
    let mut values = share_values(&tracer.spans());
    values.insert(
        "bench.trace_overhead_share",
        median(&traced_ms) / median(&untraced.cold_ms) - 1.0,
    );
    let at_budget = |budget| workload.optimizer(seed, budget);
    values.extend(layer_values(
        &LayerContext {
            gpu: &workload.gpu,
            references: setup.verifier.references(),
            specs: &workload.specs,
            space: workload.space.as_ref(),
            tune: setup.cold.tune_options(),
            game: &workload.game,
            ppo: workload.ppo_config(seed),
            unit,
            verifier: &setup.verifier,
            at_budget: &at_budget,
        },
        &mut tally,
    )?);

    // The `serve` probe: a short script over this workload's own kernels,
    // outside the traced passes, so it leaves their shares alone.
    let probe = ServeWorkload::probe_for(workload);
    let serve_setup =
        serve::setup(&probe, seed).map_err(|err| format!("serve probe set-up failed: {err}"))?;
    let mut samples = ServeSamples::default();
    serve::run_script(&serve_setup, &Tracer::new(false), 0, &mut samples)
        .map_err(|err| format!("serve probe: {err}"))?;
    tally.absorb(serve_setup.tally.clone());
    values.extend(serve_values(&serve_setup, &samples, &mut tally)?);
    tally.absorb(samples.tally);
    finish(workload.name, seed, &tracer, values, tally)
}

/// The traced run of `serve-mixed`.
pub fn run_serve(seed: u64) -> Result<Outcome, String> {
    let workload = ServeWorkload::mixed_traced();
    let setup = serve::setup(&workload, seed).map_err(|err| format!("set-up failed: {err}"))?;
    let tracer = Tracer::new(true);
    let mut tally = setup.tally.clone();

    let timed_script = |tracer: &Tracer, unit: u64| -> Result<(f64, ServeSamples), String> {
        let mut samples = ServeSamples::default();
        let start = Instant::now();
        serve::run_script(&setup, tracer, unit, &mut samples)
            .map_err(|err| format!("serve-mixed: {err}"))?;
        Ok((start.elapsed().as_secs_f64(), samples))
    };
    let (untraced_s, untraced) = timed_script(&Tracer::new(false), 0)?;
    let (traced_s, samples) = timed_script(&tracer, 0)?;
    tally.absorb(untraced.tally);

    // The search layers' view of this workload: what the direct runs of
    // set-up reported for the first cold sweep, and greedy at the probe
    // budgets.
    let mut unit = UnitTelemetry {
        kernels: workload.specs.len(),
        ..UnitTelemetry::default()
    };
    for planned in &setup.plan[0] {
        unit.cache.accumulate(&planned.cache);
        unit.phases.accumulate(&planned.phases);
    }

    let mut values = share_values(&tracer.spans());
    values.insert("bench.trace_overhead_share", traced_s / untraced_s - 1.0);
    let store = TempDir::new("budget").map_err(|err| err.to_string())?;
    let config = workload.server_config(store.path(), 1);
    let at_budget = |budget| {
        let mut config = config.clone();
        config.strategy = Strategy::Greedy { max_moves: budget };
        config
            .suite_optimizer(workload.gpu.clone(), seed)
            .with_jobs(JOBS)
    };
    values.extend(layer_values(
        &LayerContext {
            gpu: &workload.gpu,
            references: setup.verifier.references(),
            specs: &workload.specs,
            space: None,
            tune: &config.tune_options,
            game: &config.game_config,
            ppo: probe_ppo(seed),
            unit,
            verifier: &setup.verifier,
            at_budget: &at_budget,
        },
        &mut tally,
    )?);
    values.extend(serve_values(&setup, &samples, &mut tally)?);
    tally.absorb(samples.tally);
    finish("serve-mixed", seed, &tracer, values, tally)
}
