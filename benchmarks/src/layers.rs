//! Per-layer probes of the traced run: each layer's public functions are
//! called and timed directly, on the workload's own kernels, from outside
//! the layer. Together with the counts the instrumented passes return they
//! give the *estimated* shares (`count x per-call / unit`) where a pass is
//! opaque from outside.
//!
//! Every probe that has a cheap independent answer checks it (a delta
//! simulation against a full one, a stored entry against what was put), so
//! per-layer numbers carry a correctness bit too.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cuasmrl::{
    action_mask, analyze, embed_program, program_key, schedule_edits, ActionSpace, AssemblyGame,
    GameConfig, ScheduleEdit, StallTable,
};
use cuasmrld::{
    fsck, read_frame, write_frame, AdmissionQueue, RealIo, RequestDefaults, RequestKey,
    ScheduleStore, StoreEntry, StoreIo, STORE_SCHEMA_VERSION,
};
use gpusim::{resident_warps, CompiledProgram, DeltaEngine, DeltaOutcome, GpuConfig, SmSimulator};
use kernels::{generate, Autotuner, ConfigSpace, ScheduleStyle, TritonPipeline};
use nn::{Adam, ConvEncoder, Matrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rl::{Env, PpoConfig, PpoTrainer, Sample, Step, UpdateConfig};
use sass::Program;

use crate::oracle::Reference;
use crate::report::Tally;
use crate::scratch::TempDir;
use crate::serve::Planned;
use crate::stats::median;

/// Named values a probe produced.
pub type Values = BTreeMap<&'static str, f64>;

/// Candidate edits delta-simulated per kernel and family.
const DELTA_CANDIDATES: usize = 24;
/// Legal actions stepped per kernel for the hit/miss timing.
const STEP_CANDIDATES: usize = 24;
/// Samples of one PPO minibatch (64-step rollout, four minibatches).
const MINIBATCH: usize = 16;

/// Median host µs of `work` over `reps` calls.
fn time_us<T>(reps: usize, mut work: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(work());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `sass`: parse, print and cubin write-back, per kernel of the workload.
pub fn probe_sass(references: &[Reference]) -> Values {
    let mut insts = Vec::new();
    let mut parse = Vec::new();
    let mut print = Vec::new();
    let mut replace = Vec::new();
    for reference in references {
        let count = reference.program.instruction_count().max(1) as f64;
        let listing = reference.program.to_string();
        insts.push(count);
        parse.push(
            time_us(5, || {
                listing
                    .parse::<Program>()
                    .expect("a printed program parses")
            }) / count,
        );
        print.push(time_us(5, || reference.program.to_string()) / count);
        let mut cubin = reference.compiled.cubin.clone();
        replace.push(time_us(5, || {
            cubin
                .replace_kernel_section(&reference.compiled.name, &reference.program)
                .is_ok()
        }));
    }
    Values::from([
        ("sass.insts", mean(&insts)),
        ("sass.parse_us_per_inst", mean(&parse)),
        ("sass.print_us_per_inst", mean(&print)),
        ("sass.cubin_replace_us", mean(&replace)),
    ])
}

/// `kernels`: generate, autotune over the workload's space, compile.
pub fn probe_kernels(
    gpu: &GpuConfig,
    references: &[Reference],
    space: Option<&ConfigSpace>,
    tune: &gpusim::MeasureOptions,
) -> Values {
    let tuner = Autotuner::new(gpu.clone()).with_options(tune.clone());
    let pipeline = TritonPipeline::new(gpu.clone());
    let mut generate_us = Vec::new();
    let mut autotune_ms = Vec::new();
    let mut configs = Vec::new();
    let mut compile_us = Vec::new();
    for reference in references {
        let config = reference.compiled.config;
        let space = space
            .cloned()
            .unwrap_or_else(|| reference.spec.kind.config_space());
        generate_us.push(time_us(5, || {
            generate(&reference.spec, &config, ScheduleStyle::Baseline)
        }));
        autotune_ms.push(time_us(1, || tuner.tune(&reference.spec, &space)) / 1e3);
        configs.push(reference.tuned_configs as f64);
        compile_us.push(time_us(5, || pipeline.compile(&reference.spec, &config)));
    }
    Values::from([
        ("kernels.generate_us", mean(&generate_us)),
        ("kernels.autotune_ms", mean(&autotune_ms)),
        ("kernels.autotune_configs", mean(&configs)),
        ("kernels.compile_us", mean(&compile_us)),
    ])
}

/// Up to `DELTA_CANDIDATES` legal edits of each family (positional swaps and
/// block moves; in-place content edits), evenly strided over the edit table.
fn candidate_edits(
    program: &Program,
    stalls: &StallTable,
) -> (Vec<ScheduleEdit>, Vec<ScheduleEdit>) {
    let analysis = analyze(program, stalls);
    let movable = analysis.movable_memory_indices();
    let legal: Vec<ScheduleEdit> =
        schedule_edits(program, &movable, &analysis, stalls, ActionSpace::Rich)
            .into_iter()
            .flatten()
            .collect();
    let (positional, content): (Vec<_>, Vec<_>) = legal
        .into_iter()
        .partition(|edit| !edit.swap_sequence().is_empty());
    let stride = |edits: Vec<ScheduleEdit>| -> Vec<ScheduleEdit> {
        let step = edits.len().div_ceil(DELTA_CANDIDATES).max(1);
        edits.into_iter().step_by(step).collect()
    };
    (stride(positional), stride(content))
}

#[derive(Default)]
struct DeltaTally {
    us: Vec<f64>,
    spliced: f64,
    resumed: f64,
    fallback: f64,
}

impl DeltaTally {
    fn count(&mut self, outcome: &DeltaOutcome) {
        match outcome {
            DeltaOutcome::Unchanged | DeltaOutcome::Spliced { .. } => self.spliced += 1.0,
            DeltaOutcome::Resimulated { .. } if outcome.is_fallback() => self.fallback += 1.0,
            DeltaOutcome::Resimulated { .. } => self.resumed += 1.0,
        }
    }
}

/// `gpusim`: lowering, a full run, baseline recording and delta evaluation
/// of real candidate edits; every delta report is checked against a full
/// simulation of the same mutated schedule.
pub fn probe_gpusim(gpu: &GpuConfig, references: &[Reference], tally: &mut Tally) -> Values {
    let stalls = StallTable::for_arch(&gpu.arch);
    let simulator = SmSimulator::new(gpu.clone());
    let mut lower_us = Vec::new();
    let mut full_us = Vec::new();
    let mut cycles = Vec::new();
    let mut insts = Vec::new();
    let mut record_us = Vec::new();
    let mut snapshots = Vec::new();
    let mut swaps = DeltaTally::default();
    let mut edits = DeltaTally::default();
    for reference in references {
        let program = &reference.program;
        let launch = &reference.compiled.launch;
        let warps = resident_warps(gpu, launch);
        let constants = launch.constant_bank();
        lower_us.push(time_us(5, || CompiledProgram::compile(program, gpu)));
        let compiled = CompiledProgram::compile(program, gpu);
        let full = |compiled: &CompiledProgram| {
            simulator
                .run_compiled(compiled, warps, 0, &constants, launch.max_cycles)
                .report
        };
        full_us.push(time_us(3, || full(&compiled)));
        let report = full(&compiled);
        cycles.push(report.cycles as f64);
        insts.push(report.instructions_issued as f64);

        let mut engine = DeltaEngine::for_launch(gpu.clone(), launch);
        record_us.push(time_us(3, || {
            let baseline = engine.record_baseline(&compiled);
            let count = baseline.snapshot_count();
            engine.recycle_baseline(baseline);
            count
        }));
        let baseline = engine.record_baseline(&compiled);
        snapshots.push(baseline.snapshot_count() as f64);

        let (positional, content) = candidate_edits(program, &stalls);
        for (family, candidates) in [(&mut swaps, positional), (&mut edits, content)] {
            for edit in candidates {
                let mut mutated_program = program.clone();
                if !edit.apply(&mut mutated_program) {
                    continue;
                }
                let mut mutated = compiled.clone();
                edit.apply_to_compiled(&mut mutated, &mutated_program, gpu);
                let changed = edit.touched_indices();
                let start = Instant::now();
                let (delta_report, outcome) = engine.simulate_delta(&baseline, &mutated, &changed);
                family.us.push(start.elapsed().as_secs_f64() * 1e6);
                family.count(&outcome);
                tally.record(if delta_report == full(&mutated) {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: delta report differs from the full simulation after {edit:?}",
                        reference.compiled.name
                    ))
                });
            }
        }
    }
    let full_run_us = mean(&full_us);
    let sim_cycles = mean(&cycles);
    let sim_insts = mean(&insts);
    let all_delta: Vec<f64> = swaps.us.iter().chain(&edits.us).copied().collect();
    Values::from([
        ("gpusim.lower_us", mean(&lower_us)),
        ("gpusim.full_run_us", full_run_us),
        ("gpusim.sim_cycles", sim_cycles),
        ("gpusim.sim_insts", sim_insts),
        (
            "gpusim.host_ns_per_sim_cycle",
            full_run_us * 1e3 / sim_cycles.max(1.0),
        ),
        (
            "gpusim.sim_minst_per_host_s",
            sim_insts / full_run_us.max(1e-9),
        ),
        ("gpusim.record_baseline_us", mean(&record_us)),
        ("gpusim.snapshots", mean(&snapshots)),
        ("gpusim.delta_swap_us", mean(&swaps.us)),
        ("gpusim.delta_edit_us", mean(&edits.us)),
        ("gpusim.delta_swap_spliced", swaps.spliced),
        ("gpusim.delta_swap_resumed", swaps.resumed),
        ("gpusim.delta_swap_fallback", swaps.fallback),
        ("gpusim.delta_edit_spliced", edits.spliced),
        ("gpusim.delta_edit_resumed", edits.resumed),
        ("gpusim.delta_edit_fallback", edits.fallback),
        (
            "gpusim.delta_vs_full_ratio",
            mean(&all_delta) / full_run_us.max(1e-9),
        ),
    ])
}

fn new_game(gpu: &GpuConfig, reference: &Reference, config: &GameConfig) -> AssemblyGame {
    AssemblyGame::new(
        gpu.clone(),
        reference.program.clone(),
        reference.compiled.launch.clone(),
        StallTable::for_arch(&gpu.arch),
        config.clone(),
    )
}

/// `core`: game construction, the analysis/mask/embed/key derived state,
/// clone, and one step per legal action on a cold then a warm eval cache.
pub fn probe_core(gpu: &GpuConfig, references: &[Reference], config: &GameConfig) -> Values {
    let stalls = StallTable::for_arch(&gpu.arch);
    let mut game_new_ms = Vec::new();
    let mut analyze_us = Vec::new();
    let mut mask_us = Vec::new();
    let mut edits_us = Vec::new();
    let mut embed_us = Vec::new();
    let mut key_us = Vec::new();
    let mut clone_us = Vec::new();
    let mut miss_us = Vec::new();
    let mut hit_us = Vec::new();
    let mut legal = Vec::new();
    for reference in references {
        let program = &reference.program;
        game_new_ms.push(time_us(3, || new_game(gpu, reference, config)) / 1e3);
        analyze_us.push(time_us(5, || analyze(program, &stalls)));
        let analysis = analyze(program, &stalls);
        let movable = analysis.movable_memory_indices();
        mask_us.push(time_us(5, || {
            action_mask(program, &movable, &analysis, &stalls)
        }));
        edits_us.push(time_us(5, || {
            schedule_edits(program, &movable, &analysis, &stalls, config.action_space)
        }));
        embed_us.push(time_us(5, || embed_program(program, &analysis, &gpu.arch)));
        key_us.push(time_us(5, || program_key(program)));

        let mut game = new_game(gpu, reference, config);
        let _ = game.reset();
        clone_us.push(time_us(9, || game.clone()));
        let mask = game.action_mask();
        let actions: Vec<usize> = (0..mask.len()).filter(|&a| mask[a]).collect();
        legal.push(actions.len() as f64);
        let step = actions.len().div_ceil(STEP_CANDIDATES).max(1);
        for &action in actions.iter().step_by(step) {
            // Clones share the eval cache: the first step of an action
            // simulates, the second is answered from the cache. The cache's
            // own counters say which happened.
            for _ in 0..2 {
                let mut probe = game.clone();
                let before = game.eval_cache().stats();
                let start = Instant::now();
                black_box(probe.step(action));
                let us = start.elapsed().as_secs_f64() * 1e6;
                let after = game.eval_cache().stats();
                if after.misses > before.misses {
                    miss_us.push(us);
                } else if after.hits > before.hits {
                    hit_us.push(us);
                }
            }
        }
    }
    Values::from([
        ("core.game_new_ms", mean(&game_new_ms)),
        ("core.analyze_us", mean(&analyze_us)),
        ("core.mask_full_us", mean(&mask_us)),
        ("core.schedule_edits_us", mean(&edits_us)),
        ("core.embed_us", mean(&embed_us)),
        ("core.program_key_us", mean(&key_us)),
        ("core.clone_us", mean(&clone_us)),
        ("core.step_miss_us", mean(&miss_us)),
        ("core.step_hit_us", mean(&hit_us)),
        ("core.legal_actions_mean", mean(&legal)),
    ])
}

/// An environment wrapper that adds up the host time spent inside the
/// wrapped environment, so a training run separates into environment time
/// (`core` + `gpusim`) and learner time (`rl` + `nn`).
pub struct TracedEnv<E: Env> {
    inner: E,
    env_ns: Cell<u64>,
}

impl<E: Env> TracedEnv<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> TracedEnv<E> {
        TracedEnv {
            inner,
            env_ns: Cell::new(0),
        }
    }

    /// Host nanoseconds spent inside the wrapped environment so far.
    pub fn env_ns(&self) -> u64 {
        self.env_ns.get()
    }

    fn add(&self, start: Instant) {
        self.env_ns
            .set(self.env_ns.get() + start.elapsed().as_nanos() as u64);
    }
}

impl<E: Env> Env for TracedEnv<E> {
    fn reset(&mut self) -> Matrix {
        let start = Instant::now();
        let observation = self.inner.reset();
        self.add(start);
        observation
    }

    fn step(&mut self, action: usize) -> Step {
        let start = Instant::now();
        let step = self.inner.step(action);
        self.add(start);
        step
    }

    fn action_count(&self) -> usize {
        self.inner.action_count()
    }

    fn action_mask(&self) -> Vec<bool> {
        let start = Instant::now();
        let mask = self.inner.action_mask();
        self.add(start);
        mask
    }

    fn observation_features(&self) -> usize {
        self.inner.observation_features()
    }

    fn state_bytes(&self) -> Option<Vec<u8>> {
        self.inner.state_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> bool {
        self.inner.restore_state(state)
    }
}

/// `rl`: trains `ppo` on the first kernel's game through a [`TracedEnv`],
/// then times acting, one minibatch update and a checkpoint.
pub fn probe_rl(
    gpu: &GpuConfig,
    reference: &Reference,
    config: &GameConfig,
    ppo: &PpoConfig,
    scratch: &Path,
) -> Result<Values, String> {
    let mut env = TracedEnv::new(new_game(gpu, reference, config));
    let mut trainer = PpoTrainer::new(ppo.clone(), env.observation_features(), env.action_count());
    let start = Instant::now();
    let stats = trainer.train(&mut env);
    let train_ns = start.elapsed().as_nanos() as u64;
    let env_ns = env.env_ns();
    let train_s = train_ns as f64 / 1e9;

    let checkpoint = scratch.join("probe.ckpt");
    let start = Instant::now();
    trainer
        .save_checkpoint(&env, &checkpoint)
        .map_err(|err| format!("checkpoint: {err}"))?;
    let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
    let checkpoint_bytes = std::fs::metadata(&checkpoint)
        .map_err(|err| format!("checkpoint: {err}"))?
        .len();

    let observation = env.reset();
    let mask = env.action_mask();
    let act_us = time_us(9, || trainer.policy_mut().act(&observation, &mask));
    let action = mask.iter().position(|&legal| legal).unwrap_or(0);
    let samples: Vec<Sample<'_>> = (0..MINIBATCH)
        .map(|_| Sample {
            observation: &observation,
            mask: &mask,
            action,
            old_log_prob: -1.0,
            advantage: 0.5,
            ret: 0.0,
        })
        .collect();
    let update = UpdateConfig {
        clip_coef: ppo.clip_coef,
        ent_coef: ppo.ent_coef,
        vf_coef: ppo.vf_coef,
    };
    let update_ms = time_us(3, || {
        trainer.policy_mut().update_minibatch(&samples, &update)
    }) / 1e3;

    Ok(Values::from([
        ("rl.act_us", act_us),
        ("rl.update_minibatch_ms", update_ms),
        ("rl.env_steps_per_s", stats.steps as f64 / train_s.max(1e-9)),
        (
            "rl.learner_share",
            1.0 - env_ns as f64 / train_ns.max(1) as f64,
        ),
        ("rl.updates", trainer.completed_updates() as f64),
        ("rl.env_steps", stats.steps as f64),
        ("rl.checkpoint_save_ms", checkpoint_ms),
        ("rl.checkpoint_bytes", checkpoint_bytes as f64),
    ]))
}

/// `nn`: the conv encoder forward and backward on the first kernel's
/// observation, a dense product, and one Adam step over the encoder.
pub fn probe_nn(
    gpu: &GpuConfig,
    reference: &Reference,
    config: &GameConfig,
    ppo: &PpoConfig,
) -> Values {
    let mut game = new_game(gpu, reference, config);
    let observation = game.reset();
    let features = observation.cols();
    // The policy head is as wide as the game's action space.
    let actions = game.action_count();
    let mut rng = ChaCha8Rng::seed_from_u64(ppo.seed);
    let mut encoder = ConvEncoder::new(&mut rng, ppo.channels, ppo.kernel, features);
    let forward_us = time_us(9, || encoder.forward(&observation));
    let (_, activations) = encoder.forward(&observation);
    let grad_pooled = vec![0.01f32; ppo.channels];
    let backward_us = time_us(9, || {
        encoder.backward(&observation, &activations, &grad_pooled)
    });

    // FLOPs from the shapes: an `m x k` by `n x k` product is `2 m n k`.
    let (m, n, k) = (observation.rows(), 64, features);
    let other = Matrix::from_vec(n, k, vec![0.5; n * k]);
    let matmul_us = time_us(9, || observation.matmul_transposed(&other));
    let mflops = (2 * m * n * k) as f64 / matmul_us.max(1e-9);

    let gradients = encoder.gradients();
    let mut adam = Adam::new(encoder.parameter_count(), ppo.learning_rate);
    let adam_us = time_us(9, || adam.step(&mut encoder.parameters_mut(), &gradients));

    // Encoder (weights + biases), actor and critic heads on the pooled
    // channels.
    let params = encoder.parameter_count() + (ppo.channels + 1) * actions + ppo.channels + 1;
    Values::from([
        ("nn.encoder_forward_us", forward_us),
        ("nn.encoder_backward_us", backward_us),
        ("nn.matmul_mflops", mflops),
        ("nn.adam_step_us", adam_us),
        ("nn.policy_params", params as f64),
    ])
}

/// A `StoreIo` that forwards to [`RealIo`] and counts operations, bytes
/// written and host time per operation kind.
#[derive(Debug, Default)]
pub struct CountingIo {
    ops: AtomicU64,
    written: AtomicU64,
    append_ops: AtomicU64,
    append_ns: AtomicU64,
}

impl CountingIo {
    fn counted<T>(&self, call: impl FnOnce() -> std::io::Result<T>) -> std::io::Result<T> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        call()
    }
}

impl StoreIo for CountingIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.counted(|| RealIo.read(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.counted(|| RealIo.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.append_ops.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = self.counted(|| RealIo.append(path, bytes));
        self.append_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.counted(|| RealIo.rename(from, to))
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.counted(|| RealIo.remove(path))
    }
}

/// `serve`, the parts that need no daemon: request/response codec, framing,
/// canonicalisation, the admission queue, and the store and its journal
/// through a counting `StoreIo`, then `fsck` over the directory it wrote.
pub fn probe_serve_offline(
    answers: &[&Planned],
    hit_bytes: &[u8],
    tally: &mut Tally,
) -> Result<Values, String> {
    let io_err = |err: std::io::Error| err.to_string();
    let defaults = RequestDefaults { scale: 16, seed: 0 };
    let first = answers.first().ok_or("no stored answer to probe with")?;

    let encode_us = time_us(9, || serde_json::to_string(&first.request));
    let decode_us = time_us(9, || {
        std::str::from_utf8(hit_bytes)
            .ok()
            .and_then(|text| serde_json::from_str::<cuasmrld::OptimizeResponse>(text).ok())
            .is_some()
    });
    let frame_us = time_us(9, || {
        let mut wire = Vec::with_capacity(hit_bytes.len() + 4);
        write_frame(&mut wire, hit_bytes).and_then(|()| read_frame(&mut wire.as_slice()))
    });
    let canonical_us = time_us(9, || {
        first
            .request
            .canonicalize(&defaults)
            .map(|canonical| RequestKey::of(&canonical))
            .is_ok()
    });
    let queue: AdmissionQueue<u64> = AdmissionQueue::new(32);
    let queue_us = time_us(9, || {
        let pushed = queue.try_push(first.request.rank(), 0, 0).is_ok();
        (pushed, queue.pop())
    });

    let mut entries = Vec::with_capacity(answers.len());
    for answer in answers {
        let canonical = answer
            .request
            .canonicalize(&defaults)
            .map_err(|err| err.to_string())?;
        let key = RequestKey::of(&canonical);
        let entry = StoreEntry {
            schema_version: STORE_SCHEMA_VERSION,
            canonical: key.canonical.clone(),
            arch: key.arch.clone(),
            kernel: key.kernel.clone(),
            seed: canonical.seed,
            generation: 0,
            checksum: String::new(),
            report: serde_json::from_str(&answer.report_json).map_err(|err| err.to_string())?,
        }
        .seal();
        entries.push((key, entry));
    }

    let dir = TempDir::new("store-probe").map_err(io_err)?;
    let io = Arc::new(CountingIo::default());
    let store = ScheduleStore::open_with_io(dir.path(), entries.len().max(1), io.clone())
        .map_err(|err| err.to_string())?;
    let ops_before = io.ops.load(Ordering::Relaxed);
    let written_before = io.written.load(Ordering::Relaxed);
    let mut put_ms = Vec::with_capacity(entries.len());
    for (key, entry) in &entries {
        let start = Instant::now();
        store
            .put(key, entry.clone())
            .map_err(|err| err.to_string())?;
        put_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let puts = entries.len().max(1) as f64;
    let put_ops = (io.ops.load(Ordering::Relaxed) - ops_before) as f64 / puts;
    let put_bytes = (io.written.load(Ordering::Relaxed) - written_before) as f64 / puts;
    let append_us = io.append_ns.load(Ordering::Relaxed) as f64
        / 1e3
        / io.append_ops.load(Ordering::Relaxed).max(1) as f64;

    let mut lru_us = Vec::with_capacity(entries.len());
    for (key, entry) in &entries {
        let start = Instant::now();
        let got = store.get(key);
        lru_us.push(start.elapsed().as_secs_f64() * 1e6);
        tally.record(match got {
            Ok(Some(got)) if got.checksum == entry.checksum => Ok(()),
            other => Err(format!("store probe: memory get returned {other:?}")),
        });
    }
    drop(store);

    // A one-entry memory cap makes every get of a cycling key a disk read.
    let open_ms = time_us(1, || {
        ScheduleStore::open_with_io(dir.path(), 1, Arc::new(CountingIo::default())).is_ok()
    }) / 1e3;
    let store = ScheduleStore::open_with_io(dir.path(), 1, Arc::new(CountingIo::default()))
        .map_err(|err| err.to_string())?;
    let mut disk_us = Vec::with_capacity(entries.len());
    for (key, entry) in &entries {
        let start = Instant::now();
        let got = store.get(key);
        disk_us.push(start.elapsed().as_secs_f64() * 1e6);
        tally.record(match got {
            Ok(Some(got)) if got.checksum == entry.checksum => Ok(()),
            other => Err(format!("store probe: disk get returned {other:?}")),
        });
    }
    drop(store);

    let start = Instant::now();
    let report = fsck(dir.path(), false).map_err(io_err)?;
    let fsck_ms = start.elapsed().as_secs_f64() * 1e3;
    tally.record(if report.healthy() && report.ok == entries.len() {
        Ok(())
    } else {
        Err(format!(
            "store probe: fsck found {} of {} entries ok",
            report.ok,
            entries.len()
        ))
    });

    Ok(Values::from([
        ("serve.encode_request_us", encode_us),
        ("serve.decode_response_us", decode_us),
        ("serve.frame_roundtrip_us", frame_us),
        ("serve.canonicalize_us", canonical_us),
        ("serve.queue_push_pop_us", queue_us),
        ("serve.store_open_ms", open_ms),
        ("serve.store_put_ms", median(&put_ms)),
        ("serve.store_put_io_ops", put_ops),
        ("serve.store_put_bytes", put_bytes),
        ("serve.store_get_lru_us", median(&lru_us)),
        ("serve.store_get_disk_us", median(&disk_us)),
        ("serve.journal_append_us", append_us),
        ("serve.fsck_ms", fsck_ms),
    ]))
}
