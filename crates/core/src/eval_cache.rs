//! The schedule-evaluation cache: a digest-keyed memo of kernel
//! measurements.
//!
//! The reward signal re-simulates the whole kernel after every move, and the
//! search strategies revisit schedules constantly: episode resets replay the
//! initial schedule, undo moves walk back to states already measured, greedy
//! peeks fan out from one state (and its winner's step is a hit on what the
//! peek stored), evolutionary search replays its best move
//! sequence every generation, and PPO re-walks converged trajectories. All
//! of those revisits are cache hits here — a hash of the schedule text
//! instead of a cycle-by-cycle simulation.
//!
//! The cache is transparent by construction: the simulator is deterministic,
//! so a hit returns exactly (bit for bit) what the miss path would have
//! computed. Sharing one cache across episode resets, greedy peeks,
//! evolutionary replays and clones of one game therefore cannot change any
//! observable result — the `jobs = N ≡ jobs = 1` determinism contract
//! survives, as enforced by `tests/parallel_determinism.rs` and the
//! `eval_cache` test suite.
//!
//! Keys combine the digest of the schedule listing with a context digest of
//! the launch configuration, device model and measurement protocol
//! (including the measurement seed), so distinct contexts never collide on
//! purpose. The map sits behind one mutex, and misses are simulated *outside*
//! the lock. Every sharer — a game and its clones — runs on that game's own
//! thread, so the lock is uncontended; it is there because the cache is
//! handed around in an `Arc` and must stay `Sync`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

use gpusim::{splitmix64, ArchSpec, GpuConfig, LaunchConfig, MeasureOptions, Measurement};
use sass::{Instruction, Program};

/// Cache effectiveness counters, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
}

/// The memo map plus its hit/miss tallies. Keeping the counters under the
/// same lock as the map makes a lookup and its counter update one consistent
/// operation, so [`EvalCache::stats`] never reads counters that have drifted
/// from the map they describe.
#[derive(Debug, Default)]
struct Memo {
    map: HashMap<u64, Measurement>,
    hits: u64,
    misses: u64,
}

/// A digest → [`Measurement`] memo (see the module docs).
#[derive(Debug, Default)]
pub struct EvalCache {
    memo: Mutex<Memo>,
}

impl EvalCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        EvalCache::default()
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().expect("eval-cache lock")
    }

    /// Returns the cached measurement for `key`, or computes it with
    /// `simulate` (outside the lock) and caches it. Because the
    /// simulator is deterministic for a fixed key, a racing duplicate
    /// computation inserts an identical value — the cache never changes an
    /// observable result.
    pub fn get_or_insert_with<F>(&self, key: u64, simulate: F) -> Measurement
    where
        F: FnOnce() -> Measurement,
    {
        if let Some(hit) = self.lookup(key) {
            return hit;
        }
        let value = simulate();
        self.insert_computed(key, value.clone());
        value
    }

    /// Looks `key` up, counting a hit when present. A `None` result is not
    /// counted — the caller is expected to simulate and call
    /// [`EvalCache::insert_computed`], which records the miss.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<Measurement> {
        let mut memo = self.memo();
        let hit = memo.map.get(&key).cloned();
        if hit.is_some() {
            memo.hits += 1;
        }
        hit
    }

    /// Records a freshly simulated measurement (one miss). A racing
    /// duplicate insert stores an identical value, so last-write-wins is
    /// harmless.
    pub fn insert_computed(&self, key: u64, value: Measurement) {
        let mut memo = self.memo();
        memo.misses += 1;
        memo.map.insert(key, value);
    }

    /// Number of cached measurements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memo().map.len()
    }

    /// Returns true if nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hit/miss counters (one consistent snapshot, read under the
    /// memo's lock).
    #[must_use]
    pub fn stats(&self) -> EvalCacheStats {
        let memo = self.memo();
        EvalCacheStats {
            hits: memo.hits,
            misses: memo.misses,
        }
    }
}

/// Feeds `Display` output straight into a hasher, so digesting a schedule
/// listing never materializes the listing string.
struct HashWriter<'a>(&'a mut DefaultHasher);

impl fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Digest of one instruction line in its canonical `Display` round-trip
/// form. Instruction digests are position-free — [`schedule_key`] folds the
/// listing order in — so a game that only ever *reorders* instructions
/// computes each line's digest exactly once and re-derives [`program_key`]
/// from the cached digests in a handful of integer operations per schedule
/// change.
#[must_use]
pub fn instruction_key(inst: &Instruction) -> u64 {
    let mut hasher = DefaultHasher::new();
    write!(HashWriter(&mut hasher), "{inst}").expect("hashing never fails");
    hasher.finish()
}

/// Digest of a listing's labels with their anchors. Reordering
/// instructions never moves a label, so a game digests its labels once.
#[must_use]
pub fn labels_key(program: &Program) -> u64 {
    let mut hasher = DefaultHasher::new();
    program.labels().hash(&mut hasher);
    hasher.finish()
}

/// Order-sensitively folds a labels digest and the per-instruction digests,
/// in listing order, into one schedule digest.
#[must_use]
pub fn schedule_key(labels: u64, instructions: impl IntoIterator<Item = u64>) -> u64 {
    std::iter::once(labels)
        .chain(instructions)
        .fold(0x05ca_1ab1_e0dd_ba11_u64, |acc, key| {
            splitmix64(acc.rotate_left(17) ^ key)
        })
}

/// Digest of a schedule: every label with its anchor, then every
/// instruction, operand and control code in listing order.
#[must_use]
pub fn program_key(program: &Program) -> u64 {
    schedule_key(
        labels_key(program),
        program.instructions().iter().map(instruction_key),
    )
}

/// Digest of one GPU architecture profile: every field of the
/// [`ArchSpec`] (latency tables, overrides, issue/stall rules, bank model,
/// resource limits). Folded into every [`context_key`] so schedules
/// measured under different architecture backends can never answer each
/// other's lookups, even if the chip-level configuration matches.
#[must_use]
pub fn arch_key(arch: &ArchSpec) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(serde_json::to_string(arch).unwrap_or_default().as_bytes());
    hasher.finish()
}

/// Digest of the evaluation context: the architecture profile, the device
/// model, the launch configuration and the measurement protocol
/// (warmup/repeats/noise/seed). Computed once per game; combined with
/// [`program_key`] per evaluation.
#[must_use]
pub fn context_key(gpu: &GpuConfig, launch: &LaunchConfig, options: &MeasureOptions) -> u64 {
    let mut hasher = DefaultHasher::new();
    // The arch digest is folded in explicitly (in addition to being part of
    // the device JSON below) so the separation survives even if GpuConfig
    // serialization ever stops embedding the arch.
    hasher.write_u64(arch_key(&gpu.arch));
    for json in [
        serde_json::to_string(gpu).unwrap_or_default(),
        serde_json::to_string(launch).unwrap_or_default(),
        serde_json::to_string(options).unwrap_or_default(),
    ] {
        hasher.write(json.as_bytes());
        hasher.write_u8(0x1f); // field separator
    }
    hasher.finish()
}

/// Combines a context digest with a program digest into one cache key.
#[must_use]
pub fn combine_keys(context: u64, program: u64) -> u64 {
    splitmix64(context ^ program.rotate_left(23))
}

/// The full cache key of one (schedule, launch, device, protocol) tuple.
#[must_use]
pub fn eval_key(
    program: &Program,
    launch: &LaunchConfig,
    gpu: &GpuConfig,
    options: &MeasureOptions,
) -> u64 {
    combine_keys(context_key(gpu, launch, options), program_key(program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::measure;

    const SAMPLE: &str = "\
[B------:R-:W-:-:S04] MOV R4, 0x1000 ;
[B------:R-:W0:-:S02] LDG.E R2, [R4] ;
[B0-----:R-:W-:-:S04] IADD3 R6, R2, 0x1, RZ ;
[B------:R-:W-:-:S04] STG.E [R4], R6 ;
[B------:R-:W-:-:S05] EXIT ;
";

    fn options() -> MeasureOptions {
        MeasureOptions {
            warmup: 0,
            repeats: 3,
            noise_std: 0.0,
            seed: 0,
        }
    }

    #[test]
    fn hits_return_the_cached_measurement_bit_for_bit() {
        let cache = EvalCache::new();
        let gpu = GpuConfig::small();
        let launch = LaunchConfig::default();
        let program: Program = SAMPLE.parse().unwrap();
        let key = eval_key(&program, &launch, &gpu, &options());
        let first = cache.get_or_insert_with(key, || measure(&gpu, &program, &launch, &options()));
        let second = cache.get_or_insert_with(key, || unreachable!("second lookup must hit"));
        assert_eq!(first, second);
        assert_eq!(cache.stats(), EvalCacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn lookup_then_insert_computed_count_like_get_or_insert() {
        let cache = EvalCache::new();
        let gpu = GpuConfig::small();
        let launch = LaunchConfig::default();
        let program: Program = SAMPLE.parse().unwrap();
        let key = eval_key(&program, &launch, &gpu, &options());
        assert!(cache.lookup(key).is_none());
        let value = measure(&gpu, &program, &launch, &options());
        cache.insert_computed(key, value.clone());
        assert_eq!(cache.lookup(key), Some(value));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn keys_separate_programs_launches_devices_and_seeds() {
        let gpu = GpuConfig::small();
        let launch = LaunchConfig::default();
        let program: Program = SAMPLE.parse().unwrap();
        let base = eval_key(&program, &launch, &gpu, &options());

        // Different schedule (swap two instructions).
        let mut swapped = program.clone();
        swapped.swap_instructions(0, 1).unwrap();
        assert_ne!(base, eval_key(&swapped, &launch, &gpu, &options()));

        // Different launch.
        let other_launch = LaunchConfig {
            grid_blocks: 99,
            ..launch.clone()
        };
        assert_ne!(base, eval_key(&program, &other_launch, &gpu, &options()));

        // Different device.
        assert_ne!(
            base,
            eval_key(&program, &launch, &GpuConfig::a100(), &options())
        );

        // Different measurement seed / protocol.
        let other_options = MeasureOptions {
            seed: 7,
            ..options()
        };
        assert_ne!(base, eval_key(&program, &launch, &gpu, &other_options));
    }

    #[test]
    fn identical_listings_under_different_archs_get_distinct_entries() {
        // Two devices identical in every chip-level parameter, differing
        // only in the architecture backend: the same schedule listing must
        // occupy two distinct cache entries.
        let ampere = GpuConfig::small();
        let hopper = gpusim::GpuConfig::small_with_arch(gpusim::ArchSpec::hopper());
        let mut hopper_same_chip = hopper.clone();
        hopper_same_chip.name = ampere.name.clone();
        let program: Program = SAMPLE.parse().unwrap();
        let launch = LaunchConfig::default();
        assert_ne!(
            arch_key(&ampere.arch),
            arch_key(&hopper_same_chip.arch),
            "arch profiles must digest differently"
        );
        let key_a = eval_key(&program, &launch, &ampere, &options());
        let key_h = eval_key(&program, &launch, &hopper_same_chip, &options());
        assert_ne!(key_a, key_h);
        let cache = EvalCache::new();
        let a = cache.get_or_insert_with(key_a, || measure(&ampere, &program, &launch, &options()));
        let h = cache.get_or_insert_with(key_h, || {
            measure(&hopper_same_chip, &program, &launch, &options())
        });
        assert_eq!(cache.len(), 2, "one entry per architecture");
        assert_ne!(
            a.run.sm.cycles, h.run.sm.cycles,
            "the two backends time the schedule differently"
        );
    }

    #[test]
    fn program_key_is_stable_across_reparses() {
        let a: Program = SAMPLE.parse().unwrap();
        let b: Program = a.to_string().parse().unwrap();
        assert_eq!(program_key(&a), program_key(&b));
    }

    #[test]
    fn program_key_covers_label_names_and_anchors() {
        let body = ["MOV R0, 0x1 ;", "MOV R1, 0x2 ;", "EXIT ;"];
        let with_label = |at: usize, name: &str| -> Program {
            let mut lines: Vec<String> = body.iter().map(ToString::to_string).collect();
            lines.insert(at, format!("{name}:"));
            lines.join("\n").parse().unwrap()
        };
        let keys = [
            program_key(&body.join("\n").parse().unwrap()),
            program_key(&with_label(1, ".L_a")),
            program_key(&with_label(2, ".L_a")),
            program_key(&with_label(1, ".L_b")),
            program_key(&with_label(3, ".L_a")),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
