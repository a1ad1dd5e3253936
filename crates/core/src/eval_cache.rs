//! The schedule-evaluation cache: a game's one per-schedule memo, keyed by
//! schedule digest, of kernel measurements and derived views.
//!
//! The reward signal re-simulates the whole kernel after every move, and the
//! search strategies revisit schedules constantly: episode resets replay the
//! initial schedule, undo moves walk back to states already measured, greedy
//! peeks fan out from one state (and its winner's step is a hit on what the
//! peek stored), evolutionary search replays its best move
//! sequence every generation, and PPO re-walks converged trajectories. All
//! of those revisits are cache hits here — a hash of the schedule text
//! instead of a cycle-by-cycle simulation. A schedule an accepted step
//! reached also keeps its derived views (analysis, mask, observation) in
//! its entry, so a revisit re-adopts them from the same lookup.
//!
//! The cache is transparent by construction: the simulator is deterministic
//! and the views are pure functions of the listing, so a hit returns exactly
//! (bit for bit) what the miss path would have computed. Sharing one cache
//! across episode resets, greedy peeks, evolutionary replays and clones of
//! one game therefore cannot change any observable result — the
//! `jobs = N ≡ jobs = 1` determinism contract survives, as enforced by
//! `tests/parallel_determinism.rs` and the `eval_cache` test suite.
//!
//! Each game builds its own cache, which only that game and its clones
//! share, so the device, launch and measurement protocol are fixed and the
//! schedule digest alone is the key. The map sits behind one mutex, and
//! misses are simulated *outside* the lock. Every sharer runs on that
//! game's own thread, so the lock is uncontended; it is there because the
//! cache is handed around in an `Arc` and must stay `Sync`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use gpusim::{splitmix64, Measurement};
use sass::{Instruction, Program};

use crate::game::DerivedViews;

/// Upper bound on entries carrying [`DerivedViews`]; beyond it the views of
/// new schedules are computed without being remembered (no eviction, so the
/// working set of the search's most-revisited schedules stays resident).
const VIEWS_MEMO_CAP: usize = 256;

/// Cache effectiveness counters, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
}

/// One schedule's memo entry: its measurement and, once an accepted step
/// reached it, its derived views.
#[derive(Debug)]
struct Entry {
    measurement: Measurement,
    views: Option<Arc<DerivedViews>>,
}

/// The memo map plus its tallies. Keeping the counters under the same lock
/// as the map makes a lookup and its counter update one consistent
/// operation, so [`EvalCache::stats`] never reads counters that have drifted
/// from the map they describe.
#[derive(Debug, Default)]
struct Memo {
    map: HashMap<u64, Entry>,
    /// Entries whose views slot is filled (at most [`VIEWS_MEMO_CAP`]).
    with_views: usize,
    hits: u64,
    misses: u64,
}

/// A digest → measurement (and derived views) memo (see the module docs).
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
        if let Some((hit, _)) = self.lookup(key) {
            return hit;
        }
        let value = simulate();
        self.insert_computed(key, value.clone());
        value
    }

    /// Looks `key` up, counting a hit when present, and returns the
    /// measurement with the entry's views, if it carries any. A `None`
    /// result is not counted — the caller is expected to simulate and call
    /// [`EvalCache::insert_computed`], which records the miss.
    #[must_use]
    pub(crate) fn lookup(&self, key: u64) -> Option<(Measurement, Option<Arc<DerivedViews>>)> {
        let mut memo = self.memo();
        let hit = memo
            .map
            .get(&key)
            .map(|entry| (entry.measurement.clone(), entry.views.clone()));
        if hit.is_some() {
            memo.hits += 1;
        }
        hit
    }

    /// Records a freshly simulated measurement (one miss), with no views. A
    /// racing duplicate insert finds an identical measurement in place and
    /// leaves the entry as it is.
    pub(crate) fn insert_computed(&self, key: u64, value: Measurement) {
        let mut memo = self.memo();
        memo.misses += 1;
        memo.map.entry(key).or_insert(Entry {
            measurement: value,
            views: None,
        });
    }

    /// Fills the views slot of `key`'s entry while fewer than
    /// [`VIEWS_MEMO_CAP`] entries carry views; over budget, or with the slot
    /// already filled, the views are simply not remembered. Not a lookup:
    /// the counters do not move.
    pub(crate) fn remember_views(&self, key: u64, views: &Arc<DerivedViews>) {
        let mut memo = self.memo();
        if memo.with_views >= VIEWS_MEMO_CAP {
            return;
        }
        if let Some(entry @ Entry { views: None, .. }) = memo.map.get_mut(&key) {
            entry.views = Some(Arc::clone(views));
            memo.with_views += 1;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{measure, GpuConfig, LaunchConfig, MeasureOptions};

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
        let key = program_key(&program);
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
        let key = program_key(&program);
        assert!(cache.lookup(key).is_none());
        let value = measure(&gpu, &program, &launch, &options());
        cache.insert_computed(key, value.clone());
        let (hit, views) = cache.lookup(key).expect("inserted");
        assert_eq!(hit, value);
        assert!(views.is_none(), "an insert carries no views");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// Views ride along in at most [`VIEWS_MEMO_CAP`] entries, first come
    /// first kept, a filled slot is never refilled, and filling one is no
    /// lookup: the counters do not move.
    #[test]
    fn views_fill_at_most_the_cap_and_count_nothing() {
        let program: Program = SAMPLE.parse().unwrap();
        let game = crate::AssemblyGame::new(
            GpuConfig::small(),
            program.clone(),
            LaunchConfig::default(),
            crate::StallTable::builtin_a100(),
            crate::GameConfig::default(),
        );
        let cache = game.eval_cache();
        let initial = program_key(&program);
        let (measurement, views) = cache.lookup(initial).expect("the game measured it");
        let views = views.expect("the initial schedule carries its views");
        cache.remember_views(initial, &views);
        assert_eq!(cache.memo().with_views, 1);
        let before = cache.stats();
        let keys: Vec<u64> = (0..VIEWS_MEMO_CAP as u64 + 8)
            .map(|i| splitmix64(initial ^ i.wrapping_add(1)))
            .collect();
        for &key in &keys {
            cache.insert_computed(key, measurement.clone());
            cache.remember_views(key, &views);
        }
        let misses = before.misses + keys.len() as u64;
        assert_eq!(cache.stats(), EvalCacheStats { misses, ..before });
        assert_eq!(cache.memo().with_views, VIEWS_MEMO_CAP);
        let carried: Vec<bool> = keys
            .iter()
            .map(|&key| cache.lookup(key).expect("inserted").1.is_some())
            .collect();
        assert!(carried[..VIEWS_MEMO_CAP - 1].iter().all(|&c| c));
        assert!(carried[VIEWS_MEMO_CAP - 1..].iter().all(|&c| !c));
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
