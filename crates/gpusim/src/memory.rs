//! Memory hierarchy: L1/L2 caches, global memory, shared memory.
//!
//! The memory subsystem serves two purposes:
//!
//! * **functional** — it stores the values written by stores and returned by
//!   loads, so that schedule corruption (a hazard) propagates into observable
//!   output differences (the paper's probabilistic testing relies on this),
//! * **timing** — each access reports a service latency derived from where
//!   the line was found (L1, L2 or DRAM), which is what makes interleaving
//!   loads and compute profitable for the RL agent.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::config::{CacheConfig, GpuConfig};

/// A SplitMix64 [`Hasher`] for the `u64 → u64` functional memory maps.
///
/// The default SipHash is DoS-resistant but costs a large fraction of every
/// functional load/store on the simulator's hot path; addresses here are
/// simulator-internal, so a statistically strong mix is all that is needed.
/// Only the map's bucket placement changes — iteration feeds the
/// order-insensitive XOR digest, so no observable output moves.
#[derive(Debug, Default, Clone, Copy)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached for non-u64 keys; fold bytes in 8 at a time.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = splitmix64(self.0 ^ value);
    }
}

/// Hash-map state shared by the functional global/shared memory images.
type AddrMap = HashMap<u64, u64, BuildHasherDefault<AddrHasher>>;

/// Memory-side event counters, aggregated over a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MemCounters {
    /// Bytes loaded from global memory into registers (`LDG`).
    pub global_load_bytes: u64,
    /// Bytes stored to global memory (`STG`).
    pub global_store_bytes: u64,
    /// Bytes copied from global memory directly into shared memory (`LDGSTS`).
    pub global_to_shared_bytes: u64,
    /// Bytes loaded from shared memory (`LDS`, `LDSM`).
    pub shared_load_bytes: u64,
    /// Bytes stored to shared memory (`STS`).
    pub shared_store_bytes: u64,
    /// L1 hits for global accesses.
    pub l1_hits: u64,
    /// L1 misses for global accesses.
    pub l1_misses: u64,
    /// L2 hits for global accesses.
    pub l2_hits: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
}

impl MemCounters {
    /// Total bytes that crossed the device (DRAM + L2) boundary.
    #[must_use]
    pub fn device_bytes(&self) -> u64 {
        self.global_load_bytes + self.global_store_bytes + self.global_to_shared_bytes
    }

    /// L1 hit rate over global accesses, in `[0, 1]`.
    #[must_use]
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// L2 hit rate over L1 misses, in `[0, 1]`.
    #[must_use]
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }
}

/// A set-associative cache model with LRU replacement.
#[derive(Debug, Clone)]
struct Cache {
    line_bytes: u64,
    sets: Vec<Vec<(u64, u64)>>, // (tag, last-use stamp)
    ways: usize,
    stamp: u64,
}

impl Cache {
    fn new(cfg: CacheConfig) -> Self {
        let ways = 4usize.min(cfg.lines.max(1));
        let set_count = (cfg.lines / ways).max(1);
        Cache {
            line_bytes: cfg.line_bytes.max(1),
            sets: vec![Vec::with_capacity(ways); set_count],
            ways,
            stamp: 0,
        }
    }

    /// Probes the cache for the line containing `addr`, filling it on a miss.
    /// Returns true on a hit.
    fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let line = addr / self.line_bytes;
        let set_index = (line % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_index];
        if let Some(entry) = set.iter_mut().find(|(tag, _)| *tag == line) {
            entry.1 = self.stamp;
            return true;
        }
        if set.len() >= self.ways {
            // Evict the least recently used line.
            if let Some(pos) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(pos, _)| pos)
            {
                set.swap_remove(pos);
            }
        }
        set.push((line, self.stamp));
        false
    }

    /// Allocation-reusing copy of `other` into `self`.
    fn assign_from(&mut self, other: &Cache) {
        self.line_bytes = other.line_bytes;
        self.sets.clone_from(&other.sets);
        self.ways = other.ways;
        self.stamp = other.stamp;
    }

    /// True when `self` and `other` (same geometry) will hit, miss and evict
    /// identically on every future access sequence. Eviction picks the
    /// minimum-stamp entry of a set and stamps are globally unique, so only
    /// the per-set *recency order* of the resident tags matters — absolute
    /// stamp values (which drift when two runs perform a different number of
    /// accesses) do not.
    fn recency_equivalent(&self, other: &Cache) -> bool {
        if self.sets.len() != other.sets.len() {
            return false;
        }
        self.sets.iter().zip(&other.sets).all(|(a, b)| {
            if a.len() != b.len() {
                return false;
            }
            // Ways are tiny (<= 4): insertion-sort (stamp, tag) pairs into
            // fixed stack arrays and compare the tag orders.
            let order = |set: &[(u64, u64)]| {
                let mut sorted = [(0u64, 0u64); 8];
                for (i, &(tag, stamp)) in set.iter().enumerate() {
                    let mut j = i;
                    while j > 0 && sorted[j - 1].0 > stamp {
                        sorted[j] = sorted[j - 1];
                        j -= 1;
                    }
                    sorted[j] = (stamp, tag);
                }
                sorted
            };
            let (oa, ob) = (order(a), order(b));
            oa.iter()
                .zip(ob.iter())
                .take(a.len())
                .all(|(x, y)| x.1 == y.1)
        })
    }
}

/// Where a global access was ultimately serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicePoint {
    /// Serviced from the per-SM L1 data cache.
    L1,
    /// Serviced from the device-level L2 cache.
    L2,
    /// Serviced from DRAM.
    Dram,
}

/// The full memory subsystem of one simulated SM context.
#[derive(Debug, Clone)]
pub struct MemorySubsystem {
    l1: Cache,
    l2: Cache,
    latency_l1: u64,
    latency_l2: u64,
    latency_dram: u64,
    latency_shared: u64,
    global: AddrMap,
    shared: AddrMap,
    counters: MemCounters,
}

/// Default contents of an untouched global-memory word: a deterministic
/// function of its address, so that loads of never-written data are
/// reproducible.
#[must_use]
pub fn default_global_word(addr: u64) -> u64 {
    splitmix64(addr ^ 0xa076_1d64_78bd_642f)
}

/// A deterministic 64-bit mixer (SplitMix64 finalizer), used for default
/// memory contents and for the generic value semantics of floating-point
/// instructions.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl MemorySubsystem {
    /// Creates the memory subsystem for the given device configuration.
    #[must_use]
    pub fn new(cfg: &GpuConfig) -> Self {
        MemorySubsystem {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            latency_l1: cfg.arch.latency.l1_hit,
            latency_l2: cfg.arch.latency.l2_hit,
            latency_dram: cfg.arch.latency.dram,
            latency_shared: cfg.arch.latency.shared,
            global: AddrMap::default(),
            shared: AddrMap::default(),
            counters: MemCounters::default(),
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> MemCounters {
        self.counters
    }

    /// Timing probe of a global address: walks L1 → L2 → DRAM, updates the
    /// counters and returns the service latency and the service point.
    pub fn global_access_latency(&mut self, addr: u64, bypass_l1: bool) -> (u64, ServicePoint) {
        if !bypass_l1 && self.l1.access(addr) {
            self.counters.l1_hits += 1;
            return (self.latency_l1, ServicePoint::L1);
        }
        if !bypass_l1 {
            self.counters.l1_misses += 1;
        }
        if self.l2.access(addr) {
            self.counters.l2_hits += 1;
            (self.latency_l2, ServicePoint::L2)
        } else {
            self.counters.l2_misses += 1;
            (self.latency_dram, ServicePoint::Dram)
        }
    }

    /// Shared-memory access latency.
    #[must_use]
    pub fn shared_latency(&self) -> u64 {
        self.latency_shared
    }

    /// Functional read of a global word.
    #[must_use]
    pub fn load_global(&self, addr: u64) -> u64 {
        *self.global.get(&addr).unwrap_or(&default_global_word(addr))
    }

    /// Functional write of a global word.
    pub fn store_global(&mut self, addr: u64, value: u64, bytes: u64) {
        self.global.insert(addr, value);
        self.counters.global_store_bytes += bytes;
    }

    /// Records the traffic of a global load.
    pub fn record_global_load(&mut self, bytes: u64) {
        self.counters.global_load_bytes += bytes;
    }

    /// Records the traffic of an asynchronous global-to-shared copy.
    pub fn record_global_to_shared(&mut self, bytes: u64) {
        self.counters.global_to_shared_bytes += bytes;
    }

    /// Functional read of a shared-memory word.
    #[must_use]
    pub fn load_shared(&self, addr: u64) -> u64 {
        *self
            .shared
            .get(&addr)
            .unwrap_or(&default_global_word(addr ^ 0x5348_4152_4544)) // "SHARED"
    }

    /// Functional write of a shared-memory word.
    pub fn store_shared(&mut self, addr: u64, value: u64, bytes: u64) {
        self.shared.insert(addr, value);
        self.counters.shared_store_bytes += bytes;
    }

    /// Records the traffic of a shared-memory load.
    pub fn record_shared_load(&mut self, bytes: u64) {
        self.counters.shared_load_bytes += bytes;
    }

    /// A digest over the final global-memory contents, insensitive to the
    /// order in which stores executed but sensitive to their values. Two
    /// schedules that compute the same result produce the same digest.
    #[must_use]
    pub fn global_digest(&self) -> u64 {
        self.global.iter().fold(0u64, |acc, (addr, value)| {
            acc ^ splitmix64(addr.wrapping_mul(31).wrapping_add(*value))
        })
    }

    /// Allocation-reusing copy of `other` into `self` (cache sets, memory
    /// images and counters keep their buffers).
    pub(crate) fn assign_from(&mut self, other: &MemorySubsystem) {
        self.l1.assign_from(&other.l1);
        self.l2.assign_from(&other.l2);
        self.latency_l1 = other.latency_l1;
        self.latency_l2 = other.latency_l2;
        self.latency_dram = other.latency_dram;
        self.latency_shared = other.latency_shared;
        self.global.clone_from(&other.global);
        self.shared.clone_from(&other.shared);
        self.counters = other.counters;
    }

    /// True when every future access against `self` observes exactly what it
    /// would against `other`: identical functional contents and
    /// recency-equivalent cache states (see [`Cache::recency_equivalent`]).
    /// The traffic counters are monotone tallies and deliberately excluded —
    /// the delta engine splices them additively.
    pub(crate) fn equivalent_to(&self, other: &MemorySubsystem) -> bool {
        self.global == other.global
            && self.shared == other.shared
            && self.l1.recency_equivalent(&other.l1)
            && self.l2.recency_equivalent(&other.l2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subsystem() -> MemorySubsystem {
        MemorySubsystem::new(&GpuConfig::small())
    }

    #[test]
    fn repeated_access_hits_l1() {
        let mut mem = subsystem();
        let (lat1, p1) = mem.global_access_latency(0x1000, false);
        let (lat2, p2) = mem.global_access_latency(0x1000, false);
        assert_eq!(p1, ServicePoint::Dram);
        assert_eq!(p2, ServicePoint::L1);
        assert!(lat2 < lat1);
    }

    #[test]
    fn bypass_skips_l1() {
        let mut mem = subsystem();
        let (_, p1) = mem.global_access_latency(0x2000, true);
        let (_, p2) = mem.global_access_latency(0x2000, true);
        assert_eq!(p1, ServicePoint::Dram);
        assert_eq!(p2, ServicePoint::L2);
        assert_eq!(mem.counters().l1_hits, 0);
    }

    #[test]
    fn functional_store_load_round_trip() {
        let mut mem = subsystem();
        assert_eq!(mem.load_global(0x80), default_global_word(0x80));
        mem.store_global(0x80, 42, 8);
        assert_eq!(mem.load_global(0x80), 42);
        // Timing probes move lines through the caches, never data.
        let _ = mem.global_access_latency(0x80, false);
        assert_eq!(mem.load_global(0x80), 42);
        mem.store_shared(0x10, 9, 8);
        assert_eq!(mem.load_shared(0x10), 9);
    }

    #[test]
    fn digest_is_order_insensitive_and_value_sensitive() {
        let mut a = subsystem();
        a.store_global(0x0, 1, 8);
        a.store_global(0x8, 2, 8);
        let mut b = subsystem();
        b.store_global(0x8, 2, 8);
        b.store_global(0x0, 1, 8);
        assert_eq!(a.global_digest(), b.global_digest());
        let mut c = subsystem();
        c.store_global(0x0, 1, 8);
        c.store_global(0x8, 3, 8);
        assert_ne!(a.global_digest(), c.global_digest());
    }

    #[test]
    fn counters_accumulate() {
        let mut mem = subsystem();
        mem.record_global_load(16);
        mem.record_global_to_shared(128);
        mem.store_global(0x0, 1, 4);
        assert_eq!(mem.counters().device_bytes(), 16 + 128 + 4);
    }

    #[test]
    fn eviction_keeps_cache_bounded() {
        let mut mem = subsystem();
        // Touch far more lines than the small L1 can hold.
        for i in 0..10_000u64 {
            let _ = mem.global_access_latency(i * 128, false);
        }
        // Re-touching the very first line must now miss in L1 (it was evicted).
        let (_, p) = mem.global_access_latency(0, false);
        assert_ne!(p, ServicePoint::L1);
    }

    #[test]
    fn hit_rates() {
        let mut mem = subsystem();
        let _ = mem.global_access_latency(0, false);
        let _ = mem.global_access_latency(0, false);
        assert!(mem.counters().l1_hit_rate() > 0.0);
        assert!(mem.counters().l2_hit_rate() <= 1.0);
    }

    #[test]
    fn global_region_reads_default_values() {
        let mem = subsystem();
        for addr in (0x100..0x120).step_by(8) {
            assert_eq!(mem.load_global(addr), default_global_word(addr));
        }
    }
}
