//! Kernel launch/tile configurations and the autotuning search space.

use serde::{Deserialize, Serialize};

/// A kernel configuration, the unit the Triton autotuner searches over
/// (§3.1 of the paper: tile sizes, number of warps, pipelining stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Tile size along M (rows of the output).
    pub block_m: usize,
    /// Tile size along N (columns of the output).
    pub block_n: usize,
    /// Tile size along K (the reduction dimension).
    pub block_k: usize,
    /// Warps per thread block.
    pub num_warps: usize,
    /// Software pipelining stages (1 = no pipelining, 2 = double buffering).
    pub num_stages: usize,
}

impl KernelConfig {
    /// A reasonable default configuration for compute-bound kernels.
    #[must_use]
    pub fn default_compute() -> Self {
        KernelConfig {
            block_m: 64,
            block_n: 64,
            block_k: 32,
            num_warps: 4,
            num_stages: 2,
        }
    }

    /// A deliberately poor configuration, standing in for the untuned
    /// "Cutlass default" the paper observes to be ~10x slower than Triton
    /// (§5.3).
    #[must_use]
    pub fn untuned() -> Self {
        KernelConfig {
            block_m: 16,
            block_n: 16,
            block_k: 8,
            num_warps: 1,
            num_stages: 1,
        }
    }

    /// A human-readable key fragment for the deploy-time lookup cache.
    #[must_use]
    pub fn cache_key(&self) -> String {
        format!(
            "m{}n{}k{}w{}s{}",
            self.block_m, self.block_n, self.block_k, self.num_warps, self.num_stages
        )
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig::default_compute()
    }
}

/// The user-provided configuration space enumerated by the autotuner.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigSpace {
    /// Candidate configurations.
    pub candidates: Vec<KernelConfig>,
}

impl ConfigSpace {
    /// The grid the paper's Triton kernels typically expose for GEMM-family
    /// kernels: tile sizes in {32, 64, 128} and 4 or 8 warps.
    #[must_use]
    pub fn gemm_default() -> Self {
        let mut candidates = Vec::new();
        for &block_m in &[32usize, 64, 128] {
            for &block_n in &[32usize, 64, 128] {
                for &block_k in &[32usize, 64] {
                    for &num_warps in &[4usize, 8] {
                        candidates.push(KernelConfig {
                            block_m,
                            block_n,
                            block_k,
                            num_warps,
                            num_stages: 2,
                        });
                    }
                }
            }
        }
        ConfigSpace { candidates }
    }

    /// A compact space used by unit tests and the quickstart example.
    #[must_use]
    pub fn small() -> Self {
        ConfigSpace {
            candidates: vec![
                KernelConfig {
                    block_m: 32,
                    block_n: 32,
                    block_k: 32,
                    num_warps: 4,
                    num_stages: 2,
                },
                KernelConfig {
                    block_m: 64,
                    block_n: 64,
                    block_k: 32,
                    num_warps: 4,
                    num_stages: 2,
                },
                KernelConfig {
                    block_m: 64,
                    block_n: 64,
                    block_k: 32,
                    num_warps: 8,
                    num_stages: 2,
                },
            ],
        }
    }

    /// Configuration space for row-wise memory-bound kernels.
    #[must_use]
    pub fn rowwise_default() -> Self {
        ConfigSpace {
            candidates: [256usize, 512, 1024, 2048]
                .iter()
                .flat_map(|&block_n| {
                    [2usize, 4, 8].iter().map(move |&num_warps| KernelConfig {
                        block_m: 1,
                        block_n,
                        block_k: 1,
                        num_warps,
                        num_stages: 1,
                    })
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_space_is_a_full_grid() {
        let space = ConfigSpace::gemm_default();
        assert_eq!(space.candidates.len(), 3 * 3 * 2 * 2);
    }

    #[test]
    fn cache_key_distinguishes_configs() {
        let a = KernelConfig::default_compute();
        let b = KernelConfig { num_warps: 8, ..a };
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn untuned_config_is_small() {
        let cfg = KernelConfig::untuned();
        assert!(cfg.block_m < KernelConfig::default_compute().block_m);
    }

    #[test]
    fn rowwise_space_only_varies_columns_and_warps() {
        for cfg in ConfigSpace::rowwise_default().candidates {
            assert_eq!(cfg.block_m, 1);
            assert_eq!(cfg.num_stages, 1);
        }
    }
}
