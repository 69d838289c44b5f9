//! Cluster configuration.

use ulp_isa::CoreModel;

use crate::Engine;

/// Static parameters of a simulated cluster.
///
/// The defaults reproduce the PULP3 SoC of the paper: a single quad-core
/// cluster with a word-interleaved multi-banked TCDM, a shared instruction
/// cache and 64 kB of L2.
///
/// # Example
///
/// ```
/// use ulp_cluster::ClusterConfig;
///
/// let single_core = ClusterConfig { num_cores: 1, ..ClusterConfig::default() };
/// assert_eq!(single_core.tcdm_banks, 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClusterConfig {
    /// Number of cores in the cluster (1–32).
    pub num_cores: usize,
    /// Core microarchitecture (OR10N by default).
    pub core_model: CoreModel,
    /// TCDM size in bytes.
    pub tcdm_size: usize,
    /// Number of TCDM banks (word-interleaved).
    pub tcdm_banks: usize,
    /// L2 memory size in bytes.
    pub l2_size: usize,
    /// Core data-access latency to L2 over the cluster bus, in cycles.
    pub l2_data_latency: u32,
    /// Shared instruction-cache size in bytes.
    pub icache_size: usize,
    /// Instruction-cache line size in bytes.
    pub icache_line: usize,
    /// Instruction-cache miss penalty (refill from L2), in cycles.
    pub icache_miss_penalty: u32,
    /// Cycles between the last barrier arrival and the release of the
    /// waiting cores (HW synchronizer).
    pub barrier_latency: u32,
    /// DMA channel count.
    pub dma_channels: usize,
    /// DMA programming overhead per transfer, in cycles.
    pub dma_setup: u32,
    /// Host-side execution engine ([`Engine::Epoch`] by default). Every
    /// engine is bit-identical in every observable output, so this picks
    /// simulator speed only; [`Engine::Reference`] is the oracle.
    pub engine: Engine,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_cores: 4,
            core_model: CoreModel::or10n(),
            tcdm_size: 64 * 1024,
            tcdm_banks: 8,
            l2_size: 64 * 1024,
            l2_data_latency: 8,
            icache_size: 4 * 1024,
            icache_line: 16,
            icache_miss_penalty: 12,
            barrier_latency: 2,
            dma_channels: 4,
            dma_setup: 10,
            engine: Engine::Epoch,
        }
    }
}

impl ClusterConfig {
    /// Validates internal consistency (bank count divides size, powers of
    /// two where required).
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration; configurations are
    /// developer-provided constants, so this is an assertion rather than a
    /// recoverable error.
    pub fn validate(&self) {
        assert!(
            (1..=32).contains(&self.num_cores),
            "num_cores {} out of range 1..=32",
            self.num_cores
        );
        assert!(
            self.tcdm_banks.is_power_of_two(),
            "tcdm_banks must be a power of two"
        );
        assert!(
            self.tcdm_size.is_multiple_of(self.tcdm_banks * 4),
            "tcdm_size must cover whole banks"
        );
        assert!(self.icache_line.is_power_of_two() && self.icache_line >= 4);
        assert!(self.icache_size.is_multiple_of(self.icache_line));
        assert!(self.dma_channels >= 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_quad_core() {
        let c = ClusterConfig::default();
        c.validate();
        assert_eq!(c.num_cores, 4);
        assert_eq!(c.tcdm_size, 64 * 1024);
        assert_eq!(c.l2_size, 64 * 1024);
        assert_eq!(c.core_model.name, "or10n");
    }

    #[test]
    #[should_panic(expected = "num_cores")]
    fn zero_cores_rejected() {
        ClusterConfig {
            num_cores: 0,
            ..ClusterConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_banks_rejected() {
        ClusterConfig {
            tcdm_banks: 3,
            ..ClusterConfig::default()
        }
        .validate();
    }
}
