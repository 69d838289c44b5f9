//! # het-accel — the heterogeneous accelerator model for ULP platforms
//!
//! A full-system reproduction of *"Enabling the Heterogeneous Accelerator
//! Model on Ultra-Low Power Microcontroller Platforms"* (DATE 2016): an
//! STM32-class host microcontroller coupled with a PULP-style quad-core
//! programmable accelerator over an SPI/QSPI link, with an
//! OpenMP-4.0-flavoured offload runtime, activity-driven power models, and
//! the paper's complete benchmark suite and evaluation harness.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`isa`] (`ulp-isa`) | UIR RISC ISA: assembler, encoder, cycle-level cores |
//! | [`cluster`] (`ulp-cluster`) | PULP cluster: TCDM banks, I$, DMA, event unit |
//! | [`mcu`] (`ulp-mcu`) | host MCU models + commercial datasheet points |
//! | [`link`] (`ulp-link`) | SPI/QSPI link timing, frames, GPIO events |
//! | [`power`] (`ulp-power`) | PULP3 power model, envelope solver |
//! | [`offload`] (`ulp-offload`) | **the paper's contribution**: target regions, offload runtime, coupled system |
//! | [`kernels`] (`ulp-kernels`) | the ten Table I benchmarks: references + code generators |
//!
//! ## Quickstart
//!
//! ```
//! use het_accel::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Host-only baseline…
//! let sys = HetSystem::new(HetSystemConfig::default());
//! let host = sys.run_on_host(&Benchmark::Cnn.build(&TargetEnv::host_m4()))?;
//!
//! // …versus offloading to the accelerator.
//! let mut sys = HetSystem::new(HetSystemConfig::default());
//! let report = sys.offload(
//!     &Benchmark::Cnn.build(&TargetEnv::pulp_parallel()),
//!     &OffloadOptions { iterations: 16, ..Default::default() },
//! )?;
//! let speedup = host.seconds / (report.total_seconds() / 16.0);
//! assert!(speedup > 5.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for complete application scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the modelling and reproduction notes.

pub use ulp_cluster as cluster;
pub use ulp_isa as isa;
pub use ulp_kernels as kernels;
pub use ulp_link as link;
pub use ulp_mcu as mcu;
pub use ulp_offload as offload;
pub use ulp_power as power;

/// One-stop imports for applications.
pub mod prelude {
    pub use ulp_cluster::{Cluster, ClusterConfig};
    pub use ulp_isa::prelude::*;
    pub use ulp_kernels::{Benchmark, KernelBuild, TargetEnv};
    pub use ulp_link::{SpiLink, SpiWidth};
    pub use ulp_mcu::{datasheet, Mcu, McuDevice};
    pub use ulp_offload::{
        envelope_speedup, FaultConfig, HetSystem, HetSystemConfig, OffloadOptions, OffloadPolicy,
        OffloadReport, Overlap, PipelineConfig, PowerBudget, QueueReport, ResilienceStats,
        TargetRegion,
    };
    pub use ulp_power::PulpPowerModel;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn address_constants_agree_across_crates() {
        // The kernels crate duplicates the TCDM and host data bases to
        // keep its dependency surface small; they must stay in sync.
        assert_eq!(TargetEnv::pulp_single().data_base, ulp_cluster::TCDM_BASE);
        assert_eq!(TargetEnv::host_m4().data_base, ulp_mcu::MCU_DATA_BASE);
        assert_eq!(
            ulp_kernels::codegen::emit::EVT_EOC,
            ulp_cluster::EVT_EOC,
            "end-of-computation event ids must match"
        );
        assert_eq!(
            ulp_kernels::codegen::emit::EVT_BROADCAST,
            ulp_cluster::EVT_BROADCAST
        );
    }

    #[test]
    fn prelude_compiles_a_full_flow() {
        let mut sys = HetSystem::new(HetSystemConfig::default());
        let build = ulp_kernels::matmul::build_sized(
            ulp_kernels::matmul::MatVariant::Char,
            &TargetEnv::pulp_parallel(),
            16,
        );
        let report = sys.offload(&build, &OffloadOptions::default()).unwrap();
        assert!(report.total_seconds() > 0.0);
    }
}
