//! # ulp-cluster — cycle-level simulator of a PULP-style ULP cluster
//!
//! Models the accelerator side of the DATE'16 heterogeneous platform: a
//! single cluster of in-order cores (OR10N in the paper, core model
//! configurable here) sharing:
//!
//! * a multi-banked, word-interleaved **TCDM** data scratchpad with
//!   per-bank single-cycle arbitration ([`Tcdm`]) — cores have no private
//!   data caches, exactly as in the paper;
//! * a shared **instruction cache** refilled from L2 ([`ICache`]);
//! * a 64 kB **L2** memory holding code and staging buffers ([`L2Memory`]);
//! * a lightweight multi-channel **DMA** with direct TCDM access ([`Dma`]);
//! * a **HW event unit / synchronizer** providing few-cycle barriers,
//!   core wake-up and the end-of-computation wire towards the host
//!   ([`EventUnit`]).
//!
//! The [`Cluster`] stepping engine advances the core with the smallest
//! local time, so shared-resource arbitration (TCDM bank conflicts,
//! barriers) is resolved in approximate global order. Activity counters for
//! every component feed the paper's power model
//! (P_d = f·Σ χᵢ·ρᵢ) via [`ClusterActivity`].
//!
//! # Example: run a two-core program to completion
//!
//! ```
//! use ulp_cluster::{Cluster, ClusterConfig};
//! use ulp_isa::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! // Each core writes its id to TCDM[4*id], then halts.
//! a.insn(Insn::Csrr(R1, Csr::CoreId));
//! a.slli(R2, R1, 2);
//! a.la(R3, ulp_cluster::TCDM_BASE);
//! a.add(R3, R3, R2);
//! a.sw(R1, R3, 0);
//! a.halt();
//! let prog = a.finish()?;
//!
//! let mut cluster = Cluster::new(ClusterConfig { num_cores: 2, ..ClusterConfig::default() });
//! cluster.load_binary(&prog, ulp_cluster::L2_BASE)?;
//! cluster.start(ulp_cluster::L2_BASE, &[], 0);
//! let end = cluster.run_until_halt(1_000_000)?;
//! assert_eq!(cluster.read_tcdm_u32(ulp_cluster::TCDM_BASE + 4)?, 1);
//! assert!(end.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod cluster;
pub mod config;
pub mod dma;
pub mod event;
pub mod icache;
pub mod l2;
pub mod stats;
pub mod tcdm;

pub use cluster::{Cluster, ClusterError, RunResult};
pub use config::ClusterConfig;
pub use dma::Dma;
pub use event::EventUnit;
pub use icache::ICache;
pub use l2::L2Memory;
pub use stats::{ClusterActivity, EpochAbort, EpochStats, TOPUP_ROUND_LABELS};
pub use tcdm::Tcdm;

/// Base address of the tightly-coupled data memory.
pub const TCDM_BASE: u32 = 0x1000_0000;
/// Base address of the cluster L2 memory.
pub const L2_BASE: u32 = 0x1C00_0000;
/// Event id of the end-of-computation wire towards the host (see
/// [`ulp_isa::Insn::Sev`]).
pub const EVT_EOC: u8 = 0;
/// Event id broadcasting to every core of the cluster.
pub const EVT_BROADCAST: u8 = 33;
/// Base address of the memory-mapped DMA programming interface:
/// `+0x0` source, `+0x4` destination, `+0x8` length (bytes), `+0xC`
/// command/status (write any value to start; reads 1 when idle/done).
pub const DMA_MMIO_BASE: u32 = 0x1B00_0000;
/// Size of the DMA register window.
pub const DMA_MMIO_SIZE: u32 = 0x10;

/// Whether `addr` falls inside the DMA register window.
#[must_use]
pub fn dma_mmio_contains(addr: u32) -> bool {
    (DMA_MMIO_BASE..DMA_MMIO_BASE + DMA_MMIO_SIZE).contains(&addr)
}

/// Which execution engine a [`Cluster`] uses (see
/// [`ClusterConfig::engine`]). Both retire the exact same instruction
/// sequence and produce bit-identical observable results (`RunResult`,
/// activity counters, trace events, memory, perf counters); they differ
/// only in host-side speed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// One-instruction-per-scan argmin scheduler: the executable definition
    /// of the interleaving order and the differential-testing oracle.
    Reference,
    /// Speculative epoch scheduler: each core replays its micro-op blocks
    /// privately up to a shared horizon, a conservative conflict check
    /// validates the epoch, and any conflict rolls the whole epoch back and
    /// re-runs the window through the exact micro-op interleaving.
    #[default]
    Epoch,
}

impl Engine {
    /// Parses an engine name as accepted by `het-sim --engine`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Every engine, oracle first — the valid `--engine` values.
    pub const ALL: [Engine; 2] = [Engine::Reference, Engine::Epoch];

    /// The engine's CLI / report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Epoch => "epoch",
        }
    }
}
