//! # ulp-offload — the heterogeneous accelerator model
//!
//! The paper's primary contribution, as a library: couple an off-the-shelf
//! ULP microcontroller (host) with a PULP-style programmable parallel
//! accelerator over a cheap SPI link plus two GPIO event wires, and expose
//! computation offload through an OpenMP-4.0-flavoured programming model.
//!
//! ```text
//!        sensor ──► STM32-class MCU ◄──SPI/QSPI──► PULP cluster (4 cores)
//!                        │  ▲                          │
//!                        │  └──── end-of-computation ──┘
//!                        └─────── fetch-enable ────────►
//! ```
//!
//! * [`TargetRegion`] — the `#pragma omp target` abstraction: a kernel
//!   binary plus `map(to/from/alloc)` clauses derived from its buffers.
//! * [`HetSystem`] — the coupled platform simulation: binary offload,
//!   input/output marshalling over the link (driven by the MCU's DMA),
//!   fetch-enable / end-of-computation synchronization, host sleep during
//!   accelerator compute, and full time/energy accounting on both sides.
//! * [`OffloadOptions::double_buffer`] — overlap data transfers with
//!   computation, the paper's §IV-B "traditional double buffering" mode.
//! * [`envelope`] — the fixed-power-budget analysis of Fig. 5a: how fast
//!   can the accelerator run with whatever is left of the 10 mW budget
//!   after the host takes its share.
//!
//! The *parallel* side of the OpenMP model (`parallel for`, barriers, the
//! streamlined runtime) lives in the generated kernels themselves — see
//! [`ulp_kernels::codegen::emit::spmd_kernel`] — because on a 64 kB
//! accelerator the runtime is compiled into the offloaded binary, exactly
//! as in the paper.
//!
//! # Example
//!
//! ```
//! use ulp_offload::{HetSystem, HetSystemConfig, OffloadOptions};
//! use ulp_kernels::{Benchmark, TargetEnv};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sys = HetSystem::new(HetSystemConfig::default());
//! let build = Benchmark::Cnn.build(&TargetEnv::pulp_parallel());
//! let report = sys.offload(&build, &OffloadOptions { iterations: 4, ..Default::default() })?;
//! assert!(report.compute_seconds > 0.0);
//! assert!(report.total_seconds() >= report.compute_seconds);
//! # Ok(())
//! # }
//! ```

pub mod costmodel;
pub mod envelope;
pub mod pipeline;
pub mod platform;
pub mod region;
pub mod system;

pub use costmodel::{
    relative_error, Backend, CostEstimate, KernelCostModel, PlatformChoice, CYCLE_ERROR_BOUND,
    ENERGY_ERROR_BOUND,
};
pub use envelope::{envelope_speedup, EnvelopeReport, PowerBudget};
pub use pipeline::{PipelineConfig, DEFAULT_CHUNK_BYTES, DEFAULT_WINDOW, MIN_CHUNK_BYTES};
pub use platform::{cluster_env, config_at_vdd, config_from_platform, host_env};
pub use region::{MapClause, MapDir, TargetRegion};
pub use system::{
    EocWait, FrameDelivery, HetSystem, HetSystemConfig, HostReport, JobPrice, OffloadCost,
    OffloadError, OffloadOptions, OffloadPolicy, OffloadReport, PlannedJob, QueueReport,
    ResilienceStats,
};
// Re-exported so offload users can configure fault injection and link
// clocking without depending on ulp-link directly, and the overlap
// accounting the pipelined engine produces.
pub use ulp_link::{FaultConfig, FaultStats, LinkClocking};
pub use ulp_trace::Overlap;
