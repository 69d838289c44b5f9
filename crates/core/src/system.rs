//! The coupled heterogeneous system: host MCU + SPI link + PULP cluster.

use std::error::Error;
use std::fmt;

use ulp_cluster::{Cluster, ClusterActivity, ClusterConfig, L2_BASE};
use ulp_kernels::runner::MAX_KERNEL_CYCLES;
use ulp_kernels::{BufferInit, KernelBuild};
use ulp_link::{
    EocOutcome, FaultConfig, FaultInjector, FaultStats, GpioEvent, SpiLink, SpiWidth, TxOutcome,
    FRAME_OVERHEAD,
};
use ulp_mcu::wfe::{wfe_wait_traced, WakeReason};
use ulp_mcu::{datasheet, Mcu, McuDevice};
use ulp_power::PulpPowerModel;
use ulp_trace::{Component, EventKind, Overlap, PhaseKind, Tracer};

use crate::pipeline::{self, ChunkOp, PipelineConfig, PipelineJob, Schedule};
use crate::queue::{OffloadQueue, QueueReport};
use crate::region::{MapDir, TargetRegion};

/// How the serial link is clocked (paper §V discusses all three).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LinkClocking {
    /// The prototype's scheme: `f_spi = f_mcu / prescaler`. Lowering the
    /// MCU clock to free envelope power also throttles the link — the
    /// root cause of the Fig. 5b plateaus.
    McuDivided,
    /// DVFS boost: "the MCU frequency might be raised for enough time to
    /// efficiently perform the data exchange" (§IV-B). During transfer
    /// phases the MCU clocks at `mcu_hz` (and pays run power at that
    /// clock); compute phases keep the configured frequency.
    BoostedMcu {
        /// Temporary MCU clock during transfers.
        mcu_hz: f64,
    },
    /// The §V wish: "a low-power, high-throughput SPI link that is not
    /// tied to the MCU core frequency". The link runs at its own clock;
    /// the MCU stays at its configured frequency while managing the DMA.
    Independent {
        /// The link's own SPI clock.
        spi_hz: f64,
    },
}

/// Static configuration of a heterogeneous system.
#[derive(Clone, Debug)]
pub struct HetSystemConfig {
    /// Host device (datasheet model).
    pub mcu: McuDevice,
    /// Host clock frequency.
    pub mcu_freq_hz: f64,
    /// Serial link width.
    pub link_width: SpiWidth,
    /// SPI clock prescaler from the host clock.
    pub link_prescaler: u32,
    /// Link clock derivation scheme.
    pub link_clocking: LinkClocking,
    /// Bandwidth of the optional direct sensor→accelerator interface
    /// (bytes/s), used when [`OffloadOptions::sensor_direct`] is set. A
    /// parallel camera-style interface: 8 bits at ~10 MHz.
    pub sensor_bandwidth: f64,
    /// Accelerator cluster configuration.
    pub cluster: ClusterConfig,
    /// Accelerator supply voltage (0.5–1.0 V).
    pub pulp_vdd: f64,
    /// Accelerator clock frequency (must not exceed `fmax(vdd)`).
    pub pulp_freq_hz: f64,
    /// Accelerator power model.
    pub power: PulpPowerModel,
    /// Link/event-wire fault model (default: fault-free). When inactive the
    /// resilience machinery is bypassed entirely and every figure is
    /// bit-identical to the fault-free simulation.
    pub fault: FaultConfig,
}

impl HetSystemConfig {
    /// The clock that drives the SPI shifter under the configured
    /// link-clocking scheme, expressed as the equivalent MCU core clock
    /// that [`SpiLink::transfer_seconds`] expects (the link divides by
    /// the prescaler internally). This is the figure a serving layer
    /// needs to price frame retransmissions without instantiating a
    /// [`HetSystem`].
    #[must_use]
    pub fn link_drive_hz(&self) -> f64 {
        match self.link_clocking {
            LinkClocking::McuDivided => self.mcu_freq_hz,
            LinkClocking::BoostedMcu { mcu_hz } => mcu_hz,
            LinkClocking::Independent { spi_hz } => spi_hz * f64::from(self.link_prescaler),
        }
    }
}

impl Default for HetSystemConfig {
    /// The paper's prototype shape: STM32-L476 host at 16 MHz, QSPI link,
    /// quad-core PULP at 0.65 V.
    fn default() -> Self {
        let power = PulpPowerModel::pulp3();
        let vdd = 0.65;
        let freq = power.fmax_hz(vdd);
        HetSystemConfig {
            mcu: datasheet::stm32l476(),
            mcu_freq_hz: 16.0e6,
            link_width: SpiWidth::Quad,
            link_prescaler: 2,
            link_clocking: LinkClocking::McuDivided,
            sensor_bandwidth: 10.0e6,
            cluster: ClusterConfig::default(),
            pulp_vdd: vdd,
            pulp_freq_hz: freq,
            power,
            fault: FaultConfig::default(),
        }
    }
}

/// Recovery policy of the offload runtime: how hard to fight the link and
/// the accelerator before giving up.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OffloadPolicy {
    /// Retransmissions per frame (and restart attempts per hung run)
    /// before the offload is declared unrecoverable. Zero disables
    /// recovery: the first CRC error surfaces as
    /// [`OffloadError::CrcMismatch`].
    pub max_retries: u32,
    /// Host cycles to pause before the first retransmission.
    pub backoff_cycles: u64,
    /// Double the pause after every failed attempt (bounded exponential
    /// backoff); otherwise the pause is constant.
    pub exponential_backoff: bool,
    /// Host-side watchdog armed before each WFE sleep, in host cycles.
    /// `0` selects the automatic deadline: 4× the expected compute time
    /// (but at least 1000 cycles), so healthy runs never trip it.
    pub watchdog_cycles: u64,
    /// On an unrecoverable offload failure, run the remaining iterations
    /// on the host instead of returning an error (requires
    /// [`HetSystem::offload_with_fallback`], which knows the host build).
    pub fallback_to_host: bool,
}

impl Default for OffloadPolicy {
    fn default() -> Self {
        OffloadPolicy {
            max_retries: 3,
            backoff_cycles: 64,
            exponential_backoff: true,
            watchdog_cycles: 0,
            fallback_to_host: true,
        }
    }
}

impl OffloadPolicy {
    /// Backoff pause (host cycles) before retransmission `attempt`
    /// (0-based).
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        if self.exponential_backoff {
            self.backoff_cycles
                .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
        } else {
            self.backoff_cycles
        }
    }
}

/// Error raised by the offload runtime.
#[derive(Debug)]
pub enum OffloadError {
    /// The kernel build targets the host memory map, not the accelerator.
    NotAccelBuild {
        /// The offending kernel name.
        kernel: String,
    },
    /// The accelerator faulted or timed out.
    Cluster(ulp_cluster::ClusterError),
    /// Device results disagree with the kernel's golden reference.
    OutputMismatch(Vec<String>),
    /// Host execution failed (host-side comparison runs).
    Host(ulp_mcu::host::McuError),
    /// A frame failed its CRC check with recovery disabled
    /// (`max_retries == 0`).
    CrcMismatch {
        /// Size of the offending frame on the wire (payload + overhead).
        frame_bytes: usize,
    },
    /// A frame could not be delivered within the retry budget.
    RetriesExhausted {
        /// Transmission attempts made (initial + retries).
        attempts: u32,
    },
    /// The end-of-computation event never arrived: the watchdog fired on
    /// every restart attempt and no host fallback was available.
    WatchdogTimeout {
        /// Armed watchdog deadline, in host cycles.
        watchdog_cycles: u64,
        /// Runs attempted before giving up.
        attempts: u32,
    },
}

impl fmt::Display for OffloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadError::NotAccelBuild { kernel } => {
                write!(
                    f,
                    "kernel {kernel} was not built for the accelerator memory map"
                )
            }
            OffloadError::Cluster(e) => write!(f, "accelerator failed: {e}"),
            OffloadError::OutputMismatch(m) => {
                write!(f, "device results differ from reference: {}", m.join("; "))
            }
            OffloadError::Host(e) => write!(f, "host execution failed: {e}"),
            OffloadError::CrcMismatch { frame_bytes } => {
                write!(
                    f,
                    "CRC mismatch on a {frame_bytes}-byte frame (retries disabled)"
                )
            }
            OffloadError::RetriesExhausted { attempts } => {
                write!(
                    f,
                    "frame undeliverable after {attempts} transmission attempts"
                )
            }
            OffloadError::WatchdogTimeout {
                watchdog_cycles,
                attempts,
            } => write!(
                f,
                "end-of-computation event missing: watchdog ({watchdog_cycles} host cycles) \
                 tripped on all {attempts} attempts"
            ),
        }
    }
}

impl Error for OffloadError {}

impl From<ulp_cluster::ClusterError> for OffloadError {
    fn from(e: ulp_cluster::ClusterError) -> Self {
        OffloadError::Cluster(e)
    }
}

impl From<ulp_mcu::host::McuError> for OffloadError {
    fn from(e: ulp_mcu::host::McuError) -> Self {
        OffloadError::Host(e)
    }
}

/// Options of one offload invocation.
#[derive(Clone, Copy, Debug)]
pub struct OffloadOptions {
    /// Kernel executions per code offload ("benchmark iterations per
    /// offload", Fig. 5b's x axis).
    pub iterations: usize,
    /// Overlap data transfers with computation (double buffering).
    pub double_buffer: bool,
    /// Re-send the binary even if it is already resident.
    pub force_reload: bool,
    /// Route the per-iteration *input* data straight from the sensor into
    /// the accelerator memory instead of over the coupling link — the
    /// paper's §V variation: "bring data from the sensor directly to the
    /// internal memory of the accelerator … reduces the pressure on the
    /// coupling link". Results still return over the link.
    pub sensor_direct: bool,
    /// Run a concurrent task on the host while the accelerator computes
    /// (paper §V: "an additional, separate task to be performed on the
    /// host at the same time"). The host then draws run power instead of
    /// sleeping during the compute phase, and the report exposes the host
    /// cycles gained.
    pub host_task: bool,
    /// Recovery policy when faults are injected; irrelevant (and free) on a
    /// fault-free link.
    pub policy: OffloadPolicy,
    /// The pipelined offload engine: chunk `map` payloads and
    /// double-buffer them through the TCDM so link, cluster DMA and cores
    /// overlap (see [`crate::pipeline`]). Disabled by default — every
    /// serialized figure stays bit-identical — and adopted only when the
    /// pipelined schedule is strictly shorter, so it can never lose.
    pub pipeline: PipelineConfig,
}

impl Default for OffloadOptions {
    fn default() -> Self {
        OffloadOptions {
            iterations: 1,
            double_buffer: false,
            force_reload: false,
            sensor_direct: false,
            host_task: false,
            policy: OffloadPolicy::default(),
            pipeline: PipelineConfig::default(),
        }
    }
}

/// Measured offload cost parameters of a kernel: everything
/// [`HetSystem::predict`] needs to evaluate an operating point without
/// re-simulating the cluster.
#[derive(Clone, Debug)]
pub struct OffloadCost {
    /// Kernel name.
    pub kernel: String,
    /// One-time program offload payload (text + rodata + constants).
    pub offload_bytes: usize,
    /// Per-iteration host→device frame payloads (one per `map(to)` buffer).
    pub input_frames: Vec<usize>,
    /// Per-iteration device→host frame payloads (one per `map(from)`).
    pub output_frames: Vec<usize>,
    /// Accelerator cycles with a cold instruction cache.
    pub cycles_cold: u64,
    /// Accelerator cycles in steady state.
    pub cycles_warm: u64,
    /// Cluster activity of the steady-state run.
    pub activity: ClusterActivity,
}

/// One job of a planned (not executed) queue: a measured cost, the
/// invocation options, and whether the one-time program offload is paid
/// by this job. Input to [`HetSystem::plan_queue`].
#[derive(Clone, Copy, Debug)]
pub struct PlannedJob<'a> {
    /// Measured cost parameters of the kernel.
    pub cost: &'a OffloadCost,
    /// Invocation options (the planner forces `pipeline` to the queue's).
    pub opts: OffloadOptions,
    /// True when the program binary must be shipped before this job.
    pub ship_binary: bool,
}

/// What resilience cost on top of the healthy offload: recovery events and
/// the extra wall-clock / energy they charged. All-zero on a fault-free
/// link, which keeps every fault-free figure bit-identical.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ResilienceStats {
    /// Frames retransmitted after a detected corruption or drop.
    pub retransmissions: u64,
    /// Corrupted/truncated frames the CRC-16 caught.
    pub crc_errors_detected: u64,
    /// Corrupted frames whose damage aliased the CRC and went through
    /// undetected (probability 2⁻¹⁶ per corrupted frame).
    pub crc_errors_escaped: u64,
    /// Frames lost outright (no bytes arrived; the sender timed out
    /// waiting for the acknowledgement).
    pub frames_dropped: u64,
    /// WFE sleeps ended by the watchdog instead of the event wire.
    pub watchdog_trips: u64,
    /// Host cycles spent in backoff pauses between retransmissions.
    pub backoff_cycles: u64,
    /// Wall-clock seconds of recovery work (retransmissions, backoff,
    /// timeout windows, late events) added to the healthy offload time.
    pub extra_seconds: f64,
    /// Energy of that recovery work, across host, accelerator and link.
    pub extra_energy_joules: f64,
    /// The offload was abandoned and remaining iterations ran on the host.
    pub fell_back_to_host: bool,
    /// Iterations the host fallback covered.
    pub fallback_iterations: u64,
    /// Host wall-clock seconds of the fallback execution.
    pub fallback_seconds: f64,
    /// Host energy of the fallback execution.
    pub fallback_energy_joules: f64,
}

impl ResilienceStats {
    /// True if any recovery activity (or fallback) happened at all.
    #[must_use]
    pub fn any(&self) -> bool {
        *self != ResilienceStats::default()
    }
}

/// Timing and energy breakdown of one offload invocation.
#[derive(Clone, Debug)]
pub struct OffloadReport {
    /// Kernel executions performed.
    pub iterations: usize,
    /// Seconds spent shipping the binary (zero if it was resident).
    pub binary_seconds: f64,
    /// Seconds of input transfers (all iterations).
    pub input_seconds: f64,
    /// Seconds of output transfers (all iterations).
    pub output_seconds: f64,
    /// Seconds of accelerator compute (all iterations).
    pub compute_seconds: f64,
    /// Seconds of GPIO synchronization overhead.
    pub sync_seconds: f64,
    /// Seconds hidden by double buffering (subtracted from the total).
    pub overlapped_seconds: f64,
    /// Accelerator cycles of the first (cold instruction cache) run.
    pub cycles_cold: u64,
    /// Accelerator cycles of steady-state runs.
    pub cycles_warm: u64,
    /// Cluster activity of the steady-state run (power-model input).
    pub activity: ClusterActivity,
    /// Host energy (active during transfers, asleep during compute).
    pub mcu_energy_joules: f64,
    /// Accelerator energy (active compute + idle leakage).
    pub pulp_energy_joules: f64,
    /// Link driver energy.
    pub link_energy_joules: f64,
    /// Host cycles available to a concurrent task during accelerator
    /// compute (zero unless [`OffloadOptions::host_task`] was set).
    pub host_task_cycles: u64,
    /// Recovery activity and its cost (all-zero on a fault-free link).
    pub resilience: ResilienceStats,
    /// Concurrency accounting of the pipelined engine: busy time per
    /// offload resource (link, cluster DMA, cores) and their pairwise /
    /// triple overlap windows. All-zero unless
    /// [`OffloadOptions::pipeline`] is enabled — the phase and energy
    /// fields above are *never* altered by pipelining, which only grows
    /// [`OffloadReport::overlapped_seconds`].
    pub overlap: Overlap,
}

impl OffloadReport {
    /// End-to-end wall-clock duration, including recovery and fallback
    /// time (both zero on a fault-free link).
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.binary_seconds
            + self.input_seconds
            + self.output_seconds
            + self.compute_seconds
            + self.sync_seconds
            - self.overlapped_seconds
            + self.resilience.extra_seconds
            + self.resilience.fallback_seconds
    }

    /// Total energy over both dies and the link, including recovery and
    /// fallback energy (both zero on a fault-free link).
    #[must_use]
    pub fn total_energy_joules(&self) -> f64 {
        self.mcu_energy_joules
            + self.pulp_energy_joules
            + self.link_energy_joules
            + self.resilience.extra_energy_joules
            + self.resilience.fallback_energy_joules
    }

    /// Efficiency w.r.t. the ideal accelerator (compute only, no offload
    /// cost) — the y axis of the paper's Fig. 5b.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.compute_seconds / self.total_seconds()
    }
}

/// Result of running a kernel on the host alone (comparison baseline).
#[derive(Clone, Copy, Debug)]
pub struct HostReport {
    /// Host cycles.
    pub cycles: u64,
    /// Wall-clock seconds at the configured host frequency.
    pub seconds: f64,
    /// Host energy.
    pub energy_joules: f64,
}

/// The coupled MCU + link + accelerator platform.
///
/// See the [crate example](crate) for typical use.
#[derive(Clone, Debug)]
pub struct HetSystem {
    config: HetSystemConfig,
    cluster: Cluster,
    link: SpiLink,
    resident_kernel: Option<String>,
    injector: FaultInjector,
    tracer: Tracer,
}

impl HetSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if the accelerator frequency exceeds `fmax` at the chosen
    /// supply, or the host frequency exceeds the device maximum.
    #[must_use]
    pub fn new(config: HetSystemConfig) -> Self {
        assert!(
            config.pulp_freq_hz <= config.power.fmax_hz(config.pulp_vdd) * 1.0001,
            "accelerator cannot reach {:.1} MHz at {:.2} V",
            config.pulp_freq_hz / 1e6,
            config.pulp_vdd
        );
        assert!(config.mcu_freq_hz <= config.mcu.fmax_hz * 1.0001);
        let cluster = Cluster::new(config.cluster);
        let link = SpiLink::new(config.link_width, config.link_prescaler);
        let injector = FaultInjector::new(config.fault);
        HetSystem {
            config,
            cluster,
            link,
            resident_kernel: None,
            injector,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a structured event tracer to the whole platform: the
    /// cluster (cores, TCDM, DMA, I$), the SPI link, and the host offload
    /// phases. A disabled tracer (the default) detaches instrumentation;
    /// every report stays bit-identical either way.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.cluster.set_tracer(tracer.clone());
        self.link.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The tracer currently attached (disabled by default).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &HetSystemConfig {
        &self.config
    }

    /// Replaces the fault model (resetting injector statistics and the
    /// fault stream).
    pub fn set_fault_config(&mut self, fault: FaultConfig) {
        self.config.fault = fault;
        self.injector = FaultInjector::new(fault);
    }

    /// Raw per-fault-type injector counters accumulated so far.
    #[must_use]
    pub fn fault_stats(&self) -> &FaultStats {
        self.injector.stats()
    }

    /// The clock feeding the SPI shifter and the MCU clock (and hence
    /// power) in effect during transfer phases, per the link-clocking
    /// scheme.
    fn link_clocks(&self) -> (f64, f64) {
        let mcu_hz = self.config.mcu_freq_hz;
        let transfer_mcu_hz = match self.config.link_clocking {
            LinkClocking::McuDivided => mcu_hz,
            LinkClocking::BoostedMcu { mcu_hz: boost } => boost,
            LinkClocking::Independent { .. } => mcu_hz,
        };
        (self.config.link_drive_hz(), transfer_mcu_hz)
    }

    /// Power drawn by the whole platform while the accelerator computes
    /// and the host sleeps (the Fig. 5a steady state).
    #[must_use]
    pub fn compute_phase_power_watts(&self, activity: &ClusterActivity) -> f64 {
        self.config
            .power
            .total_power_w(self.config.pulp_freq_hz, self.config.pulp_vdd, activity)
            + self.config.mcu.sleep_power_w()
    }

    /// Measures a kernel's offload cost parameters by simulating it on the
    /// cluster: one cold-instruction-cache run, one warm steady-state run,
    /// with results verified against the golden reference.
    ///
    /// The returned [`OffloadCost`] feeds [`HetSystem::predict`], letting
    /// amortization sweeps (Fig. 5b) evaluate hundreds of operating points
    /// without re-simulating.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError`] if the build does not target the
    /// accelerator, the cluster faults, or results mismatch the reference.
    pub fn measure_cost(&mut self, build: &KernelBuild) -> Result<OffloadCost, OffloadError> {
        // Accelerator builds lay their buffers out in the TCDM window.
        let tcdm = 0x1000_0000u32..0x1100_0000u32;
        if build.buffers.iter().any(|b| !tcdm.contains(&b.addr)) {
            return Err(OffloadError::NotAccelBuild {
                kernel: build.name.clone(),
            });
        }
        let region = TargetRegion::from_kernel(build);
        self.cluster.load_binary(&build.program, L2_BASE)?;

        let run_once = |cluster: &mut Cluster| -> Result<(u64, ClusterActivity), OffloadError> {
            for buf in &build.buffers {
                match &buf.init {
                    BufferInit::Data(d) => cluster.write_tcdm(buf.addr, d)?,
                    BufferInit::Zero => cluster.write_tcdm(buf.addr, &vec![0u8; buf.len])?,
                }
            }
            cluster.start(L2_BASE, &build.args, 0);
            let res = cluster.run_until_halt(MAX_KERNEL_CYCLES)?;
            Ok((res.eoc_at.unwrap_or(res.end_time), res.activity))
        };
        let (cycles_cold, _) = run_once(&mut self.cluster)?;
        let (cycles_warm, activity) = run_once(&mut self.cluster)?;

        let mut mismatches = Vec::new();
        for (idx, expected) in &build.expected {
            let buf = &build.buffers[*idx];
            let actual = self.cluster.read_tcdm(buf.addr, buf.len)?;
            if &actual != expected {
                mismatches.push(buf.name.to_owned());
            }
        }
        if !mismatches.is_empty() {
            return Err(OffloadError::OutputMismatch(mismatches));
        }

        Ok(OffloadCost {
            kernel: build.name.clone(),
            offload_bytes: region.offload_bytes(),
            // Zero-length map clauses are dropped at the source: they
            // would otherwise travel as header-only frames and reach the
            // cluster DMA as empty bursts — an empty map must be a no-op
            // end to end.
            input_frames: region
                .maps()
                .iter()
                .filter(|m| m.dir == MapDir::To && m.len > 0)
                .map(|m| m.len)
                .collect(),
            output_frames: region
                .maps()
                .iter()
                .filter(|m| m.dir == MapDir::From && m.len > 0)
                .map(|m| m.len)
                .collect(),
            cycles_cold,
            cycles_warm,
            activity,
        })
    }

    /// Assembles the timing and energy of an offload invocation from a
    /// measured [`OffloadCost`] — a pure model evaluation, no simulation.
    ///
    /// `include_binary` selects whether the program offload is paid (it is
    /// skipped when the binary is already resident).
    #[must_use]
    pub fn predict(
        &self,
        cost: &OffloadCost,
        opts: &OffloadOptions,
        include_binary: bool,
    ) -> OffloadReport {
        let iterations = opts.iterations.max(1);
        let mcu_hz = self.config.mcu_freq_hz;
        let f_pulp = self.config.pulp_freq_hz;

        let (spi_drive_hz, transfer_mcu_hz) = self.link_clocks();

        // Each mapped buffer travels in one Frame (10-byte header).
        let binary_seconds = if include_binary {
            self.link
                .transfer_seconds(cost.offload_bytes + 10, spi_drive_hz)
        } else {
            0.0
        };
        let input_bytes: usize = cost.input_frames.iter().sum();
        let t_in: f64 = if opts.sensor_direct {
            // Inputs stream from the sensor straight into the accelerator
            // memory over the dedicated interface; the link is untouched.
            input_bytes as f64 / self.config.sensor_bandwidth
        } else {
            cost.input_frames
                .iter()
                .map(|len| self.link.transfer_seconds(len + 10, spi_drive_hz))
                .sum()
        };
        let t_out: f64 = cost
            .output_frames
            .iter()
            .map(|len| self.link.transfer_seconds(len + 10, spi_drive_hz))
            .sum();

        let t_compute_cold = cost.cycles_cold as f64 / f_pulp;
        let t_compute_warm = cost.cycles_warm as f64 / f_pulp;
        let compute_seconds = t_compute_cold + (iterations - 1) as f64 * t_compute_warm;
        let input_seconds = t_in * iterations as f64;
        let output_seconds = t_out * iterations as f64;
        // Two GPIO edges per iteration, ~10 host cycles each.
        let sync_seconds = iterations as f64 * 20.0 / mcu_hz;

        // Double buffering hides min(compute, in+out) of each steady
        // iteration (transfers for iteration i+1 and results of i-1 move
        // while i computes); the pipeline fill (first input) and drain
        // (last output) remain exposed.
        let legacy_overlap = if opts.double_buffer && iterations > 1 {
            (t_in + t_out).min(t_compute_warm) * (iterations - 1) as f64
        } else {
            0.0
        };

        // The pipelined engine: schedule the same work chunked and
        // double-buffered, and adopt whichever hides more — the phase
        // fields above stay at their serialized values either way, so a
        // pipelined report differs from its serialized twin only in
        // `overlapped_seconds` and `overlap`.
        let pipe = opts.pipeline.normalized();
        let (overlapped_seconds, overlap) = if pipe.enabled {
            let serial_core = binary_seconds + input_seconds + output_seconds + compute_seconds;
            let job = self.pipeline_job(cost, opts, include_binary, pipe);
            let mut sched = Schedule::new(pipe.window);
            pipeline::schedule_job(&mut sched, &job);
            let gain = serial_core - sched.makespan() as f64 / 1e9;
            let mut o = sched.overlap();
            o.engaged = gain > legacy_overlap && gain > 0.0;
            (legacy_overlap.max(gain).max(0.0), o)
        } else {
            (legacy_overlap, Overlap::default())
        };

        // ---- energy ledger ----------------------------------------------
        // Phases the MCU actively drives; with a direct sensor interface
        // the input phase does not involve the host at all.
        let mcu_driven_transfers = binary_seconds
            + if opts.sensor_direct {
                0.0
            } else {
                input_seconds
            }
            + output_seconds
            + sync_seconds;
        let mcu_compute_phase_power = if opts.host_task {
            self.config.mcu.run_power_w(mcu_hz)
        } else {
            self.config.mcu.sleep_power_w()
        };
        let mcu_energy = self.config.mcu.run_power_w(transfer_mcu_hz) * mcu_driven_transfers
            + mcu_compute_phase_power * compute_seconds;
        let host_task_cycles = if opts.host_task {
            (compute_seconds * mcu_hz) as u64
        } else {
            0
        };
        let pulp_compute_energy =
            self.config
                .power
                .total_power_w(f_pulp, self.config.pulp_vdd, &cost.activity)
                * compute_seconds;
        let pulp_idle_energy =
            self.config.power.leakage_w(self.config.pulp_vdd) * mcu_driven_transfers;
        let link_data_bytes: usize = if opts.sensor_direct { 0 } else { input_bytes }
            + cost.output_frames.iter().sum::<usize>();
        let link_bytes = if include_binary {
            cost.offload_bytes as f64
        } else {
            0.0
        } + iterations as f64 * link_data_bytes as f64;
        let link_energy = link_bytes * 8.0 * SpiLink::DEFAULT_ENERGY_PER_BIT;

        OffloadReport {
            iterations,
            binary_seconds,
            input_seconds,
            output_seconds,
            compute_seconds,
            sync_seconds,
            overlapped_seconds,
            cycles_cold: cost.cycles_cold,
            cycles_warm: cost.cycles_warm,
            activity: cost.activity.clone(),
            mcu_energy_joules: mcu_energy,
            pulp_energy_joules: pulp_compute_energy + pulp_idle_energy,
            link_energy_joules: link_energy,
            host_task_cycles,
            resilience: ResilienceStats::default(),
            overlap,
        }
    }

    /// Converts a measured [`OffloadCost`] into the pipelined engine's
    /// nanosecond-domain job description: every `map` payload chunked to
    /// `pipe.chunk_bytes`, each chunk costed on the link (with its own
    /// 10-byte frame header) and on the cluster DMA
    /// (`setup + ceil(len/4)` cycles at the accelerator clock).
    fn pipeline_job(
        &self,
        cost: &OffloadCost,
        opts: &OffloadOptions,
        include_binary: bool,
        pipe: PipelineConfig,
    ) -> PipelineJob {
        let (spi_drive_hz, _) = self.link_clocks();
        let f_pulp = self.config.pulp_freq_hz;
        let dma_setup = u64::from(self.config.cluster.dma_setup);
        let chunked = |lens: &[usize]| -> Vec<ChunkOp> {
            lens.iter()
                .flat_map(|&len| pipeline::chunk_lens(len, pipe.chunk_bytes))
                .map(|c| ChunkOp {
                    link_ns: pipeline::ns(
                        self.link.transfer_seconds(c + FRAME_OVERHEAD, spi_drive_hz),
                    ),
                    dma_ns: pipeline::ns((dma_setup + (c as u64).div_ceil(4)) as f64 / f_pulp),
                })
                .collect()
        };
        let input_bytes: usize = cost.input_frames.iter().sum();
        PipelineJob {
            binary: if include_binary {
                chunked(&[cost.offload_bytes])
            } else {
                Vec::new()
            },
            inputs: if opts.sensor_direct {
                Vec::new()
            } else {
                chunked(&cost.input_frames)
            },
            outputs: chunked(&cost.output_frames),
            compute_cold_ns: pipeline::ns(cost.cycles_cold as f64 / f_pulp),
            compute_warm_ns: pipeline::ns(cost.cycles_warm as f64 / f_pulp),
            iterations: opts.iterations.max(1),
            sensor_ns: opts
                .sensor_direct
                .then(|| pipeline::ns(input_bytes as f64 / self.config.sensor_bandwidth)),
        }
    }

    /// Offloads a kernel: ships the binary if needed, then runs
    /// `iterations` executions with input/output marshalling.
    ///
    /// The first execution runs with a cold instruction cache; steady-state
    /// iterations reuse the warm timing, matching the repeated-offload
    /// scenario of Fig. 5b.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError`] if the build does not target the
    /// accelerator, the cluster faults, or results mismatch the golden
    /// reference.
    pub fn offload(
        &mut self,
        build: &KernelBuild,
        opts: &OffloadOptions,
    ) -> Result<OffloadReport, OffloadError> {
        self.offload_impl(build, None, opts)
    }

    /// Like [`HetSystem::offload`], but with a host-targeted build of the
    /// same kernel available as the degradation path: if the offload is
    /// unrecoverable (retries exhausted, watchdog timeout) and the policy
    /// allows it, the remaining iterations run on the host and the report
    /// carries the (degraded) fallback cost instead of an error.
    ///
    /// # Errors
    ///
    /// Same as [`HetSystem::offload`]; unrecoverable transport/compute
    /// failures surface as errors only when
    /// [`OffloadPolicy::fallback_to_host`] is disabled.
    pub fn offload_with_fallback(
        &mut self,
        build: &KernelBuild,
        host_build: &KernelBuild,
        opts: &OffloadOptions,
    ) -> Result<OffloadReport, OffloadError> {
        // The host baseline is only needed when faults can actually strike.
        let host = if self.injector.is_active() {
            Some(self.run_on_host(host_build)?)
        } else {
            None
        };
        self.offload_impl(build, host, opts)
    }

    fn offload_impl(
        &mut self,
        build: &KernelBuild,
        host: Option<HostReport>,
        opts: &OffloadOptions,
    ) -> Result<OffloadReport, OffloadError> {
        let cost = self.measure_cost(build)?;
        let mcu_hz = self.config.mcu_freq_hz;
        // With the pipelined engine on, every payload crosses the link as
        // a train of chunk frames; the statistics record those frames.
        let pipe = opts.pipeline.normalized();
        let send_lens = |len: usize| -> Vec<usize> {
            if pipe.enabled {
                pipeline::chunk_lens(len, pipe.chunk_bytes)
            } else if len > 0 {
                vec![len]
            } else {
                Vec::new()
            }
        };

        // Program offload (binary + constant maps), once per resident
        // kernel.
        let ship_binary =
            opts.force_reload || self.resident_kernel.as_deref() != Some(build.name.as_str());
        if ship_binary {
            for len in send_lens(cost.offload_bytes) {
                let _ = self.link.send(len + FRAME_OVERHEAD, mcu_hz);
            }
            let region = TargetRegion::from_kernel(build);
            for buf in &build.buffers {
                if let BufferInit::Data(d) = &buf.init {
                    if region
                        .maps()
                        .iter()
                        .any(|m| m.device_addr == buf.addr && m.dir == MapDir::ToOnce)
                    {
                        self.cluster.write_tcdm(buf.addr, d)?;
                    }
                }
            }
            self.resident_kernel = Some(build.name.clone());
        }
        // Record the per-iteration data transfers in the link statistics.
        for _ in 0..opts.iterations.max(1) {
            for len in &cost.input_frames {
                for chunk in send_lens(*len) {
                    let _ = self.link.send(chunk + FRAME_OVERHEAD, mcu_hz);
                }
            }
            for len in &cost.output_frames {
                for chunk in send_lens(*len) {
                    let _ = self.link.receive(chunk + FRAME_OVERHEAD, mcu_hz);
                }
            }
        }

        let result = if self.injector.is_active() {
            let result = self.offload_resilient(&cost, opts, ship_binary, host.as_ref());
            if !matches!(&result, Ok(r) if !r.resilience.fell_back_to_host) {
                // The offload did not complete on the device: the binary
                // (or its state) cannot be trusted to be resident.
                self.resident_kernel = None;
            }
            result
        } else {
            Ok(self.predict(&cost, opts, ship_binary))
        };
        if let Ok(report) = &result {
            self.emit_phases(report);
            if report.overlap.any() {
                self.tracer.set_overlap(report.overlap);
            }
        }
        result
    }

    /// Records the invocation's phase decomposition (the paper's Fig. 4/5
    /// breakdown) as sequential spans on the host timeline, then advances
    /// the host epoch past this invocation.
    fn emit_phases(&self, report: &OffloadReport) {
        if !self.tracer.is_enabled() {
            return;
        }
        let spans = [
            (PhaseKind::Binary, report.binary_seconds),
            (PhaseKind::Input, report.input_seconds),
            (PhaseKind::Compute, report.compute_seconds),
            (PhaseKind::Output, report.output_seconds),
            (PhaseKind::Sync, report.sync_seconds),
        ];
        let mut at = 0u64;
        for (phase, seconds) in spans {
            let ns = (seconds * 1e9) as u64;
            if ns > 0 {
                self.tracer
                    .emit(Component::Host, EventKind::Phase(phase), at, ns);
            }
            at += ns;
        }
        self.tracer
            .advance_host_epoch(((report.total_seconds() * 1e9) as u64).max(at));
    }

    /// Simulates one frame crossing the faulty link under the retry
    /// policy. The *first* transmission attempt is part of the healthy
    /// ledger (charged by the caller, identically to [`HetSystem::predict`]);
    /// everything here accounts only the recovery surcharge: ACK-timeout
    /// windows, backoff pauses and retransmissions.
    ///
    /// Acknowledgements themselves are free: ACK/NACK ride the existing
    /// 48-bit per-transaction turnaround phase of the full-duplex link.
    fn transport_frame(
        &mut self,
        wire_bytes: usize,
        spi_drive_hz: f64,
        run_p: f64,
        pulp_leak_p: f64,
        policy: &OffloadPolicy,
        res: &mut ResilienceStats,
    ) -> Result<(), OffloadError> {
        let mcu_hz = self.config.mcu_freq_hz;
        let t_frame = self.link.transfer_seconds(wire_bytes, spi_drive_hz);
        let e_frame = wire_bytes as f64 * 8.0 * SpiLink::DEFAULT_ENERGY_PER_BIT;
        let mut attempt: u32 = 0;
        loop {
            let outcome = self.injector.assess(wire_bytes);
            if attempt > 0 {
                // A retransmission: its full frame time and energy are
                // recovery surcharge.
                res.retransmissions += 1;
                res.extra_seconds += t_frame;
                res.extra_energy_joules += (run_p + pulp_leak_p) * t_frame + e_frame;
                if self.tracer.is_enabled() {
                    let at = (self.link.stats().busy_seconds * 1e9) as u64;
                    self.tracer.emit(
                        Component::Link,
                        EventKind::Retry { attempt },
                        at,
                        (t_frame * 1e9) as u64,
                    );
                }
            }
            match outcome {
                TxOutcome::Delivered => return Ok(()),
                TxOutcome::Corrupted { escaped: true } => {
                    // The CRC aliased: the receiver ACKs corrupt data. The
                    // transport succeeds; the damage shows up (if at all)
                    // at the output-verification layer.
                    res.crc_errors_escaped += 1;
                    return Ok(());
                }
                bad => {
                    match bad {
                        TxOutcome::Corrupted { .. } | TxOutcome::Truncated => {
                            res.crc_errors_detected += 1;
                        }
                        TxOutcome::Dropped => {
                            // No bytes arrived, so no NACK either: the
                            // sender idles one frame time before timing
                            // out on the missing acknowledgement.
                            res.frames_dropped += 1;
                            res.extra_seconds += t_frame;
                            res.extra_energy_joules += (run_p + pulp_leak_p) * t_frame;
                        }
                        TxOutcome::Delivered => unreachable!(),
                    }
                    if attempt >= policy.max_retries {
                        return Err(if policy.max_retries == 0 {
                            OffloadError::CrcMismatch {
                                frame_bytes: wire_bytes,
                            }
                        } else {
                            OffloadError::RetriesExhausted {
                                attempts: attempt + 1,
                            }
                        });
                    }
                    // Backoff pause before the retransmission: both dies
                    // idle.
                    let pause = policy.backoff_for(attempt);
                    let t_pause = pause as f64 / mcu_hz;
                    res.backoff_cycles += pause;
                    res.extra_seconds += t_pause;
                    res.extra_energy_joules +=
                        (self.config.mcu.sleep_power_w() + pulp_leak_p) * t_pause;
                    attempt += 1;
                }
            }
        }
    }

    /// The fault-aware twin of [`HetSystem::predict`]: walks the offload
    /// phase by phase, drawing transport and event-wire outcomes from the
    /// injector. Healthy phases are charged exactly as `predict` charges
    /// them; every recovery action lands in [`ResilienceStats`] on top.
    fn offload_resilient(
        &mut self,
        cost: &OffloadCost,
        opts: &OffloadOptions,
        include_binary: bool,
        host: Option<&HostReport>,
    ) -> Result<OffloadReport, OffloadError> {
        let iterations = opts.iterations.max(1);
        let policy = opts.policy;
        // With the pipelined engine on, every payload becomes a train of
        // chunk frames; each chunk is transported (and recovered)
        // individually, exactly as the selective-repeat window does on the
        // wire.
        let pipe = opts.pipeline.normalized();
        let chunks_of = |len: usize| -> Vec<usize> {
            if pipe.enabled {
                pipeline::chunk_lens(len, pipe.chunk_bytes)
            } else if len > 0 {
                vec![len]
            } else {
                Vec::new()
            }
        };
        let mcu_hz = self.config.mcu_freq_hz;
        let f_pulp = self.config.pulp_freq_hz;
        let (spi_drive_hz, transfer_mcu_hz) = self.link_clocks();
        let run_p = self.config.mcu.run_power_w(transfer_mcu_hz);
        let sleep_p = self.config.mcu.sleep_power_w();
        let mcu_compute_p = if opts.host_task {
            self.config.mcu.run_power_w(mcu_hz)
        } else {
            sleep_p
        };
        let pulp_active_p =
            self.config
                .power
                .total_power_w(f_pulp, self.config.pulp_vdd, &cost.activity);
        let pulp_leak_p = self.config.power.leakage_w(self.config.pulp_vdd);

        let t_cold = cost.cycles_cold as f64 / f_pulp;
        let t_warm = cost.cycles_warm as f64 / f_pulp;
        let wd_cycles = if policy.watchdog_cycles > 0 {
            policy.watchdog_cycles
        } else {
            // Auto: 4× the expected (cold) compute time in host cycles, so
            // a healthy run never trips it.
            ((t_cold * mcu_hz * 4.0).ceil() as u64).max(1_000)
        };

        let mut res = ResilienceStats::default();
        // Healthy ledger — accumulated to match `predict` term for term.
        let mut binary_seconds = 0.0f64;
        let mut input_seconds = 0.0f64;
        let mut output_seconds = 0.0f64;
        let mut compute_seconds = 0.0f64;
        let mut sync_seconds = 0.0f64;
        let mut completed = 0usize;
        let mut failure: Option<OffloadError> = None;

        if include_binary {
            for chunk in chunks_of(cost.offload_bytes) {
                let wire = chunk + FRAME_OVERHEAD;
                binary_seconds += self.link.transfer_seconds(wire, spi_drive_hz);
                if let Err(e) =
                    self.transport_frame(wire, spi_drive_hz, run_p, pulp_leak_p, &policy, &mut res)
                {
                    failure = Some(e);
                    break;
                }
            }
        }

        'iters: while failure.is_none() && completed < iterations {
            // -- inputs ---------------------------------------------------
            if opts.sensor_direct {
                // The dedicated sensor interface bypasses the faulty link.
                let input_bytes: usize = cost.input_frames.iter().sum();
                input_seconds += input_bytes as f64 / self.config.sensor_bandwidth;
            } else {
                for chunk in cost.input_frames.iter().flat_map(|&len| chunks_of(len)) {
                    let wire = chunk + FRAME_OVERHEAD;
                    input_seconds += self.link.transfer_seconds(wire, spi_drive_hz);
                    if let Err(e) = self.transport_frame(
                        wire,
                        spi_drive_hz,
                        run_p,
                        pulp_leak_p,
                        &policy,
                        &mut res,
                    ) {
                        failure = Some(e);
                        break 'iters;
                    }
                }
            }

            // -- compute, guarded by the WFE watchdog ---------------------
            let t_iter = if completed == 0 { t_cold } else { t_warm };
            let event_host_cycles = (t_iter * mcu_hz).ceil() as u64;
            let mut attempt: u32 = 0;
            loop {
                // Injected end-of-computation delay, in accelerator time
                // (kept separate from the cycle-quantized race so an
                // on-time event charges exactly zero surcharge).
                let (event_at, late_secs) = match self.injector.eoc() {
                    EocOutcome::OnTime => (Some(event_host_cycles), 0.0),
                    EocOutcome::Late(accel_cycles) => {
                        let secs = accel_cycles as f64 / f_pulp;
                        (
                            Some(event_host_cycles + (secs * mcu_hz).ceil() as u64),
                            secs,
                        )
                    }
                    EocOutcome::Hang => (None, 0.0),
                };
                let elapsed = binary_seconds
                    + input_seconds
                    + compute_seconds
                    + output_seconds
                    + sync_seconds
                    + res.extra_seconds;
                let wait = wfe_wait_traced(
                    event_at,
                    Some(wd_cycles),
                    &self.tracer,
                    (elapsed * 1e9) as u64,
                    mcu_hz,
                );
                match wait.woke_by {
                    WakeReason::Event => {
                        compute_seconds += t_iter;
                        // A late event extends the sleep beyond the healthy
                        // compute time; the delta is recovery surcharge
                        // (host asleep, accelerator still active).
                        if late_secs > 0.0 {
                            res.extra_seconds += late_secs;
                            res.extra_energy_joules += (mcu_compute_p + pulp_active_p) * late_secs;
                        }
                        break;
                    }
                    WakeReason::Watchdog => {
                        res.watchdog_trips += 1;
                        let window = wait.slept_seconds(mcu_hz);
                        // The whole timeout window is surcharge. A hung
                        // cluster still burns active power — unless its
                        // fetch-enable wire is stuck and it never started.
                        let pulp_p = if self.injector.wire_stuck(GpioEvent::FetchEnable) {
                            pulp_leak_p
                        } else {
                            pulp_active_p
                        };
                        res.extra_seconds += window;
                        res.extra_energy_joules += (mcu_compute_p + pulp_p) * window;
                        if attempt >= policy.max_retries {
                            failure = Some(OffloadError::WatchdogTimeout {
                                watchdog_cycles: wd_cycles,
                                attempts: attempt + 1,
                            });
                            break 'iters;
                        }
                        attempt += 1;
                    }
                }
            }
            sync_seconds += 20.0 / mcu_hz;

            // -- outputs --------------------------------------------------
            for chunk in cost.output_frames.iter().flat_map(|&len| chunks_of(len)) {
                let wire = chunk + FRAME_OVERHEAD;
                output_seconds += self.link.transfer_seconds(wire, spi_drive_hz);
                if let Err(e) =
                    self.transport_frame(wire, spi_drive_hz, run_p, pulp_leak_p, &policy, &mut res)
                {
                    failure = Some(e);
                    break 'iters;
                }
            }
            completed += 1;
        }

        // -- unrecoverable: degrade to the host or surface the error ------
        if let Some(err) = failure {
            let remaining = iterations - completed;
            match host {
                Some(h) if policy.fallback_to_host => {
                    res.fell_back_to_host = true;
                    res.fallback_iterations = remaining as u64;
                    res.fallback_seconds = h.seconds * remaining as f64;
                    res.fallback_energy_joules = h.energy_joules * remaining as f64;
                }
                _ => return Err(err),
            }
        }

        // -- healthy-ledger energy, mirroring `predict` -------------------
        let mcu_driven_transfers = binary_seconds
            + if opts.sensor_direct {
                0.0
            } else {
                input_seconds
            }
            + output_seconds
            + sync_seconds;
        let mcu_energy = run_p * mcu_driven_transfers + mcu_compute_p * compute_seconds;
        let host_task_cycles = if opts.host_task {
            (compute_seconds * mcu_hz) as u64
        } else {
            0
        };
        let pulp_energy = pulp_active_p * compute_seconds + pulp_leak_p * mcu_driven_transfers;
        let input_bytes: usize = cost.input_frames.iter().sum();
        let link_data_bytes: usize = if opts.sensor_direct { 0 } else { input_bytes }
            + cost.output_frames.iter().sum::<usize>();
        let link_bytes = if include_binary {
            cost.offload_bytes as f64
        } else {
            0.0
        } + completed as f64 * link_data_bytes as f64;
        let link_energy = link_bytes * 8.0 * SpiLink::DEFAULT_ENERGY_PER_BIT;

        // Double buffering still hides steady-state transfers behind
        // compute for the iterations that completed on the device.
        let legacy_overlap = if opts.double_buffer && completed > 1 {
            let t_in = if opts.sensor_direct {
                input_bytes as f64 / self.config.sensor_bandwidth
            } else {
                cost.input_frames
                    .iter()
                    .map(|len| {
                        self.link
                            .transfer_seconds(len + FRAME_OVERHEAD, spi_drive_hz)
                    })
                    .sum()
            };
            let t_out: f64 = cost
                .output_frames
                .iter()
                .map(|len| {
                    self.link
                        .transfer_seconds(len + FRAME_OVERHEAD, spi_drive_hz)
                })
                .sum();
            (t_in + t_out).min(t_warm) * (completed - 1) as f64
        } else {
            0.0
        };
        // The pipelined engine only claims credit for iterations that
        // actually completed on the device: its gain is measured against
        // the serial schedule of that same (chunked) work, so a partially
        // failed offload can never go overlap-negative.
        let (overlapped_seconds, overlap) = if pipe.enabled && completed > 0 {
            let mut jopts = *opts;
            jopts.iterations = completed;
            let job = self.pipeline_job(cost, &jopts, include_binary, pipe);
            let mut sched = Schedule::new(pipe.window);
            pipeline::schedule_job(&mut sched, &job);
            let gain = pipeline::serial_ns(&job).saturating_sub(sched.makespan()) as f64 / 1e9;
            let mut o = sched.overlap();
            o.engaged = gain > legacy_overlap && gain > 0.0;
            (legacy_overlap.max(gain), o)
        } else {
            (legacy_overlap, Overlap::default())
        };

        Ok(OffloadReport {
            iterations,
            binary_seconds,
            input_seconds,
            output_seconds,
            compute_seconds,
            sync_seconds,
            overlapped_seconds,
            cycles_cold: cost.cycles_cold,
            cycles_warm: cost.cycles_warm,
            activity: cost.activity.clone(),
            mcu_energy_joules: mcu_energy,
            pulp_energy_joules: pulp_energy,
            link_energy_joules: link_energy,
            host_task_cycles,
            resilience: res,
            overlap,
        })
    }

    /// Runs a host-targeted build on the MCU alone (the comparison
    /// baseline: no accelerator, no transfers).
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Host`] on host faults.
    pub fn run_on_host(&self, build: &KernelBuild) -> Result<HostReport, OffloadError> {
        let mut mcu = Mcu::new(self.config.mcu.clone(), self.config.mcu_freq_hz);
        // Epoch is a cluster-scheduler strategy; on the single-core host
        // it degenerates to micro-op block replay, and the reference
        // engine's counterpart is the classic step loop.
        mcu.set_microop(self.config.cluster.engine == ulp_cluster::Engine::Epoch);
        for buf in &build.buffers {
            match &buf.init {
                BufferInit::Data(d) => mcu.write_mem(buf.addr, d)?,
                BufferInit::Zero => mcu.write_mem(buf.addr, &vec![0u8; buf.len])?,
            }
        }
        let run = mcu.run_program(&build.program, &build.args)?;
        Ok(HostReport {
            cycles: run.cycles,
            seconds: run.seconds,
            energy_joules: run.energy_joules,
        })
    }

    /// Accumulated link statistics.
    #[must_use]
    pub fn link_stats(&self) -> &ulp_link::LinkStats {
        self.link.stats()
    }

    /// Name of the kernel whose binary is currently resident on the
    /// accelerator (its next offload skips the program transfer).
    #[must_use]
    pub fn resident_kernel(&self) -> Option<&str> {
        self.resident_kernel.as_deref()
    }

    /// Runs every kernel of an [`OffloadQueue`] and pipelines their
    /// frames over the link through one shared engine schedule: the input
    /// stream of kernel *k+1* starts shifting while kernel *k* still
    /// computes, exactly as chunks pipeline within a single offload.
    ///
    /// Each per-kernel [`OffloadReport`] is exactly what
    /// [`HetSystem::offload`] would have produced with the queue's
    /// pipeline config; the [`QueueReport`] adds the cross-kernel view.
    /// With `pipe.enabled == false` (or a fault-active link, where
    /// in-flight pipelining is forfeited to keep the per-frame recovery
    /// accounting exact), the queue degrades to strictly sequential
    /// offloads and `total_seconds == serialized_seconds`.
    ///
    /// # Errors
    ///
    /// Returns the first [`OffloadError`] any queued offload raises.
    pub fn run_queue(
        &mut self,
        queue: &OffloadQueue,
        pipe: PipelineConfig,
    ) -> Result<QueueReport, OffloadError> {
        let norm = pipe.normalized();
        queue.mark_consumed();

        if self.injector.is_active() || !norm.enabled {
            let mut reports: Vec<OffloadReport> = Vec::with_capacity(queue.len());
            let mut serialized_seconds = 0.0f64;
            let mut total_seconds = 0.0f64;
            for (build, opts) in queue.jobs() {
                let mut o = *opts;
                o.pipeline = pipe;
                let r = self.offload(build, &o)?;
                serialized_seconds += r.binary_seconds
                    + r.input_seconds
                    + r.output_seconds
                    + r.compute_seconds
                    + r.sync_seconds
                    + r.resilience.extra_seconds
                    + r.resilience.fallback_seconds;
                total_seconds += r.total_seconds();
                reports.push(r);
            }
            return Ok(QueueReport {
                reports,
                serialized_seconds,
                total_seconds,
                overlap: Overlap::default(),
            });
        }

        // Execute the side effects — cost measurement on the cluster, link
        // statistics, binary residency — then hand the measured jobs to the
        // pure planner shared with the serving layer.
        let mcu_hz = self.config.mcu_freq_hz;
        let mut measured: Vec<(OffloadCost, OffloadOptions, bool)> =
            Vec::with_capacity(queue.len());
        for (build, opts) in queue.jobs() {
            let mut o = *opts;
            o.pipeline = pipe;
            let cost = self.measure_cost(build)?;
            let ship_binary =
                o.force_reload || self.resident_kernel.as_deref() != Some(build.name.as_str());
            if ship_binary {
                for len in pipeline::chunk_lens(cost.offload_bytes, norm.chunk_bytes) {
                    let _ = self.link.send(len + FRAME_OVERHEAD, mcu_hz);
                }
                let region = TargetRegion::from_kernel(build);
                for buf in &build.buffers {
                    if let BufferInit::Data(d) = &buf.init {
                        if region
                            .maps()
                            .iter()
                            .any(|m| m.device_addr == buf.addr && m.dir == MapDir::ToOnce)
                        {
                            self.cluster.write_tcdm(buf.addr, d)?;
                        }
                    }
                }
                self.resident_kernel = Some(build.name.clone());
            }
            for _ in 0..o.iterations.max(1) {
                for chunk in cost
                    .input_frames
                    .iter()
                    .flat_map(|&len| pipeline::chunk_lens(len, norm.chunk_bytes))
                {
                    let _ = self.link.send(chunk + FRAME_OVERHEAD, mcu_hz);
                }
                for chunk in cost
                    .output_frames
                    .iter()
                    .flat_map(|&len| pipeline::chunk_lens(len, norm.chunk_bytes))
                {
                    let _ = self.link.receive(chunk + FRAME_OVERHEAD, mcu_hz);
                }
            }
            measured.push((cost, o, ship_binary));
        }

        let jobs: Vec<PlannedJob<'_>> = measured
            .iter()
            .map(|(cost, opts, ship_binary)| PlannedJob {
                cost,
                opts: *opts,
                ship_binary: *ship_binary,
            })
            .collect();
        let qr = self.plan_queue(&jobs, pipe);
        for report in &qr.reports {
            self.emit_phases(report);
        }
        if qr.overlap.any() {
            self.tracer.set_overlap(qr.overlap);
        }
        Ok(qr)
    }

    /// Plans an ordered sequence of offload jobs through one shared
    /// pipeline schedule **without touching any simulator state** — no
    /// cluster runs, no link statistics, no residency changes. Each job
    /// carries a measured [`OffloadCost`] (see [`HetSystem::measure_cost`])
    /// plus whether the program offload is paid; this is exactly the
    /// arithmetic [`HetSystem::run_queue`] performs after its side
    /// effects, factored out so a serving layer can price thousands of
    /// candidate batches against cached costs.
    ///
    /// With the pipeline disabled the jobs are planned strictly
    /// serialized and `total_seconds == serialized_seconds`.
    #[must_use]
    pub fn plan_queue(&self, jobs: &[PlannedJob<'_>], pipe: PipelineConfig) -> QueueReport {
        let norm = pipe.normalized();
        let mut reports: Vec<OffloadReport> = Vec::with_capacity(jobs.len());
        let mut serialized_seconds = 0.0f64;

        if !norm.enabled {
            let mut total_seconds = 0.0f64;
            for job in jobs {
                let mut o = job.opts;
                o.pipeline = pipe;
                let r = self.predict(job.cost, &o, job.ship_binary);
                serialized_seconds += r.binary_seconds
                    + r.input_seconds
                    + r.output_seconds
                    + r.compute_seconds
                    + r.sync_seconds;
                total_seconds += r.total_seconds();
                reports.push(r);
            }
            return QueueReport {
                reports,
                serialized_seconds,
                total_seconds,
                overlap: Overlap::default(),
            };
        }

        let mut sched = Schedule::new(norm.window);
        let mut sync_total = 0.0f64;
        let mut sequential_total = 0.0f64;
        for job in jobs {
            let mut o = job.opts;
            o.pipeline = pipe;
            let report = self.predict(job.cost, &o, job.ship_binary);
            serialized_seconds += report.binary_seconds
                + report.input_seconds
                + report.output_seconds
                + report.compute_seconds
                + report.sync_seconds;
            sync_total += report.sync_seconds;
            sequential_total += report.total_seconds();
            let engine_job = self.pipeline_job(job.cost, &o, job.ship_binary, norm);
            pipeline::schedule_job(&mut sched, &engine_job);
            reports.push(report);
        }

        // The shared schedule subsumes each job's internal overlap, so the
        // queue wall-clock is its makespan (plus the GPIO handshakes the
        // engine does not model) — clamped so queueing never loses to
        // running the offloads back to back.
        let pipelined = sched.makespan() as f64 / 1e9 + sync_total;
        let total_seconds = pipelined.min(sequential_total).min(serialized_seconds);
        let mut overlap = sched.overlap();
        overlap.engaged = pipelined < serialized_seconds;
        QueueReport {
            reports,
            serialized_seconds,
            total_seconds,
            overlap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_kernels::{Benchmark, TargetEnv};

    fn small_build() -> KernelBuild {
        ulp_kernels::matmul::build_sized(
            ulp_kernels::matmul::MatVariant::Char,
            &TargetEnv::pulp_parallel(),
            16,
        )
    }

    #[test]
    fn offload_runs_and_verifies() {
        let mut sys = HetSystem::new(HetSystemConfig::default());
        let report = sys
            .offload(&small_build(), &OffloadOptions::default())
            .unwrap();
        assert!(
            report.binary_seconds > 0.0,
            "first offload ships the binary"
        );
        assert!(report.compute_seconds > 0.0);
        assert!(report.efficiency() > 0.0 && report.efficiency() < 1.0);
    }

    #[test]
    fn binary_resident_on_second_offload() {
        let mut sys = HetSystem::new(HetSystemConfig::default());
        let build = small_build();
        let r1 = sys.offload(&build, &OffloadOptions::default()).unwrap();
        let r2 = sys.offload(&build, &OffloadOptions::default()).unwrap();
        assert!(r1.binary_seconds > 0.0);
        assert!(
            (r2.binary_seconds - 0.0).abs() < 1e-15,
            "binary already resident"
        );
        assert!(r2.total_seconds() < r1.total_seconds());
    }

    #[test]
    fn force_reload_ships_again() {
        let mut sys = HetSystem::new(HetSystemConfig::default());
        let build = small_build();
        let _ = sys.offload(&build, &OffloadOptions::default()).unwrap();
        let r = sys
            .offload(
                &build,
                &OffloadOptions {
                    force_reload: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(r.binary_seconds > 0.0);
    }

    #[test]
    fn efficiency_improves_with_iterations() {
        // Fig. 5b's core effect: amortizing the offload cost.
        let build = small_build();
        let eff = |iters: usize| {
            let mut sys = HetSystem::new(HetSystemConfig::default());
            sys.offload(
                &build,
                &OffloadOptions {
                    iterations: iters,
                    ..Default::default()
                },
            )
            .unwrap()
            .efficiency()
        };
        let e1 = eff(1);
        let e8 = eff(8);
        let e64 = eff(64);
        assert!(e1 < e8 && e8 < e64, "{e1:.3} < {e8:.3} < {e64:.3} violated");
    }

    #[test]
    fn prediction_is_monotone_in_iterations() {
        // Over the whole 1–200 iteration range of the analytic model:
        // total time grows, efficiency never drops, double buffering
        // never hurts.
        let mut sys = HetSystem::new(HetSystemConfig::default());
        let cost = sys.measure_cost(&small_build()).unwrap();
        let at = |iterations: usize, double_buffer: bool| {
            let opts = OffloadOptions {
                iterations,
                double_buffer,
                ..Default::default()
            };
            sys.predict(&cost, &opts, true)
        };
        for iters in 1..200 {
            let (a, b) = (at(iters, false), at(iters + 1, false));
            assert!(b.total_seconds() > a.total_seconds(), "time at {iters}");
            assert!(b.efficiency() >= a.efficiency() - 1e-12, "eff at {iters}");
            let db = at(iters, true);
            assert!(
                db.total_seconds() <= a.total_seconds() + 1e-15,
                "db at {iters}"
            );
        }
    }

    #[test]
    fn faster_host_clock_never_slows_transfers() {
        // The SPI follows the host clock from 2 to 80 MHz: doubling it
        // shrinks the binary and input transfers and leaves compute
        // untouched.
        let cost = HetSystem::new(HetSystemConfig::default())
            .measure_cost(&small_build())
            .unwrap();
        let at = |mcu_freq_hz: f64| {
            let sys = HetSystem::new(HetSystemConfig {
                mcu_freq_hz,
                ..HetSystemConfig::default()
            });
            let opts = OffloadOptions {
                iterations: 4,
                ..Default::default()
            };
            sys.predict(&cost, &opts, true)
        };
        for mhz in (2..=80).step_by(2) {
            let fast = at(f64::from(mhz) * 1e6);
            let slow = at(f64::from(mhz) * 0.5e6);
            assert!(fast.input_seconds < slow.input_seconds, "{mhz} MHz");
            assert!(fast.binary_seconds < slow.binary_seconds, "{mhz} MHz");
            assert!((fast.compute_seconds - slow.compute_seconds).abs() < 1e-15);
        }
    }

    #[test]
    fn double_buffering_hides_transfers() {
        let build = small_build();
        let run = |db: bool| {
            let mut sys = HetSystem::new(HetSystemConfig::default());
            sys.offload(
                &build,
                &OffloadOptions {
                    iterations: 16,
                    double_buffer: db,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let seq = run(false);
        let dbl = run(true);
        assert!(dbl.total_seconds() < seq.total_seconds());
        assert!(dbl.efficiency() > seq.efficiency());
    }

    #[test]
    fn host_build_rejected_for_offload() {
        let mut sys = HetSystem::new(HetSystemConfig::default());
        let host_build = Benchmark::MatMul.build(&TargetEnv::host_m4());
        assert!(matches!(
            sys.offload(&host_build, &OffloadOptions::default()),
            Err(OffloadError::NotAccelBuild { .. })
        ));
    }

    #[test]
    fn run_on_host_baseline() {
        let sys = HetSystem::new(HetSystemConfig::default());
        let build = ulp_kernels::matmul::build_sized(
            ulp_kernels::matmul::MatVariant::Char,
            &TargetEnv::host_m4(),
            16,
        );
        let host = sys.run_on_host(&build).unwrap();
        assert!(host.cycles > 0 && host.energy_joules > 0.0);
    }

    #[test]
    fn offload_beats_host_on_compute_heavy_kernels() {
        // The headline claim, end to end: with enough iterations per
        // offload, the heterogeneous system outruns the host.
        let mut sys = HetSystem::new(HetSystemConfig::default());
        let accel = Benchmark::Cnn.build(&TargetEnv::pulp_parallel());
        let host_build = Benchmark::Cnn.build(&TargetEnv::host_m4());
        let host = sys.run_on_host(&host_build).unwrap();
        let rep = sys
            .offload(
                &accel,
                &OffloadOptions {
                    iterations: 32,
                    ..Default::default()
                },
            )
            .unwrap();
        let per_iter = rep.total_seconds() / 32.0;
        assert!(
            per_iter < host.seconds / 5.0,
            "offloaded CNN {per_iter:.2e}s/iter should be ≫5× faster than host {:.2e}s",
            host.seconds
        );
    }

    #[test]
    fn slow_host_clock_throttles_the_link() {
        // Fig. 5b's plateau: the SPI clock follows the MCU clock.
        let build = small_build();
        let eff_at = |mcu_hz: f64| {
            let cfg = HetSystemConfig {
                mcu_freq_hz: mcu_hz,
                ..HetSystemConfig::default()
            };
            let mut sys = HetSystem::new(cfg);
            sys.offload(
                &build,
                &OffloadOptions {
                    iterations: 64,
                    ..Default::default()
                },
            )
            .unwrap()
            .efficiency()
        };
        assert!(eff_at(1.0e6) < eff_at(16.0e6));
    }

    #[test]
    fn compute_phase_power_is_sub_10mw_by_default() {
        let sys = HetSystem::new(HetSystemConfig::default());
        let act = ulp_power::busy_activity(4, 8);
        let p = sys.compute_phase_power_watts(&act);
        assert!(
            p < 10.0e-3,
            "default operating point draws {:.2} mW",
            p * 1e3
        );
    }

    #[test]
    fn independent_link_clock_removes_the_slow_host_penalty() {
        // §V: "a low-power, high-throughput SPI link that is not tied to
        // the MCU core frequency … completely removes the bottleneck."
        let build = small_build();
        let mut tied_sys = HetSystem::new(HetSystemConfig {
            mcu_freq_hz: 2.0e6,
            ..HetSystemConfig::default()
        });
        let cost = tied_sys.measure_cost(&build).unwrap();
        let opts = OffloadOptions {
            iterations: 32,
            ..Default::default()
        };
        let tied = tied_sys.predict(&cost, &opts, true);

        let free_sys = HetSystem::new(HetSystemConfig {
            mcu_freq_hz: 2.0e6,
            link_clocking: LinkClocking::Independent { spi_hz: 25.0e6 },
            ..HetSystemConfig::default()
        });
        let free = free_sys.predict(&cost, &opts, true);
        assert!(free.input_seconds < tied.input_seconds / 5.0);
        assert!(free.efficiency() > tied.efficiency() * 3.0);
        // Compute is untouched.
        assert!((free.compute_seconds - tied.compute_seconds).abs() < 1e-15);
    }

    #[test]
    fn dvfs_boost_speeds_transfers_and_costs_host_energy() {
        // §IV-B: "the MCU frequency might be raised for enough time to
        // efficiently perform the data exchange."
        let build = small_build();
        let mut base_sys = HetSystem::new(HetSystemConfig {
            mcu_freq_hz: 4.0e6,
            ..HetSystemConfig::default()
        });
        let cost = base_sys.measure_cost(&build).unwrap();
        let opts = OffloadOptions {
            iterations: 8,
            ..Default::default()
        };
        let base = base_sys.predict(&cost, &opts, true);

        let boosted_sys = HetSystem::new(HetSystemConfig {
            mcu_freq_hz: 4.0e6,
            link_clocking: LinkClocking::BoostedMcu { mcu_hz: 32.0e6 },
            ..HetSystemConfig::default()
        });
        let boosted = boosted_sys.predict(&cost, &opts, true);
        assert!((boosted.input_seconds - base.input_seconds / 8.0).abs() < 1e-9);
        assert!(boosted.total_seconds() < base.total_seconds());
        // Energy per transferred byte rises with the boost (P ∝ f but the
        // time shrinks ∝ 1/f, so the transfer energy is roughly constant;
        // what must hold is that boosting never *reduces* host energy per
        // transfer second).
        assert!(boosted.mcu_energy_joules > 0.0);
    }

    #[test]
    fn sensor_direct_bypasses_the_link_for_inputs() {
        // §V: "bring data from the sensor directly to the internal memory
        // of the accelerator."
        let build = small_build();
        let mut sys = HetSystem::new(HetSystemConfig {
            mcu_freq_hz: 2.0e6, // slow host: the link is the bottleneck
            ..HetSystemConfig::default()
        });
        let cost = sys.measure_cost(&build).unwrap();
        let via_link = sys.predict(
            &cost,
            &OffloadOptions {
                iterations: 16,
                ..Default::default()
            },
            true,
        );
        let direct = sys.predict(
            &cost,
            &OffloadOptions {
                iterations: 16,
                sensor_direct: true,
                ..Default::default()
            },
            true,
        );
        assert!(direct.input_seconds < via_link.input_seconds / 10.0);
        assert!(direct.efficiency() > via_link.efficiency());
        // Outputs still travel over the link.
        assert!((direct.output_seconds - via_link.output_seconds).abs() < 1e-12);
        assert!(direct.link_energy_joules < via_link.link_energy_joules);
        // The host sleeps through the sensor fill: less host energy.
        assert!(direct.mcu_energy_joules < via_link.mcu_energy_joules);
    }

    #[test]
    fn host_task_gains_cycles_at_run_power() {
        // §V: "an additional, separate task to be performed on the host
        // at the same time."
        let build = small_build();
        let mut sys = HetSystem::new(HetSystemConfig::default());
        let cost = sys.measure_cost(&build).unwrap();
        let idle = sys.predict(
            &cost,
            &OffloadOptions {
                iterations: 8,
                ..Default::default()
            },
            true,
        );
        let tasked = sys.predict(
            &cost,
            &OffloadOptions {
                iterations: 8,
                host_task: true,
                ..Default::default()
            },
            true,
        );
        assert_eq!(idle.host_task_cycles, 0);
        assert!(tasked.host_task_cycles > 0);
        // Same wall clock, more host energy (run vs sleep power).
        assert!((tasked.total_seconds() - idle.total_seconds()).abs() < 1e-15);
        assert!(tasked.mcu_energy_joules > idle.mcu_energy_joules);
        // The gained cycles equal compute time at the host clock.
        let expect = (tasked.compute_seconds * sys.config().mcu_freq_hz) as u64;
        assert_eq!(tasked.host_task_cycles, expect);
    }

    #[test]
    #[should_panic(expected = "cannot reach")]
    fn overclocked_accelerator_rejected() {
        let cfg = HetSystemConfig {
            pulp_vdd: 0.5,
            pulp_freq_hz: 400.0e6,
            ..HetSystemConfig::default()
        };
        let _ = HetSystem::new(cfg);
    }

    // ---- resilience ----------------------------------------------------

    fn faulty_config(fault: FaultConfig) -> HetSystemConfig {
        HetSystemConfig {
            fault,
            ..HetSystemConfig::default()
        }
    }

    #[test]
    fn inactive_injector_reports_are_bit_identical_to_predict() {
        // The zero-overhead guarantee: constructing the system with any
        // all-zero fault config takes the exact fault-free path.
        let build = small_build();
        let opts = OffloadOptions {
            iterations: 8,
            ..Default::default()
        };
        let mut plain = HetSystem::new(HetSystemConfig::default());
        let mut cfged = HetSystem::new(faulty_config(FaultConfig::default()));
        let a = plain.offload(&build, &opts).unwrap();
        let b = cfged.offload(&build, &opts).unwrap();
        assert_eq!(a.total_seconds().to_bits(), b.total_seconds().to_bits());
        assert_eq!(
            a.total_energy_joules().to_bits(),
            b.total_energy_joules().to_bits()
        );
        assert!(!b.resilience.any());
    }

    #[test]
    fn negligible_fault_rates_match_the_healthy_prediction() {
        // An *active* injector whose faults essentially never fire must
        // converge on the fault-free numbers (same formulas, no events).
        let build = small_build();
        let opts = OffloadOptions {
            iterations: 4,
            ..Default::default()
        };
        let mut plain = HetSystem::new(HetSystemConfig::default());
        let healthy = plain.offload(&build, &opts).unwrap();
        let mut sys = HetSystem::new(faulty_config(FaultConfig {
            seed: 7,
            bit_error_rate: 1e-18,
            ..FaultConfig::default()
        }));
        let rep = sys.offload(&build, &opts).unwrap();
        assert_eq!(rep.resilience.retransmissions, 0);
        assert!((rep.total_seconds() - healthy.total_seconds()).abs() < 1e-12);
        assert!((rep.total_energy_joules() - healthy.total_energy_joules()).abs() < 1e-15);
    }

    #[test]
    fn low_ber_offload_completes_cleanly() {
        // Acceptance scenario: at BER ≤ 1e-6 a small offload completes —
        // the output was verified against the golden reference inside
        // measure_cost — without ever falling back to the host.
        let build = small_build();
        let opts = OffloadOptions {
            iterations: 16,
            ..Default::default()
        };
        let mut sys = HetSystem::new(faulty_config(FaultConfig {
            seed: 0xBEE,
            bit_error_rate: 1e-6,
            ..FaultConfig::default()
        }));
        let rep = sys.offload(&build, &opts).unwrap();
        assert!(!rep.resilience.fell_back_to_host);
        assert_eq!(rep.iterations, 16);
    }

    #[test]
    fn moderate_ber_survives_via_retries() {
        // A noisier link: corruptions definitely strike, retransmissions
        // absorb them all, and the recovery surcharge is measurable.
        let build = small_build();
        let opts = OffloadOptions {
            iterations: 16,
            ..Default::default()
        };
        let mut sys = HetSystem::new(faulty_config(FaultConfig {
            seed: 0xBEE,
            bit_error_rate: 2e-5,
            ..FaultConfig::default()
        }));
        let rep = sys.offload(&build, &opts).unwrap();
        assert!(!rep.resilience.fell_back_to_host);
        assert!(
            rep.resilience.crc_errors_detected > 0,
            "1e-6 BER over dozens of kB must corrupt at least one frame"
        );
        assert_eq!(
            rep.resilience.retransmissions,
            rep.resilience.crc_errors_detected
        );
        assert!(rep.resilience.extra_seconds > 0.0);
        assert!(rep.resilience.extra_energy_joules > 0.0);
        // The healthy portion of the ledger is undisturbed.
        let mut plain = HetSystem::new(HetSystemConfig::default());
        let healthy = plain.offload(&build, &opts).unwrap();
        assert!((rep.compute_seconds - healthy.compute_seconds).abs() < 1e-15);
        assert!((rep.input_seconds - healthy.input_seconds).abs() < 1e-15);
        assert!(rep.total_seconds() > healthy.total_seconds());
    }

    #[test]
    fn same_seed_and_policy_reproduce_identical_reports() {
        let build = small_build();
        let opts = OffloadOptions {
            iterations: 8,
            ..Default::default()
        };
        let fault = FaultConfig {
            seed: 42,
            bit_error_rate: 2e-6,
            drop_rate: 1e-3,
            ..FaultConfig::default()
        };
        let run = || {
            let mut sys = HetSystem::new(faulty_config(fault));
            sys.offload(&build, &opts).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.total_seconds().to_bits(), b.total_seconds().to_bits());
        assert_eq!(
            a.total_energy_joules().to_bits(),
            b.total_energy_joules().to_bits()
        );
    }

    #[test]
    fn hang_trips_watchdog_and_falls_back_to_host() {
        // Acceptance scenario: a stuck end-of-computation wire trips the
        // watchdog on every attempt; with a host build available the
        // offload degrades gracefully and reports the (worse) cost.
        let build = small_build();
        let host_build = ulp_kernels::matmul::build_sized(
            ulp_kernels::matmul::MatVariant::Char,
            &TargetEnv::host_m4(),
            16,
        );
        let mut sys = HetSystem::new(faulty_config(FaultConfig {
            seed: 1,
            stuck_eoc: true,
            ..FaultConfig::default()
        }));
        let opts = OffloadOptions {
            iterations: 4,
            ..Default::default()
        };
        let rep = sys
            .offload_with_fallback(&build, &host_build, &opts)
            .unwrap();
        assert!(rep.resilience.fell_back_to_host);
        assert_eq!(
            rep.resilience.fallback_iterations, 4,
            "no iteration completed"
        );
        assert_eq!(
            rep.resilience.watchdog_trips,
            u64::from(opts.policy.max_retries) + 1
        );
        assert!(rep.resilience.fallback_seconds > 0.0);
        assert!(rep.resilience.fallback_energy_joules > 0.0);
        // Degraded: slower than the healthy offload would have been.
        let mut plain = HetSystem::new(HetSystemConfig::default());
        let healthy = plain.offload(&build, &opts).unwrap();
        assert!(rep.total_seconds() > healthy.total_seconds());
        // The next offload must re-ship the binary: nothing is resident.
        sys.set_fault_config(FaultConfig::default());
        let after = sys.offload(&build, &opts).unwrap();
        assert!(after.binary_seconds > 0.0);
    }

    #[test]
    fn hang_without_fallback_is_a_watchdog_timeout() {
        let build = small_build();
        let mut sys = HetSystem::new(faulty_config(FaultConfig {
            seed: 1,
            stuck_eoc: true,
            ..FaultConfig::default()
        }));
        let err = sys.offload(&build, &OffloadOptions::default()).unwrap_err();
        assert!(matches!(err, OffloadError::WatchdogTimeout { .. }), "{err}");
        // Display + Error trait are wired up.
        let msg = format!("{err}");
        assert!(msg.contains("watchdog"), "{msg}");
    }

    #[test]
    fn zero_retries_surface_the_first_crc_error() {
        let build = small_build();
        let mut sys = HetSystem::new(faulty_config(FaultConfig {
            seed: 3,
            // Corrupt every frame: the very first transport fails.
            bit_error_rate: 1e-3,
            ..FaultConfig::default()
        }));
        let opts = OffloadOptions {
            policy: OffloadPolicy {
                max_retries: 0,
                fallback_to_host: false,
                ..OffloadPolicy::default()
            },
            ..Default::default()
        };
        let err = sys.offload(&build, &opts).unwrap_err();
        assert!(matches!(err, OffloadError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn undeliverable_link_exhausts_retries() {
        let build = small_build();
        let mut sys = HetSystem::new(faulty_config(FaultConfig {
            seed: 9,
            drop_rate: 1.0, // the link delivers nothing, ever
            ..FaultConfig::default()
        }));
        let opts = OffloadOptions {
            policy: OffloadPolicy {
                fallback_to_host: false,
                ..OffloadPolicy::default()
            },
            ..Default::default()
        };
        let err = sys.offload(&build, &opts).unwrap_err();
        match err {
            OffloadError::RetriesExhausted { attempts } => assert_eq!(attempts, 4),
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        assert!(sys.fault_stats().frames_dropped >= 4);
    }

    #[test]
    fn late_eoc_extends_sleep_but_completes() {
        let build = small_build();
        let mut sys = HetSystem::new(faulty_config(FaultConfig {
            seed: 5,
            late_eoc_rate: 1.0,
            late_eoc_cycles: 10_000,
            ..FaultConfig::default()
        }));
        let opts = OffloadOptions {
            iterations: 4,
            ..Default::default()
        };
        let rep = sys.offload(&build, &opts).unwrap();
        assert!(!rep.resilience.fell_back_to_host);
        assert_eq!(
            rep.resilience.watchdog_trips, 0,
            "late ≠ hung at this magnitude"
        );
        assert!(
            rep.resilience.extra_seconds > 0.0,
            "the host slept through the delay"
        );
        let mut plain = HetSystem::new(HetSystemConfig::default());
        let healthy = plain.offload(&build, &opts).unwrap();
        assert!((rep.compute_seconds - healthy.compute_seconds).abs() < 1e-15);
    }

    #[test]
    fn backoff_schedule_is_exponential_when_asked() {
        let pol = OffloadPolicy {
            backoff_cycles: 64,
            ..OffloadPolicy::default()
        };
        assert_eq!(pol.backoff_for(0), 64);
        assert_eq!(pol.backoff_for(1), 128);
        assert_eq!(pol.backoff_for(3), 512);
        let flat = OffloadPolicy {
            exponential_backoff: false,
            ..pol
        };
        assert_eq!(flat.backoff_for(3), 64);
        // Saturates instead of overflowing.
        assert_eq!(
            OffloadPolicy {
                backoff_cycles: u64::MAX,
                ..pol
            }
            .backoff_for(40),
            u64::MAX
        );
    }
}
