//! The coupled heterogeneous system: host MCU + SPI link + PULP cluster.

use std::error::Error;
use std::fmt;

use ulp_cluster::{Cluster, ClusterActivity, ClusterConfig, L2_BASE};
use ulp_kernels::runner::MAX_KERNEL_CYCLES;
use ulp_kernels::{BufferInit, KernelBuild};
use ulp_link::{
    EocOutcome, FaultConfig, FaultInjector, GpioEvent, LinkClocking, SpiLink, SpiWidth, TxOutcome,
    FRAME_OVERHEAD,
};
use ulp_mcu::{datasheet, Mcu, McuDevice};
use ulp_power::PulpPowerModel;
use ulp_trace::{Component, EventKind, Overlap, PhaseKind, Tracer};

use crate::pipeline::{self, ChunkOp, PipelineConfig, PipelineJob, Schedule};
use crate::region::{MapDir, TargetRegion};

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
    /// Host cycles to pause before the first retransmission; the pause
    /// doubles after every failed attempt (bounded exponential backoff).
    pub backoff_cycles: u64,
    /// Host-side watchdog armed before each WFE sleep, in host cycles.
    /// `0` selects the automatic deadline: 4× the expected compute time
    /// (but at least [`OffloadPolicy::MIN_WATCHDOG_CYCLES`]), so healthy
    /// runs never trip it.
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
            watchdog_cycles: 0,
            fallback_to_host: true,
        }
    }
}

impl OffloadPolicy {
    /// Floor of the automatic watchdog deadline, in host cycles, so even
    /// a trivial run arms a real window.
    pub const MIN_WATCHDOG_CYCLES: u64 = 1_000;

    /// Backoff pause (host cycles) before retransmission `attempt`
    /// (0-based).
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        self.backoff_cycles
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
    }

    /// Walks one frame of `wire_bytes` across the faulty link under this
    /// policy's retry budget: one injector draw per attempt, a
    /// retransmission after every failed attempt until the frame gets
    /// through or `max_retries` retransmissions have failed too.
    ///
    /// This is the one frame-recovery walk; the offload runtime and the
    /// serving layer each price its result in their own units. A lost
    /// frame costs what a NACKed one does: ACK and NACK ride the 48-bit
    /// turnaround of the same master-clocked transaction, so the host
    /// learns of a drop at the same point as of a corruption and no timer
    /// runs. Retransmission `i` (0-based) therefore costs one frame time
    /// plus [`backoff_for(i)`](Self::backoff_for), whatever the failure.
    pub fn deliver(&self, injector: &mut FaultInjector, wire_bytes: usize) -> FrameDelivery {
        let mut d = FrameDelivery::default();
        loop {
            match injector.assess(wire_bytes) {
                TxOutcome::Delivered => {
                    d.delivered = true;
                    return d;
                }
                // The CRC aliased: the receiver ACKs corrupt data, and the
                // damage shows up (if at all) when outputs are verified.
                TxOutcome::Corrupted { escaped: true } => {
                    d.delivered = true;
                    d.escaped = true;
                    return d;
                }
                TxOutcome::Corrupted { escaped: false } | TxOutcome::Truncated => d.detected += 1,
                TxOutcome::Dropped => d.dropped += 1,
            }
            if d.retransmissions == self.max_retries {
                return d;
            }
            d.retransmissions += 1;
        }
    }

    /// Waits out one run's end-of-computation event under this policy's
    /// watchdog: one injector draw per run attempt. A hang, or an event
    /// `on_time` rejects because it lands after the armed watchdog fires,
    /// trips the watchdog and restarts the run, until an event is
    /// accepted or `max_retries` restarts have tripped too.
    ///
    /// This is the one end-of-computation walk. `on_time` gets the
    /// event's lateness in accelerator cycles (0 for an on-time event)
    /// and decides in the caller's own units, a tie going to the event;
    /// the offload runtime and the serving layer each price the result.
    pub fn await_eoc(
        &self,
        injector: &mut FaultInjector,
        on_time: impl Fn(u64) -> bool,
    ) -> EocWait {
        let mut w = EocWait::default();
        while !w.completed && w.trips <= u64::from(self.max_retries) {
            match injector.eoc() {
                EocOutcome::OnTime if on_time(0) => w.completed = true,
                EocOutcome::Late(cycles) if on_time(cycles) => {
                    w.late_cycles = Some(cycles);
                    w.completed = true;
                }
                _ => w.trips += 1,
            }
        }
        w
    }
}

/// What one run's walk through [`OffloadPolicy::await_eoc`] came to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EocWait {
    /// Watchdog trips, each restarting the run: at most the policy's
    /// `max_retries + 1`, which only a run that never completed reaches.
    pub trips: u64,
    /// How late (accelerator cycles) the accepted event fired; `None`
    /// when it fired on time or none was accepted.
    pub late_cycles: Option<u64>,
    /// An event was accepted within the retry budget.
    pub completed: bool,
}

/// What one frame's walk through [`OffloadPolicy::deliver`] came to.
/// Every failed attempt is either `detected` or `dropped`, so
/// `detected + dropped == retransmissions + !delivered`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FrameDelivery {
    /// Attempts after the first, at most the policy's `max_retries`.
    pub retransmissions: u32,
    /// Failed attempts the receiver caught (CRC mismatch or truncation)
    /// and answered with a NACK.
    pub detected: u32,
    /// Failed attempts that were lost whole.
    pub dropped: u32,
    /// The accepted attempt was corrupted, but its damage aliased the
    /// CRC-16 (probability 2⁻¹⁶ per corrupted frame).
    pub escaped: bool,
    /// The frame got through within the retry budget.
    pub delivered: bool,
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

/// Result of planning a queue with [`HetSystem::plan_queue`].
#[derive(Clone, Debug)]
pub struct QueueReport {
    /// Per-job reports, in queue order — each identical to what
    /// [`HetSystem::predict`] reports for the job with the queue's
    /// pipeline config.
    pub reports: Vec<OffloadReport>,
    /// Wall-clock of running every job strictly serialized (no overlap of
    /// any kind), the baseline of the speedup claim.
    pub serialized_seconds: f64,
    /// Modeled wall-clock of the queue as planned (never above
    /// `serialized_seconds`).
    pub total_seconds: f64,
    /// Concurrency accounting of the shared cross-job schedule (all-zero
    /// when the queue is planned serialized).
    pub overlap: Overlap,
}

/// What a one-job queue costs, as [`HetSystem::price_job`] reports it:
/// the three figures a dispatch planner needs from
/// [`HetSystem::plan_queue`], bit for bit, without its reports.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct JobPrice {
    /// The queue's [`QueueReport::total_seconds`].
    pub total_seconds: f64,
    /// The job's [`OffloadReport::compute_seconds`].
    pub compute_seconds: f64,
    /// The job's [`OffloadReport::total_energy_joules`].
    pub energy_joules: f64,
}

/// Running totals of a planned queue, shared by [`HetSystem::plan_queue`]
/// and [`HetSystem::price_job`] so their wall-clock figures cannot drift.
#[derive(Default)]
struct QueueTotals {
    /// Every phase of every job end to end.
    serialized: f64,
    /// The GPIO handshakes, which the engine schedule does not model.
    sync: f64,
    /// The jobs back to back, each with its own overlap.
    sequential: f64,
}

impl QueueTotals {
    /// Appends one job's predicted report.
    fn add(&mut self, report: &OffloadReport) {
        self.serialized += report.serialized_seconds();
        self.sync += report.sync_seconds;
        self.sequential += report.total_seconds();
    }

    /// The shared schedule's wall-clock: its makespan plus the handshakes
    /// the engine does not model.
    fn pipelined(&self, makespan_ns: u64) -> f64 {
        makespan_ns as f64 / 1e9 + self.sync
    }

    /// The queue's wall-clock. With the pipeline on (`Some(makespan)`)
    /// the shared schedule subsumes each job's internal overlap, clamped
    /// so queueing never loses to running the offloads back to back;
    /// with it off, the offloads run back to back.
    fn total(&self, makespan_ns: Option<u64>) -> f64 {
        match makespan_ns {
            Some(m) => self.pipelined(m).min(self.sequential).min(self.serialized),
            None => self.sequential,
        }
    }
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
    /// Frames lost outright: no bytes arrived, so no ACK came back, and
    /// each loss drew a retransmission just as a NACK does.
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
#[derive(Clone, Debug, PartialEq, Default)]
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

    /// Every phase end to end, nothing overlapped.
    fn serialized_seconds(&self) -> f64 {
        self.binary_seconds
            + self.input_seconds
            + self.output_seconds
            + self.compute_seconds
            + self.sync_seconds
    }

    /// The hidden seconds of this serialized report once a pipelined
    /// schedule ending at `makespan_ns` is adopted, and whether the
    /// engine engaged: its gain over the same work back to back (GPIO
    /// handshakes excluded, the engine does not model them) replaces the
    /// legacy double-buffer credit only when it hides more.
    fn pipelined_overlap(&self, makespan_ns: u64) -> (f64, bool) {
        let legacy = self.overlapped_seconds;
        let gain =
            self.binary_seconds + self.input_seconds + self.output_seconds + self.compute_seconds
                - makespan_ns as f64 / 1e9;
        (legacy.max(gain).max(0.0), gain > legacy && gain > 0.0)
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
    /// cluster (cores, TCDM, DMA, I$), the host offload phases, and the
    /// SPI link's frames on the host clock. A disabled tracer (the
    /// default) detaches instrumentation; every report stays
    /// bit-identical either way.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.cluster.set_tracer(tracer.clone());
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
        let mut report = OffloadReport {
            activity: cost.activity.clone(),
            ..self.serialized_report(cost, opts, include_binary)
        };
        // The pipelined engine: schedule the same work chunked and
        // double-buffered, and adopt whichever hides more — the phase
        // fields stay at their serialized values either way, so a
        // pipelined report differs from its serialized twin only in
        // `overlapped_seconds` and `overlap`.
        let pipe = opts.pipeline.normalized();
        if pipe.enabled {
            let mut sched = Schedule::new(pipe.window);
            pipeline::schedule_job(
                &mut sched,
                &self.pipeline_job(cost, opts, include_binary, pipe),
            );
            let (overlapped_seconds, engaged) = report.pipelined_overlap(sched.makespan());
            report.overlapped_seconds = overlapped_seconds;
            report.overlap = Overlap {
                engaged,
                ..sched.overlap()
            };
        }
        report
    }

    /// [`HetSystem::predict`]'s report before the pipelined engine runs:
    /// every phase and energy figure, the legacy double-buffer overlap,
    /// and no activity record (a price does not read it, and cloning it
    /// allocates).
    fn serialized_report(
        &self,
        cost: &OffloadCost,
        opts: &OffloadOptions,
        include_binary: bool,
    ) -> OffloadReport {
        let iterations = opts.iterations.max(1);
        let mcu_hz = self.config.mcu_freq_hz;
        let f_pulp = self.config.pulp_freq_hz;

        let (spi_drive_hz, _) = self.link_clocks();

        // Each mapped buffer travels in one Frame (10-byte header).
        let binary_seconds = if include_binary {
            self.link
                .transfer_seconds(cost.offload_bytes + 10, spi_drive_hz)
        } else {
            0.0
        };
        let t_in: f64 = if opts.sensor_direct {
            // Inputs stream from the sensor straight into the accelerator
            // memory over the dedicated interface; the link is untouched.
            cost.input_frames.iter().sum::<usize>() as f64 / self.config.sensor_bandwidth
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

        let mut report = OffloadReport {
            iterations,
            binary_seconds,
            input_seconds,
            output_seconds,
            compute_seconds,
            sync_seconds,
            overlapped_seconds: legacy_overlap,
            cycles_cold: cost.cycles_cold,
            cycles_warm: cost.cycles_warm,
            ..OffloadReport::default()
        };
        self.charge_energy(&mut report, cost, opts, include_binary, iterations);
        report
    }

    /// Fills in the energy of `report`'s phase times, the one ledger
    /// [`HetSystem::predict`] and the fault-aware walk share: the host
    /// drives every transfer phase and sleeps (or runs its own task)
    /// through compute, the accelerator leaks while transfers run, and
    /// the link carries the binary plus `link_iterations` iterations of
    /// data.
    fn charge_energy(
        &self,
        report: &mut OffloadReport,
        cost: &OffloadCost,
        opts: &OffloadOptions,
        include_binary: bool,
        link_iterations: usize,
    ) {
        let mcu_hz = self.config.mcu_freq_hz;
        let (_, transfer_mcu_hz) = self.link_clocks();
        // Phases the MCU actively drives; with a direct sensor interface
        // the input phase does not involve the host at all.
        let mcu_driven_transfers = report.binary_seconds
            + if opts.sensor_direct {
                0.0
            } else {
                report.input_seconds
            }
            + report.output_seconds
            + report.sync_seconds;
        let mcu_compute_phase_power = if opts.host_task {
            self.config.mcu.run_power_w(mcu_hz)
        } else {
            self.config.mcu.sleep_power_w()
        };
        report.mcu_energy_joules = self.config.mcu.run_power_w(transfer_mcu_hz)
            * mcu_driven_transfers
            + mcu_compute_phase_power * report.compute_seconds;
        report.host_task_cycles = if opts.host_task {
            (report.compute_seconds * mcu_hz) as u64
        } else {
            0
        };
        let pulp_compute_energy = self.config.power.total_power_w(
            self.config.pulp_freq_hz,
            self.config.pulp_vdd,
            &cost.activity,
        ) * report.compute_seconds;
        let pulp_idle_energy =
            self.config.power.leakage_w(self.config.pulp_vdd) * mcu_driven_transfers;
        report.pulp_energy_joules = pulp_compute_energy + pulp_idle_energy;
        let input_bytes: usize = if opts.sensor_direct {
            0
        } else {
            cost.input_frames.iter().sum()
        };
        let link_data_bytes = input_bytes + cost.output_frames.iter().sum::<usize>();
        let link_bytes = if include_binary {
            cost.offload_bytes as f64
        } else {
            0.0
        } + link_iterations as f64 * link_data_bytes as f64;
        report.link_energy_joules = link_bytes * 8.0 * SpiLink::DEFAULT_ENERGY_PER_BIT;
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
        let drive_hz = self.config.link_drive_hz();
        // With the pipelined engine on, every payload crosses the link as
        // a train of chunk frames; the statistics record those frames.
        let pipe = opts.pipeline.normalized();

        // Program offload (binary + constant maps), once per resident
        // kernel.
        let ship_binary =
            opts.force_reload || self.resident_kernel.as_deref() != Some(build.name.as_str());
        if ship_binary {
            for len in pipe.frame_lens(cost.offload_bytes) {
                let _ = self.link.send(len + FRAME_OVERHEAD, drive_hz);
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
        // Record the per-iteration data transfers in the link statistics;
        // sensor-direct inputs never touch the link.
        let inputs: &[usize] = if opts.sensor_direct {
            &[]
        } else {
            &cost.input_frames
        };
        for _ in 0..opts.iterations.max(1) {
            for len in inputs {
                for chunk in pipe.frame_lens(*len) {
                    let _ = self.link.send(chunk + FRAME_OVERHEAD, drive_hz);
                }
            }
            for len in &cost.output_frames {
                for chunk in pipe.frame_lens(*len) {
                    let _ = self.link.receive(chunk + FRAME_OVERHEAD, drive_hz);
                }
            }
        }

        let faulty = self.injector.is_active();
        let result = if faulty {
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
            // A faulty run traced its frames on the fault walk's clock.
            self.emit_phases(report, (!faulty).then_some((&cost, inputs)));
            if report.overlap.any() {
                self.tracer.set_overlap(report.overlap);
            }
        }
        result
    }

    /// Records the invocation's phase decomposition (the paper's Fig. 4/5
    /// breakdown) as sequential spans on the host timeline, then advances
    /// the host epoch past this invocation.
    ///
    /// A healthy run also traces its link frames, given its cost and the
    /// input payloads that crossed the link: the binary (if it shipped)
    /// and each iteration's `map` payloads cross as one frame apiece, at
    /// the drive clock and back to back inside their phase span, where
    /// [`HetSystem::predict`] charges them.
    fn emit_phases(&self, report: &OffloadReport, healthy: Option<(&OffloadCost, &[usize])>) {
        if !self.tracer.is_enabled() {
            return;
        }
        let frames = |phase| {
            let Some((cost, inputs)) = healthy else {
                return Vec::new();
            };
            match phase {
                PhaseKind::Binary if report.binary_seconds > 0.0 => vec![cost.offload_bytes],
                PhaseKind::Input => inputs.repeat(report.iterations),
                PhaseKind::Output => cost.output_frames.repeat(report.iterations),
                _ => Vec::new(),
            }
        };
        let drive_hz = self.config.link_drive_hz();
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
            let mut t = 0.0;
            for len in frames(phase) {
                let wire = len + FRAME_OVERHEAD;
                let start = at + (t * 1e9) as u64;
                t += self.link.transfer_seconds(wire, drive_hz);
                let end = (at + (t * 1e9) as u64).min(at + ns);
                let kind = frame_event(phase == PhaseKind::Output, wire);
                self.tracer.emit(Component::Link, kind, start, end - start);
            }
            at += ns;
        }
        self.tracer
            .advance_host_epoch(((report.total_seconds() * 1e9) as u64).max(at));
    }

    /// Traces one WFE sleep of `cycles` host cycles entered `at` seconds
    /// into the offload, and the watchdog trip that ended it, if one did.
    fn trace_wfe(&self, at: f64, cycles: u64, tripped: bool) {
        let start = (at * 1e9) as u64;
        let slept = (cycles as f64 / self.config.mcu_freq_hz * 1e9) as u64;
        let host = |kind, at, dur| self.tracer.emit(Component::Host, kind, at, dur);
        host(EventKind::WfeSleep, start, slept);
        if tripped {
            host(EventKind::Watchdog, start + slept, 0);
        }
    }

    /// Walks one frame across the faulty link with
    /// [`OffloadPolicy::deliver`] and prices its recovery. The *first*
    /// transmission attempt is part of the healthy ledger (charged by the
    /// caller, identically to [`HetSystem::predict`]); everything here
    /// accounts only the surcharge: each retransmission's backoff pause
    /// and frame time.
    ///
    /// Each retransmission is traced on the fault walk's own clock — the
    /// healthy phase time charged so far (`healthy_seconds`) plus the
    /// surcharge so far — right after its backoff pause, so the spans of
    /// one offload follow each other instead of piling onto one instant.
    ///
    /// Acknowledgements themselves are free: ACK/NACK ride the existing
    /// 48-bit per-transaction turnaround phase of the full-duplex link.
    fn transport_frame(
        &mut self,
        wire_bytes: usize,
        policy: &OffloadPolicy,
        healthy_seconds: f64,
        res: &mut ResilienceStats,
    ) -> Result<(), OffloadError> {
        let d = policy.deliver(&mut self.injector, wire_bytes);
        res.retransmissions += u64::from(d.retransmissions);
        res.crc_errors_detected += u64::from(d.detected);
        res.crc_errors_escaped += u64::from(d.escaped);
        res.frames_dropped += u64::from(d.dropped);
        let mcu_hz = self.config.mcu_freq_hz;
        let (spi_drive_hz, transfer_mcu_hz) = self.link_clocks();
        let run_p = self.config.mcu.run_power_w(transfer_mcu_hz);
        let pulp_leak_p = self.config.power.leakage_w(self.config.pulp_vdd);
        let t_frame = self.link.transfer_seconds(wire_bytes, spi_drive_hz);
        let e_frame = wire_bytes as f64 * 8.0 * SpiLink::DEFAULT_ENERGY_PER_BIT;
        // The walk's clock in host ns, on the host timeline of this offload.
        let walk_ns = |extra: f64| ((healthy_seconds + extra) * 1e9) as u64;
        for i in 0..d.retransmissions {
            // Backoff pause before the retransmission: both dies idle.
            let pause = policy.backoff_for(i);
            let t_pause = pause as f64 / mcu_hz;
            res.backoff_cycles += pause;
            res.extra_seconds += t_pause;
            res.extra_energy_joules += (self.config.mcu.sleep_power_w() + pulp_leak_p) * t_pause;
            // The retransmission: its full frame time and energy.
            let resent_at = res.extra_seconds;
            res.extra_seconds += t_frame;
            res.extra_energy_joules += (run_p + pulp_leak_p) * t_frame + e_frame;
            if self.tracer.is_enabled() {
                let start = walk_ns(resent_at);
                self.tracer.emit(
                    Component::Link,
                    EventKind::Retry { attempt: i + 1 },
                    start,
                    walk_ns(res.extra_seconds) - start,
                );
            }
        }
        if d.delivered {
            Ok(())
        } else if policy.max_retries == 0 {
            Err(OffloadError::CrcMismatch {
                frame_bytes: wire_bytes,
            })
        } else {
            Err(OffloadError::RetriesExhausted {
                attempts: d.retransmissions + 1,
            })
        }
    }

    /// Charges one `len`-byte `map` payload's healthy link time to
    /// `phase_seconds`, as [`HetSystem::predict`] charges it (one frame,
    /// received when `rx`), then transports the frames it crosses the link
    /// in (chunks when the pipelined engine is on). `healthy_seconds` is
    /// the healthy phase time the walk charged before this payload; the
    /// payload's frame is traced there on the walk's clock, ahead of its
    /// retransmissions.
    fn transport_payload(
        &mut self,
        len: usize,
        rx: bool,
        opts: &OffloadOptions,
        healthy_seconds: f64,
        phase_seconds: &mut f64,
        res: &mut ResilienceStats,
    ) -> Result<(), OffloadError> {
        let wire = len + FRAME_OVERHEAD;
        let t_payload = self
            .link
            .transfer_seconds(wire, self.config.link_drive_hz());
        *phase_seconds += t_payload;
        let start = ((healthy_seconds + res.extra_seconds) * 1e9) as u64;
        let end = ((healthy_seconds + t_payload + res.extra_seconds) * 1e9) as u64;
        let kind = frame_event(rx, wire);
        self.tracer.emit(Component::Link, kind, start, end - start);
        for chunk in opts.pipeline.normalized().frame_lens(len) {
            self.transport_frame(
                chunk + FRAME_OVERHEAD,
                &opts.policy,
                healthy_seconds + t_payload,
                res,
            )?;
        }
        Ok(())
    }

    /// The fault-aware twin of [`HetSystem::predict`]: walks the offload
    /// phase by phase, drawing transport and event-wire outcomes from the
    /// injector. Healthy phases are charged exactly as `predict` charges
    /// them, and the overlap is `predict`'s for the iterations that
    /// completed; every recovery action lands in [`ResilienceStats`] on
    /// top.
    fn offload_resilient(
        &mut self,
        cost: &OffloadCost,
        opts: &OffloadOptions,
        include_binary: bool,
        host: Option<&HostReport>,
    ) -> Result<OffloadReport, OffloadError> {
        let iterations = opts.iterations.max(1);
        let policy = opts.policy;
        let mcu_hz = self.config.mcu_freq_hz;
        let f_pulp = self.config.pulp_freq_hz;
        let mcu_compute_p = if opts.host_task {
            self.config.mcu.run_power_w(mcu_hz)
        } else {
            self.config.mcu.sleep_power_w()
        };
        let pulp_active_p =
            self.config
                .power
                .total_power_w(f_pulp, self.config.pulp_vdd, &cost.activity);
        let pulp_leak_p = self.config.power.leakage_w(self.config.pulp_vdd);
        // A hung cluster still burns active power, unless its fetch-enable
        // wire is stuck and it never started.
        let pulp_hung_p = if self.injector.wire_stuck(GpioEvent::FetchEnable) {
            pulp_leak_p
        } else {
            pulp_active_p
        };

        let t_cold = cost.cycles_cold as f64 / f_pulp;
        let t_warm = cost.cycles_warm as f64 / f_pulp;
        let wd_cycles = if policy.watchdog_cycles > 0 {
            policy.watchdog_cycles
        } else {
            // Auto: 4× the expected (cold) compute time in host cycles, so
            // a healthy run never trips it.
            ((t_cold * mcu_hz * 4.0).ceil() as u64).max(OffloadPolicy::MIN_WATCHDOG_CYCLES)
        };
        let window = wd_cycles as f64 / mcu_hz;

        let mut res = ResilienceStats::default();
        // Healthy ledger — accumulated to match `predict` term for term.
        let mut binary_seconds = 0.0f64;
        let mut input_seconds = 0.0f64;
        let mut output_seconds = 0.0f64;
        let mut compute_seconds = 0.0f64;
        let mut sync_seconds = 0.0f64;
        let mut completed = 0usize;
        let mut failure: Option<OffloadError> = None;
        // The walk's own clock: the healthy phase time charged so far (the
        // recovery surcharge in `res` runs on top of it).
        macro_rules! healthy_seconds {
            () => {
                binary_seconds + input_seconds + compute_seconds + output_seconds + sync_seconds
            };
        }

        if include_binary {
            failure = self
                .transport_payload(
                    cost.offload_bytes,
                    false,
                    opts,
                    healthy_seconds!(),
                    &mut binary_seconds,
                    &mut res,
                )
                .err();
        }

        'iters: while failure.is_none() && completed < iterations {
            // -- inputs ---------------------------------------------------
            if opts.sensor_direct {
                // The dedicated sensor interface bypasses the faulty link.
                let input_bytes: usize = cost.input_frames.iter().sum();
                input_seconds += input_bytes as f64 / self.config.sensor_bandwidth;
            } else {
                for &len in &cost.input_frames {
                    if let Err(e) = self.transport_payload(
                        len,
                        false,
                        opts,
                        healthy_seconds!(),
                        &mut input_seconds,
                        &mut res,
                    ) {
                        failure = Some(e);
                        break 'iters;
                    }
                }
            }

            // -- compute, guarded by the WFE watchdog ---------------------
            // An event `late` accelerator cycles late wakes the host from
            // WFE `wake_at(late)` host cycles after it went to sleep.
            let t_iter = if completed == 0 { t_cold } else { t_warm };
            let event_host_cycles = (t_iter * mcu_hz).ceil() as u64;
            let wake_at = |late: u64| {
                event_host_cycles.saturating_add((late as f64 / f_pulp * mcu_hz).ceil() as u64)
            };
            let wait = policy.await_eoc(&mut self.injector, |late| wake_at(late) <= wd_cycles);
            // Each timeout window is surcharge.
            for _ in 0..wait.trips {
                self.trace_wfe(healthy_seconds!() + res.extra_seconds, wd_cycles, true);
                res.extra_seconds += window;
                res.extra_energy_joules += (mcu_compute_p + pulp_hung_p) * window;
            }
            res.watchdog_trips += wait.trips;
            if !wait.completed {
                failure = Some(OffloadError::WatchdogTimeout {
                    watchdog_cycles: wd_cycles,
                    attempts: u32::try_from(wait.trips).unwrap_or(u32::MAX),
                });
                break 'iters;
            }
            let late = wait.late_cycles.unwrap_or(0);
            self.trace_wfe(healthy_seconds!() + res.extra_seconds, wake_at(late), false);
            compute_seconds += t_iter;
            // A late event's delay is surcharge at compute power, kept apart
            // from the cycle-quantized race so an on-time event costs 0.
            let late_secs = late as f64 / f_pulp;
            res.extra_seconds += late_secs;
            res.extra_energy_joules += (mcu_compute_p + pulp_active_p) * late_secs;
            sync_seconds += 20.0 / mcu_hz;

            // -- outputs --------------------------------------------------
            for &len in &cost.output_frames {
                if let Err(e) = self.transport_payload(
                    len,
                    true,
                    opts,
                    healthy_seconds!(),
                    &mut output_seconds,
                    &mut res,
                ) {
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

        // Overlap is credited only for the iterations that completed on
        // the device, as `predict` would credit that many; a run that
        // completed none hides nothing.
        let (overlapped_seconds, overlap) = if completed > 0 {
            let done = OffloadOptions {
                iterations: completed,
                ..*opts
            };
            let healthy = self.predict(cost, &done, include_binary);
            (healthy.overlapped_seconds, healthy.overlap)
        } else {
            (0.0, Overlap::default())
        };

        // The healthy ledger's energy is `predict`'s for these phase
        // times, with data crossing the link for the completed iterations.
        let mut report = OffloadReport {
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
            resilience: res,
            overlap,
            ..OffloadReport::default()
        };
        self.charge_energy(&mut report, cost, opts, include_binary, completed);
        Ok(report)
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

    /// Plans an ordered sequence of offload jobs through one shared
    /// pipeline schedule **without touching any simulator state** — no
    /// cluster runs, no link statistics, no residency changes. Each job
    /// carries a measured [`OffloadCost`] (see [`HetSystem::measure_cost`])
    /// plus whether the program offload is paid, so queues can be planned
    /// against cached costs. A caller that needs only the price of one
    /// job, not its reports and overlap accounting, uses
    /// [`HetSystem::price_job`].
    ///
    /// With the pipeline disabled the jobs are planned strictly
    /// serialized and `total_seconds == serialized_seconds`.
    #[must_use]
    pub fn plan_queue(&self, jobs: &[PlannedJob<'_>], pipe: PipelineConfig) -> QueueReport {
        let norm = pipe.normalized();
        let mut sched = Schedule::new(norm.window);
        let mut totals = QueueTotals::default();
        let mut reports: Vec<OffloadReport> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let mut o = job.opts;
            o.pipeline = pipe;
            let report = self.predict(job.cost, &o, job.ship_binary);
            totals.add(&report);
            if norm.enabled {
                let engine_job = self.pipeline_job(job.cost, &o, job.ship_binary, norm);
                pipeline::schedule_job(&mut sched, &engine_job);
            }
            reports.push(report);
        }

        let makespan = norm.enabled.then(|| sched.makespan());
        let overlap = match makespan {
            Some(m) => Overlap {
                engaged: totals.pipelined(m) < totals.serialized,
                ..sched.overlap()
            },
            None => Overlap::default(),
        };
        QueueReport {
            reports,
            serialized_seconds: totals.serialized,
            total_seconds: totals.total(makespan),
            overlap,
        }
    }

    /// Prices one job as [`HetSystem::plan_queue`] would plan it alone:
    /// the queue's `total_seconds` and the job's `compute_seconds` and
    /// `total_energy_joules()`, bit for bit, for any job `plan_queue`
    /// takes. Like `plan_queue`, it forces `opts.pipeline` to `pipe`.
    ///
    /// It shares `predict`'s serialized report and overlap rule and
    /// `plan_queue`'s totals, but runs the pipeline schedule once, timing
    /// only: no busy intervals are recorded and no overlap accounting is
    /// computed, so the price costs a fraction of the plan. A serving
    /// layer prices every dispatch shape through it.
    #[must_use]
    pub fn price_job(&self, job: &PlannedJob<'_>, pipe: PipelineConfig) -> JobPrice {
        let mut opts = job.opts;
        opts.pipeline = pipe;
        let mut report = self.serialized_report(job.cost, &opts, job.ship_binary);
        let norm = pipe.normalized();
        // A lone job's own schedule is the whole queue's schedule, so one
        // makespan prices both the job's overlap and the queue total.
        let makespan = norm.enabled.then(|| {
            let mut sched = Schedule::timing_only(norm.window);
            let engine_job = self.pipeline_job(job.cost, &opts, job.ship_binary, norm);
            pipeline::schedule_job(&mut sched, &engine_job);
            sched.makespan()
        });
        if let Some(m) = makespan {
            report.overlapped_seconds = report.pipelined_overlap(m).0;
        }
        let mut totals = QueueTotals::default();
        totals.add(&report);
        JobPrice {
            total_seconds: totals.total(makespan),
            compute_seconds: report.compute_seconds,
            energy_joules: report.total_energy_joules(),
        }
    }
}

/// The Link-track event of one `wire_bytes` frame: received by the host
/// when `rx`, else sent.
fn frame_event(rx: bool, wire_bytes: usize) -> EventKind {
    let bytes = wire_bytes as u32;
    if rx {
        EventKind::FrameRx { bytes }
    } else {
        EventKind::FrameTx { bytes }
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

    #[test]
    fn planned_queues_never_lose_to_serialized_and_report_each_job_as_predicted() {
        let env = TargetEnv::pulp_parallel();
        let mut sys = HetSystem::new(HetSystemConfig::default());
        let mut measure = |build: KernelBuild| sys.measure_cost(&build).unwrap();
        let queues = [
            // Two sizes of one kernel, then a pair of Table I kernels.
            [
                measure(small_build()),
                measure(ulp_kernels::matmul::build_sized(
                    ulp_kernels::matmul::MatVariant::Char,
                    &env,
                    8,
                )),
            ],
            [
                measure(Benchmark::MatMul.build(&env)),
                measure(Benchmark::Cnn.build(&env)),
            ],
        ];
        let opts = OffloadOptions {
            iterations: 4,
            ..Default::default()
        };
        for costs in &queues {
            let jobs = costs.each_ref().map(|cost| PlannedJob {
                cost,
                opts,
                ship_binary: true,
            });

            let piped = sys.plan_queue(&jobs, PipelineConfig::enabled());
            assert!(piped.total_seconds <= piped.serialized_seconds);
            assert!(piped.overlap.check().is_ok(), "{:?}", piped.overlap.check());

            let serial = sys.plan_queue(&jobs, PipelineConfig::default());
            assert_eq!(
                serial.total_seconds.to_bits(),
                serial.serialized_seconds.to_bits()
            );
            assert!(!serial.overlap.any());

            for (pipeline, plan) in [
                (PipelineConfig::enabled(), &piped),
                (PipelineConfig::default(), &serial),
            ] {
                assert_eq!(plan.reports.len(), jobs.len());
                for (job, report) in jobs.iter().zip(&plan.reports) {
                    let o = OffloadOptions { pipeline, ..opts };
                    assert_eq!(report, &sys.predict(job.cost, &o, job.ship_binary));
                }
            }
        }
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
        // converge on the fault-free numbers (same formulas, no events),
        // chunked and double-buffered or not.
        let build = small_build();
        for pipeline in [PipelineConfig::default(), PipelineConfig::enabled()] {
            for double_buffer in [false, true] {
                let opts = OffloadOptions {
                    iterations: 4,
                    double_buffer,
                    pipeline,
                    ..Default::default()
                };
                let ctx = format!(
                    "pipeline {}, double buffer {double_buffer}",
                    pipeline.enabled
                );
                let mut plain = HetSystem::new(HetSystemConfig::default());
                let healthy = plain.offload(&build, &opts).unwrap();
                let mut sys = HetSystem::new(faulty_config(FaultConfig {
                    seed: 7,
                    bit_error_rate: 1e-18,
                    ..FaultConfig::default()
                }));
                let rep = sys.offload(&build, &opts).unwrap();
                assert_eq!(rep.resilience.retransmissions, 0, "{ctx}");
                assert!(
                    (rep.total_seconds() - healthy.total_seconds()).abs() < 1e-12,
                    "{ctx}: {} vs {} s",
                    rep.total_seconds(),
                    healthy.total_seconds()
                );
                assert!(
                    (rep.total_energy_joules() - healthy.total_energy_joules()).abs() < 1e-15,
                    "{ctx}: {} vs {} J",
                    rep.total_energy_joules(),
                    healthy.total_energy_joules()
                );
                assert_eq!(rep.overlap, healthy.overlap, "{ctx}");
            }
        }
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
    fn retry_spans_follow_the_fault_walk() {
        // Every Link span lands on the host clock where the ledger charges
        // it. A faulty offload's frames and retransmissions follow each
        // other on the walk's own clock, never overlapping, and tracing
        // leaves the report exactly as the untraced run has it.
        let build = small_build();
        let cost = HetSystem::new(HetSystemConfig::default())
            .measure_cost(&build)
            .unwrap();
        let payloads = cost.input_frames.len() + cost.output_frames.len();
        let traced = |config: HetSystemConfig, opts: &OffloadOptions| {
            let mut sys = HetSystem::new(config);
            let tracer = Tracer::enabled();
            sys.set_tracer(tracer.clone());
            let report = sys.offload(&build, opts).unwrap();
            (report, tracer.events_of(Component::Link), *sys.link_stats())
        };
        let opts = OffloadOptions {
            iterations: 16,
            ..Default::default()
        };
        let fault = FaultConfig {
            seed: 3,
            bit_error_rate: 2e-5,
            drop_rate: 0.02,
            ..FaultConfig::default()
        };
        let untraced = HetSystem::new(faulty_config(fault))
            .offload(&build, &opts)
            .unwrap();
        let (report, link, _) = traced(faulty_config(fault), &opts);
        assert_eq!(format!("{report:?}"), format!("{untraced:?}"));
        let is_retry = |e: &&ulp_trace::TraceEvent| matches!(e.kind, EventKind::Retry { .. });
        let retries = link.iter().filter(is_retry).count() as u64;
        assert_eq!(retries, report.resilience.retransmissions);
        assert!(retries >= 2, "only {retries} retries");
        assert_eq!(link.len() as u64, retries + 1 + 16 * payloads as u64);
        for pair in link.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(a.dur > 0, "{a:?}");
            assert!(a.start + a.dur <= b.start, "{a:?} overlaps {b:?}");
        }

        // A healthy run draws each frame at the link's drive clock, as the
        // ledger charges it, and the link statistics count the same time.
        let config = HetSystemConfig {
            link_clocking: LinkClocking::Independent { spi_hz: 25.0e6 },
            ..HetSystemConfig::default()
        };
        let spi = SpiLink::new(config.link_width, config.link_prescaler);
        let opts = OffloadOptions {
            iterations: 2,
            ..Default::default()
        };
        let (report, link, stats) = traced(config.clone(), &opts);
        for e in &link {
            let (EventKind::FrameTx { bytes } | EventKind::FrameRx { bytes }) = e.kind else {
                panic!("{e:?} on a healthy link");
            };
            let charged = spi.transfer_seconds(bytes as usize, config.link_drive_hz());
            assert!(e.dur.abs_diff((charged * 1e9) as u64) <= 1, "{e:?}");
        }
        let ledger = report.binary_seconds + report.input_seconds + report.output_seconds;
        assert!((stats.busy_seconds - ledger).abs() < 1e-12, "{stats:?}");

        // Sensor-direct inputs never cross the link: only the binary is sent.
        let direct = OffloadOptions {
            sensor_direct: true,
            ..opts
        };
        let (_, link, stats) = traced(HetSystemConfig::default(), &direct);
        let sent: Vec<_> = link
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FrameTx { .. }))
            .collect();
        assert_eq!(sent.len(), 1, "{sent:?}");
        assert_eq!(stats.bytes_tx, (cost.offload_bytes + FRAME_OVERHEAD) as u64);
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
        assert_eq!(sys.resident_kernel(), None);
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

    /// The shared frame walk accounts every attempt exactly, per frame
    /// and summed against the injector's own counters, for every retry
    /// budget and fault mix, and replays from its seed.
    #[test]
    fn frame_delivery_accounts_every_attempt_exactly() {
        // (drop, truncate, bit-error) rates: each fault alone, then mixed.
        let mixes = [
            (0.2, 0.0, 0.0),
            (0.0, 0.2, 0.0),
            (0.0, 0.0, 5e-4),
            (0.1, 0.05, 2e-4),
        ];
        let mut retransmitted = 0u64;
        for seed in [0x5EED_0001u64, 0xB10C_0002, 0xFA57_0003] {
            for max_retries in 0..=4 {
                let policy = OffloadPolicy {
                    max_retries,
                    ..OffloadPolicy::default()
                };
                for (drop_rate, truncate_rate, bit_error_rate) in mixes {
                    let fault = FaultConfig {
                        seed,
                        drop_rate,
                        truncate_rate,
                        bit_error_rate,
                        ..FaultConfig::default()
                    };
                    let walk = || {
                        let mut inj = FaultInjector::new(fault);
                        let frames: Vec<FrameDelivery> = (0..1_000)
                            .map(|i| policy.deliver(&mut inj, 16 + i % 512))
                            .collect();
                        (frames, *inj.stats())
                    };
                    let (frames, stats) = walk();
                    let ctx = format!("seed {seed:#x}, max_retries {max_retries}, {fault:?}");
                    let (mut attempts, mut dropped, mut detected, mut escaped) = (0, 0, 0, 0);
                    for d in &frames {
                        assert!(d.retransmissions <= max_retries, "{ctx}: {d:?}");
                        assert!(
                            d.delivered || d.retransmissions == max_retries,
                            "{ctx}: {d:?}"
                        );
                        assert_eq!(
                            d.detected + d.dropped,
                            d.retransmissions + u32::from(!d.delivered),
                            "{ctx}: {d:?}"
                        );
                        attempts += u64::from(d.retransmissions) + 1;
                        dropped += u64::from(d.dropped);
                        detected += u64::from(d.detected);
                        escaped += u64::from(d.escaped);
                        retransmitted += u64::from(d.retransmissions);
                    }
                    assert_eq!(attempts, stats.frames, "{ctx}");
                    assert_eq!(dropped, stats.frames_dropped, "{ctx}");
                    assert_eq!(
                        detected,
                        stats.frames_truncated + stats.frames_corrupted - stats.crc_escapes,
                        "{ctx}"
                    );
                    assert_eq!(escaped, stats.crc_escapes, "{ctx}");
                    assert_eq!(walk(), (frames, stats), "{ctx}: replay diverged");
                }
            }
        }
        assert!(
            retransmitted > 10_000,
            "the battery barely faulted ({retransmitted} retransmissions)"
        );
    }

    /// The shared end-of-computation walk stays within the restart
    /// budget, completes exactly when it has restarts left, gives a tie
    /// to the event, never completes on a stuck wire, replays from its
    /// seed, and reconciles with the injector's own counters.
    #[test]
    fn eoc_walk_trips_and_accepts_exactly() {
        // The watchdog admits events up to `SLACK` cycles late.
        const SLACK: u64 = 1_000;
        let profile = |hang_rate, late_eoc_rate, late_eoc_cycles, stuck_eoc| FaultConfig {
            hang_rate,
            late_eoc_rate,
            late_eoc_cycles,
            stuck_eoc,
            ..FaultConfig::default()
        };
        // Hangs, late within the window (a tie), late past it, a stuck
        // wire, and hangs mixed with misses.
        let profiles = [
            profile(0.3, 0.0, 0, false),
            profile(0.0, 0.5, SLACK, false),
            profile(0.0, 0.5, SLACK + 1, false),
            profile(0.0, 0.0, 0, true),
            profile(0.2, 0.3, SLACK + 1, false),
        ];
        for seed in [0x5EED_0001u64, 0xB10C_0002, 0xFA57_0003] {
            for max_retries in 0..=4 {
                let policy = OffloadPolicy {
                    max_retries,
                    ..OffloadPolicy::default()
                };
                for profile in profiles {
                    let fault = FaultConfig { seed, ..profile };
                    let walk = || {
                        let mut inj = FaultInjector::new(fault);
                        let runs: Vec<EocWait> = (0..500)
                            .map(|_| policy.await_eoc(&mut inj, |late| late <= SLACK))
                            .collect();
                        (runs, *inj.stats())
                    };
                    let (runs, stats) = walk();
                    let ctx = format!("seed {seed:#x}, max_retries {max_retries}, {fault:?}");
                    let (mut trips, mut accepted_late) = (0, 0);
                    for w in &runs {
                        let budget = u64::from(max_retries);
                        assert!(w.trips <= budget + 1, "{ctx}: {w:?}");
                        assert_eq!(w.completed, w.trips <= budget, "{ctx}: {w:?}");
                        assert!(!(fault.stuck_eoc && w.completed), "{ctx}: {w:?}");
                        assert!(w.late_cycles.is_none_or(|c| c == SLACK), "{ctx}: {w:?}");
                        trips += w.trips;
                        accepted_late += u64::from(w.late_cycles.is_some());
                    }
                    // Every late event fits the window exactly (a tie) or
                    // misses it by a cycle, and a missed one trips.
                    let ties = fault.late_eoc_cycles == SLACK;
                    let want = if ties { stats.late_eocs } else { 0 };
                    assert_eq!(accepted_late, want, "{ctx}");
                    assert!(!ties || accepted_late > 0, "{ctx}: no tie was drawn");
                    let hung = stats.hangs + stats.stuck_wire_events;
                    assert_eq!(trips, hung + stats.late_eocs - accepted_late, "{ctx}");
                    assert_eq!(walk(), (runs, stats), "{ctx}: replay diverged");
                }
            }
        }
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let pol = OffloadPolicy {
            backoff_cycles: 64,
            ..OffloadPolicy::default()
        };
        assert_eq!(pol.backoff_for(0), 64);
        assert_eq!(pol.backoff_for(1), 128);
        assert_eq!(pol.backoff_for(3), 512);
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
