//! Cycle-level in-order core interpreter.
//!
//! A [`Core`] models a single-issue in-order pipeline (the OR10N and
//! Cortex-M cores of the paper are both of this class): one instruction
//! retires per cycle except for multi-cycle arithmetic, taken-branch
//! refills, and memory stalls reported by the [`Bus`].
//!
//! The core keeps a **local time** counter. Memory requests carry the local
//! issue time and the bus answers with the completion time; shared resources
//! (TCDM banks, DMA, the event unit) are arbitrated inside the bus
//! implementation (see `ulp-cluster`). This approximately-timed style
//! reproduces bank contention and barrier synchronization without lockstep
//! simulation.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ulp_trace::{Component, EventKind, Tracer};

use crate::features::CoreModel;
use crate::insn::{Csr, Insn, MemSize};
use crate::reg::Reg;
use crate::uop::{Block, MicroOp, UopKind};

/// Error reported by a [`Bus`] implementation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BusError {
    /// No device is mapped at this address.
    Unmapped {
        /// Faulting byte address.
        addr: u32,
    },
    /// The access runs past the end of the mapped region.
    OutOfBounds {
        /// Faulting byte address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
    },
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::Unmapped { addr } => write!(f, "no device mapped at {addr:#010x}"),
            BusError::OutOfBounds { addr, size } => {
                write!(f, "{size}-byte access at {addr:#010x} out of bounds")
            }
        }
    }
}

impl Error for BusError {}

/// A completed memory access: the raw value and the time it became available.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// Loaded bytes, right-aligned (unextended).
    pub value: u32,
    /// Core-local cycle at which the data is available (≥ issue time + 1).
    pub ready_at: u64,
}

/// A fetched instruction and the time it became available.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fetched {
    /// Decoded instruction.
    pub insn: Insn,
    /// Cycle at which the fetch completed (equals the issue time on an
    /// instruction-cache hit).
    pub ready_at: u64,
}

/// Memory system seen by a core.
///
/// Implementations route accesses to TCDM banks, L2 or flat memory and model
/// their latency and contention; `core_id` and `now` let shared resources
/// arbitrate between requestors.
pub trait Bus {
    /// Performs a data load of `size` bytes at `addr`, issued at local time
    /// `now`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if the address is unmapped or out of bounds.
    fn load(
        &mut self,
        core_id: usize,
        now: u64,
        addr: u32,
        size: MemSize,
    ) -> Result<Access, BusError>;

    /// Performs a data store. Returns the completion time.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if the address is unmapped or out of bounds.
    fn store(
        &mut self,
        core_id: usize,
        now: u64,
        addr: u32,
        size: MemSize,
        value: u32,
    ) -> Result<u64, BusError>;

    /// Atomic test-and-set of the 32-bit word at `addr`: returns the old
    /// value and writes 1.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if the address is unmapped or out of bounds.
    fn tas(&mut self, core_id: usize, now: u64, addr: u32) -> Result<Access, BusError>;

    /// Fetches and decodes the instruction at `pc` (instruction-cache model
    /// lives behind this call).
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if `pc` is unmapped, out of bounds, or holds an
    /// undecodable word.
    fn fetch(&mut self, core_id: usize, now: u64, pc: u32) -> Result<Fetched, BusError>;

    /// Timing-only half of [`Bus::fetch`], used by the micro-op block
    /// engine: charges the instruction-cache model for the fetch at `pc`
    /// (the decode already happened at block build time) and returns the
    /// completion time. Must mutate I$ state and emit the same trace events
    /// as a full `fetch`, so per-instruction I$ statistics stay identical
    /// across engines. The default models an always-hitting fetch.
    fn fetch_timing(&mut self, core_id: usize, now: u64, pc: u32) -> u64 {
        let _ = (core_id, pc);
        now
    }

    /// Returns the pre-decoded micro-op block entered at `pc`, if this bus
    /// backs instruction fetches with a [`BlockCache`](crate::BlockCache).
    /// `None` sends the core down the reference [`Core::step`] path for one
    /// instruction (which reproduces the exact fetch error for undecodable
    /// or unmapped `pc`s).
    fn microop_block(&mut self, core_id: usize, pc: u32, model: &CoreModel) -> Option<Arc<Block>> {
        let _ = (core_id, pc, model);
        None
    }

    /// Generation counter of the decoded-code side table behind instruction
    /// fetches (see [`DecodeCache::generation`](crate::DecodeCache::generation)).
    /// The block engine polls this after potentially-writing micro-ops to
    /// catch self-modifying code inside the executing block.
    fn code_generation(&self) -> u64 {
        0
    }
}

/// Execution error raised by [`Core::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// Memory system fault.
    Bus(BusError),
    /// The instruction belongs to an extension the core does not implement.
    UnsupportedInsn {
        /// Address of the offending instruction.
        pc: u32,
    },
    /// Unaligned access on a core without unaligned-access support.
    Misaligned {
        /// Faulting data address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
        /// Address of the offending instruction.
        pc: u32,
    },
    /// A hardware loop was set up with an invalid body.
    InvalidHwLoop {
        /// Address of the `lp.setup` instruction.
        pc: u32,
    },
    /// `step` was called on a halted or sleeping core.
    NotRunning,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Bus(e) => write!(f, "bus error: {e}"),
            ExecError::UnsupportedInsn { pc } => {
                write!(f, "unsupported instruction at {pc:#010x}")
            }
            ExecError::Misaligned { addr, size, pc } => write!(
                f,
                "misaligned {size}-byte access at {addr:#010x} (pc {pc:#010x}) without unaligned support"
            ),
            ExecError::InvalidHwLoop { pc } => write!(f, "invalid hardware loop at {pc:#010x}"),
            ExecError::NotRunning => write!(f, "core is not in the running state"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Bus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BusError> for ExecError {
    fn from(e: BusError) -> Self {
        ExecError::Bus(e)
    }
}

/// Core execution state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CoreState {
    /// Executing instructions.
    #[default]
    Running,
    /// Clock-gated, waiting for an event or barrier release.
    Sleeping,
    /// Stopped by [`Insn::Halt`].
    Halted,
}

/// What happened during one [`Core::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// An ordinary instruction retired.
    Executed,
    /// The core executed [`Insn::Halt`] and stopped.
    Halted,
    /// The core executed [`Insn::Wfe`] with no pending event and went to
    /// sleep; the caller (cluster) must wake it when an event arrives.
    Sleeping,
    /// The core arrived at the cluster barrier and went to sleep; the
    /// caller must release it when all participants have arrived.
    BarrierArrived,
    /// The core sent event `id` (see [`Insn::Sev`]); the caller routes it.
    EventSent(u8),
}

/// Why [`Core::exec_block`] stopped executing a micro-op block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockExit {
    /// A non-[`StepOutcome::Executed`] outcome retired (halt, sleep,
    /// barrier, event): the caller applies it exactly as after a step.
    Outcome(StepOutcome),
    /// Control left the straight-line block (taken branch, hardware-loop
    /// back-edge, block end) or the block went stale (self-modifying
    /// code): re-look-up a block at the current `pc` and keep going.
    Redirect,
    /// The caller-supplied batch bound was exceeded: another core may now
    /// be behind this one, so return to the scheduler's scan.
    Bound,
    /// The deadline (cycle budget) was reached before the next micro-op.
    Deadline,
}

/// Per-core activity counters (feed the PULP performance monitoring unit and
/// the power model's activity factors χ).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles spent stalled on memory (contention, cache misses).
    pub mem_stall_cycles: u64,
    /// Cycles spent in pipeline refill after taken branches.
    pub branch_stall_cycles: u64,
    /// Cycles spent asleep (clock-gated).
    pub sleep_cycles: u64,
    /// Taken branches.
    pub branches_taken: u64,
    /// Data memory accesses performed.
    pub mem_accesses: u64,
}

impl CoreStats {
    /// Cycles in which the core was actively computing (total minus sleep).
    #[must_use]
    pub fn active_cycles(&self, total: u64) -> u64 {
        total.saturating_sub(self.sleep_cycles)
    }
}

/// One retired instruction in an execution trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEntry {
    /// Address the instruction was fetched from.
    pub pc: u32,
    /// The instruction.
    pub insn: Insn,
    /// Core-local time after the instruction retired.
    pub retired_at: u64,
}

/// Summary returned by [`Core::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunSummary {
    /// Local time at completion (total cycles since reset).
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Final core state.
    pub state: CoreState,
}

#[derive(Clone, Copy, Debug, Default)]
struct HwLoop {
    start: u32,
    end: u32,
    count: u32,
    active: bool,
}

/// A single-issue in-order core with a local cycle counter.
///
/// See the [crate-level example](crate) for basic usage.
#[derive(Clone, Debug)]
pub struct Core {
    id: usize,
    model: CoreModel,
    regs: [u32; 32],
    pc: u32,
    time: u64,
    state: CoreState,
    hwloops: [HwLoop; 2],
    // Fast-path guard: true iff any hardware loop is active, so the
    // per-instruction loop-back check costs one predictable branch on
    // cores that never set a loop up (M3/M4/baseline).
    hwloops_active: bool,
    event_pending: bool,
    num_cores: u32,
    stats: CoreStats,
    trace: Option<Vec<TraceEntry>>,
    trace_cap: usize,
    tracer: Tracer,
    run_since: u64,
    // Whether Core::run executes through the micro-op block engine
    // (bit-identical to the step loop; see crate::uop).
    microop: bool,
    // Resident block of the micro-op engine: `(entry_pc, block)` of the
    // block the core last replayed, so a replay interrupted by a batch
    // bound resumes without a bus look-up. Revalidated against the bus
    // code generation on every entry; cleared by reset.
    block_ctx: Option<(u32, Arc<Block>)>,
    // Count of `CycleLo` CSR reads. The cycle counter is the one place
    // timing feeds architectural values, so a speculative scheduler that
    // repairs timelines after the fact (ulp-cluster's epoch engine) must
    // know whether a replay observed it.
    cycle_csr_reads: u64,
    // Local time of the first `CycleLo` read since the watch was last
    // armed (`None`: no read yet). Lets the epoch engine bound its exact
    // fallback window at the read itself instead of the end of the
    // replayed window.
    cycle_csr_read_at: Option<u64>,
}

impl Core {
    /// Creates a core with the given cluster index and microarchitecture.
    #[must_use]
    pub fn new(id: usize, model: CoreModel) -> Self {
        Core {
            id,
            model,
            regs: [0; 32],
            pc: 0,
            time: 0,
            state: CoreState::Running,
            hwloops: [HwLoop::default(); 2],
            hwloops_active: false,
            event_pending: false,
            num_cores: 1,
            stats: CoreStats::default(),
            trace: None,
            trace_cap: 0,
            tracer: Tracer::disabled(),
            run_since: 0,
            microop: true,
            block_ctx: None,
            cycle_csr_reads: 0,
            cycle_csr_read_at: None,
        }
    }

    /// Selects the engine used by [`Core::run`]: `true` (the default)
    /// executes through the pre-decoded micro-op block engine, `false`
    /// through the classic per-instruction step loop — the flat-core
    /// oracle. Both are bit-identical.
    pub fn set_microop(&mut self, on: bool) {
        self.microop = on;
    }

    /// Attaches a structured event tracer (a disabled tracer detaches).
    /// The tracer records run/sleep/stall intervals; see `ulp-trace`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Starts recording an execution trace of up to `cap` instructions
    /// (older entries are kept; recording stops at the cap).
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(Vec::with_capacity(cap.min(1 << 16)));
        self.trace_cap = cap;
    }

    /// Stops recording and discards the trace.
    pub fn disable_trace(&mut self) {
        self.trace = None;
        self.trace_cap = 0;
    }

    /// The recorded trace (empty when tracing is disabled).
    #[must_use]
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Resets architectural state and starts executing at `entry`.
    pub fn reset(&mut self, entry: u32) {
        self.regs = [0; 32];
        self.pc = entry;
        self.time = 0;
        self.state = CoreState::Running;
        self.hwloops = [HwLoop::default(); 2];
        self.hwloops_active = false;
        self.event_pending = false;
        self.stats = CoreStats::default();
        self.run_since = 0;
        self.block_ctx = None;
        if let Some(trace) = &mut self.trace {
            trace.clear();
        }
    }

    /// Core index within its cluster.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The core's microarchitecture model.
    #[must_use]
    pub fn model(&self) -> &CoreModel {
        &self.model
    }

    /// Reads a register (`r0` always reads 0).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes a register (writes to `r0` are ignored).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Core-local time in cycles.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Advances the local clock (used by cluster synchronization).
    pub fn advance_time_to(&mut self, t: u64) {
        if t > self.time {
            self.time = t;
            // Before the first retired instruction this is the start-time
            // alignment done by the cluster, not execution.
            if self.stats.retired == 0 {
                self.run_since = t;
            }
        }
    }

    /// Number of `CycleLo` CSR reads so far. The cycle CSR is the only
    /// instruction whose *value* depends on the local clock, so a
    /// speculative scheduler that shifts replayed timelines after the
    /// fact must treat any delta here as a speculation failure.
    #[doc(hidden)]
    #[must_use]
    pub fn cycle_csr_reads(&self) -> u64 {
        self.cycle_csr_reads
    }

    /// Arms the `CycleLo` read-time watch: clears the latched read time
    /// so the next read records the local time it was issued at. The
    /// epoch engine arms this per replay segment and, on a read, bounds
    /// its exact fallback window at the latched time instead of the end
    /// of the replayed window.
    #[doc(hidden)]
    pub fn watch_cycle_csr(&mut self) {
        self.cycle_csr_read_at = None;
    }

    /// Local time of the first `CycleLo` read since
    /// [`Core::watch_cycle_csr`] last armed the watch (`None` if none).
    #[doc(hidden)]
    #[must_use]
    pub fn cycle_csr_read_at(&self) -> Option<u64> {
        self.cycle_csr_read_at
    }

    /// Applies a signed shift to the local clock and the memory-stall
    /// counter. Used by the cluster's epoch engine when it commits a
    /// speculative replay whose exact cross-core stalls differ from the
    /// modelled ones by `delta` cycles: every data stall adds
    /// `start - issue` to both the clock and `mem_stall_cycles`, so one
    /// uniform patch of the accumulated stall error reproduces the
    /// reference state exactly.
    #[doc(hidden)]
    pub fn epoch_time_shift(&mut self, delta: i64) {
        self.time = self
            .time
            .checked_add_signed(delta)
            .expect("epoch shift keeps time non-negative");
        self.stats.mem_stall_cycles = self
            .stats
            .mem_stall_cycles
            .checked_add_signed(delta)
            .expect("epoch shift keeps stall count non-negative");
    }

    /// Execution state.
    #[must_use]
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Sets the value returned by the `NumCores` CSR.
    pub fn set_num_cores(&mut self, n: u32) {
        self.num_cores = n;
    }

    /// Latches an event towards this core. If the core is asleep the caller
    /// should follow up with [`Core::wake`].
    pub fn post_event(&mut self) {
        self.event_pending = true;
    }

    /// Whether an event is latched and not yet consumed.
    #[must_use]
    pub fn event_pending(&self) -> bool {
        self.event_pending
    }

    /// Wakes a sleeping core at time `at` (the event-unit release time).
    /// Charges the wakeup latency and accounts slept cycles.
    ///
    /// Does nothing if the core is not sleeping.
    pub fn wake(&mut self, at: u64) {
        if self.state != CoreState::Sleeping {
            return;
        }
        let resume = at.max(self.time) + u64::from(self.model.timing.wakeup);
        self.stats.sleep_cycles += resume.saturating_sub(self.time);
        self.tracer.emit(
            Component::Core(self.id as u8),
            EventKind::CoreSleep,
            self.time,
            resume.saturating_sub(self.time),
        );
        self.time = resume;
        self.run_since = resume;
        self.state = CoreState::Running;
        self.event_pending = false;
    }

    /// Runs until the core halts, sleeps, or `max_cycles` elapses.
    ///
    /// Intended for single-core use over a private bus; cluster execution
    /// drives [`Core::step`] directly so it can interleave cores.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`]; additionally returns
    /// [`ExecError::NotRunning`] if the core sleeps with nobody to wake it.
    pub fn run<B: Bus>(&mut self, bus: &mut B, max_cycles: u64) -> Result<RunSummary, ExecError> {
        if self.microop {
            return self.run_microop(bus, max_cycles);
        }
        let retired_before = self.stats.retired;
        while self.time < max_cycles {
            match self.step(bus)? {
                StepOutcome::Halted => break,
                StepOutcome::Sleeping | StepOutcome::BarrierArrived => {
                    return Err(ExecError::NotRunning)
                }
                StepOutcome::Executed | StepOutcome::EventSent(_) => {}
            }
        }
        crate::perf::add_retired(self.stats.retired - retired_before);
        Ok(RunSummary {
            cycles: self.time,
            retired: self.stats.retired,
            state: self.state,
        })
    }

    /// [`Core::run`] through the micro-op block engine: whole cached basic
    /// blocks execute between bus block look-ups, falling back to a single
    /// reference [`Core::step`] wherever no block is available (undecodable
    /// or unmapped `pc`, bus without a block cache).
    fn run_microop<B: Bus>(
        &mut self,
        bus: &mut B,
        max_cycles: u64,
    ) -> Result<RunSummary, ExecError> {
        let retired_before = self.stats.retired;
        // `run` executes a step iff time < max_cycles, i.e. time is at most
        // max_cycles - 1: that is the block engine's deadline.
        let deadline = max_cycles.saturating_sub(1);
        'outer: while self.time < max_cycles {
            if let Some(exit) = self.exec_resume(bus, deadline, u64::MAX)? {
                match exit {
                    BlockExit::Outcome(StepOutcome::Halted) => break 'outer,
                    BlockExit::Outcome(StepOutcome::Sleeping | StepOutcome::BarrierArrived) => {
                        return Err(ExecError::NotRunning)
                    }
                    BlockExit::Deadline => break 'outer,
                    BlockExit::Outcome(_) | BlockExit::Redirect | BlockExit::Bound => {}
                }
            } else {
                match self.step(bus)? {
                    StepOutcome::Halted => break 'outer,
                    StepOutcome::Sleeping | StepOutcome::BarrierArrived => {
                        return Err(ExecError::NotRunning)
                    }
                    StepOutcome::Executed | StepOutcome::EventSent(_) => {}
                }
            }
        }
        crate::perf::add_retired(self.stats.retired - retired_before);
        Ok(RunSummary {
            cycles: self.time,
            retired: self.stats.retired,
            state: self.state,
        })
    }

    fn read(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    fn write(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    fn check_align(&self, addr: u32, size: MemSize) -> Result<u32, ExecError> {
        let bytes = size.bytes();
        // `bytes` is always a power of two, so the mask test is equivalent
        // to divisibility and avoids a runtime modulo on the hot path.
        if addr & (bytes - 1) == 0 {
            Ok(0)
        } else if self.model.features.unaligned {
            Ok(self.model.timing.unaligned_penalty)
        } else {
            Err(ExecError::Misaligned {
                addr,
                size: bytes,
                pc: self.pc,
            })
        }
    }

    fn extend(value: u32, size: MemSize, signed: bool) -> u32 {
        match (size, signed) {
            (MemSize::Byte, true) => value as u8 as i8 as i32 as u32,
            (MemSize::Byte, false) => u32::from(value as u8),
            (MemSize::Half, true) => value as u16 as i16 as i32 as u32,
            (MemSize::Half, false) => u32::from(value as u16),
            (MemSize::Word, _) => value,
        }
    }

    fn require(&self, ok: bool) -> Result<(), ExecError> {
        if ok {
            Ok(())
        } else {
            Err(ExecError::UnsupportedInsn { pc: self.pc })
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on bus faults, unsupported instructions,
    /// misaligned accesses, or if the core is not running.
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> Result<StepOutcome, ExecError> {
        if self.state != CoreState::Running {
            return Err(ExecError::NotRunning);
        }

        let fetched = bus.fetch(self.id, self.time, self.pc)?;
        if fetched.ready_at > self.time {
            self.stats.mem_stall_cycles += fetched.ready_at - self.time;
            self.time = fetched.ready_at;
        }
        let insn = fetched.insn;
        let (cycles, next_pc, outcome) = self.exec_insn(bus, insn)?;
        self.retire(insn, cycles, next_pc, outcome);
        Ok(outcome)
    }

    /// Executes the operate phase of `insn` (the reference engine's single
    /// source of instruction semantics, also reached by [`UopKind::Generic`]
    /// micro-ops). Returns `(cycles, next_pc, outcome)` for [`Core::retire`].
    #[allow(clippy::too_many_lines)]
    fn exec_insn<B: Bus>(
        &mut self,
        bus: &mut B,
        insn: Insn,
    ) -> Result<(u64, u32, StepOutcome), ExecError> {
        use Insn::*;

        let f = self.model.features;
        let t = self.model.timing;

        let mut cycles: u64 = 1;
        let mut next_pc = self.pc.wrapping_add(4);
        let mut outcome = StepOutcome::Executed;

        macro_rules! alu {
            ($d:expr, $v:expr) => {{
                let v = $v;
                self.write($d, v);
            }};
        }

        macro_rules! taken {
            ($target:expr) => {{
                next_pc = $target;
                cycles += u64::from(t.taken_branch);
                self.stats.branches_taken += 1;
                self.stats.branch_stall_cycles += u64::from(t.taken_branch);
            }};
        }

        match insn {
            Add(d, a, b) => alu!(d, self.read(a).wrapping_add(self.read(b))),
            Sub(d, a, b) => alu!(d, self.read(a).wrapping_sub(self.read(b))),
            And(d, a, b) => alu!(d, self.read(a) & self.read(b)),
            Or(d, a, b) => alu!(d, self.read(a) | self.read(b)),
            Xor(d, a, b) => alu!(d, self.read(a) ^ self.read(b)),
            Sll(d, a, b) => alu!(d, self.read(a) << (self.read(b) & 31)),
            Srl(d, a, b) => alu!(d, self.read(a) >> (self.read(b) & 31)),
            Sra(d, a, b) => alu!(d, ((self.read(a) as i32) >> (self.read(b) & 31)) as u32),
            Slt(d, a, b) => alu!(d, u32::from((self.read(a) as i32) < (self.read(b) as i32))),
            Sltu(d, a, b) => alu!(d, u32::from(self.read(a) < self.read(b))),
            Min(d, a, b) => alu!(d, (self.read(a) as i32).min(self.read(b) as i32) as u32),
            Max(d, a, b) => alu!(d, (self.read(a) as i32).max(self.read(b) as i32) as u32),
            Mul(d, a, b) => {
                cycles = u64::from(t.mul);
                alu!(d, self.read(a).wrapping_mul(self.read(b)));
            }
            Div(d, a, b) => {
                self.require(f.div)?;
                cycles = u64::from(t.div);
                let a = self.read(a) as i32;
                let b = self.read(b) as i32;
                alu!(
                    d,
                    if b == 0 {
                        -1i32 as u32
                    } else {
                        a.wrapping_div(b) as u32
                    }
                );
            }
            Divu(d, a, b) => {
                self.require(f.div)?;
                cycles = u64::from(t.div);
                let a = self.read(a);
                let b = self.read(b);
                alu!(d, a.checked_div(b).unwrap_or(u32::MAX));
            }
            Mac(d, a, b) => {
                self.require(f.mac)?;
                cycles = u64::from(t.mac);
                let prod = self.read(a).wrapping_mul(self.read(b));
                alu!(d, self.read(d).wrapping_add(prod));
            }
            Mull {
                rd_hi,
                rd_lo,
                ra,
                rb,
                signed,
            } => {
                self.require(f.mul64)?;
                cycles = u64::from(t.mull);
                let prod = if signed {
                    (i64::from(self.read(ra) as i32) * i64::from(self.read(rb) as i32)) as u64
                } else {
                    u64::from(self.read(ra)) * u64::from(self.read(rb))
                };
                self.write(rd_lo, prod as u32);
                self.write(rd_hi, (prod >> 32) as u32);
            }
            Mlal {
                rd_hi,
                rd_lo,
                ra,
                rb,
                signed,
            } => {
                self.require(f.mul64)?;
                cycles = u64::from(t.mlal);
                let acc = (u64::from(self.read(rd_hi)) << 32) | u64::from(self.read(rd_lo));
                let prod = if signed {
                    (i64::from(self.read(ra) as i32) * i64::from(self.read(rb) as i32)) as u64
                } else {
                    u64::from(self.read(ra)) * u64::from(self.read(rb))
                };
                let sum = acc.wrapping_add(prod);
                self.write(rd_lo, sum as u32);
                self.write(rd_hi, (sum >> 32) as u32);
            }
            SdotV4(d, a, b) => {
                self.require(f.simd_dot)?;
                let (x, y) = (self.read(a), self.read(b));
                let mut acc = self.read(d) as i32;
                for lane in 0..4 {
                    let xa = (x >> (lane * 8)) as u8 as i8 as i32;
                    let yb = (y >> (lane * 8)) as u8 as i8 as i32;
                    acc = acc.wrapping_add(xa.wrapping_mul(yb));
                }
                alu!(d, acc as u32);
            }
            SdotV2(d, a, b) => {
                self.require(f.simd_dot)?;
                let (x, y) = (self.read(a), self.read(b));
                let mut acc = self.read(d) as i32;
                for lane in 0..2 {
                    let xa = (x >> (lane * 16)) as u16 as i16 as i32;
                    let yb = (y >> (lane * 16)) as u16 as i16 as i32;
                    acc = acc.wrapping_add(xa.wrapping_mul(yb));
                }
                alu!(d, acc as u32);
            }
            AddV4(d, a, b) | SubV4(d, a, b) => {
                self.require(f.simd_dot)?;
                let (x, y) = (self.read(a), self.read(b));
                let mut out = 0u32;
                for lane in 0..4 {
                    let xa = (x >> (lane * 8)) as u8;
                    let yb = (y >> (lane * 8)) as u8;
                    let v = if matches!(insn, AddV4(..)) {
                        xa.wrapping_add(yb)
                    } else {
                        xa.wrapping_sub(yb)
                    };
                    out |= u32::from(v) << (lane * 8);
                }
                alu!(d, out);
            }
            AddV2(d, a, b) | SubV2(d, a, b) => {
                self.require(f.simd_dot)?;
                let (x, y) = (self.read(a), self.read(b));
                let mut out = 0u32;
                for lane in 0..2 {
                    let xa = (x >> (lane * 16)) as u16;
                    let yb = (y >> (lane * 16)) as u16;
                    let v = if matches!(insn, AddV2(..)) {
                        xa.wrapping_add(yb)
                    } else {
                        xa.wrapping_sub(yb)
                    };
                    out |= u32::from(v) << (lane * 16);
                }
                alu!(d, out);
            }
            Addi(d, a, i) => alu!(d, self.read(a).wrapping_add(i as i32 as u32)),
            Andi(d, a, i) => alu!(d, self.read(a) & u32::from(i)),
            Ori(d, a, i) => alu!(d, self.read(a) | u32::from(i)),
            Xori(d, a, i) => alu!(d, self.read(a) ^ u32::from(i)),
            Slli(d, a, s) => alu!(d, self.read(a) << (s & 31)),
            Srli(d, a, s) => alu!(d, self.read(a) >> (s & 31)),
            Srai(d, a, s) => alu!(d, ((self.read(a) as i32) >> (s & 31)) as u32),
            Lui(d, imm) => alu!(d, imm << 14),
            Load {
                rd,
                base,
                offset,
                size,
                signed,
            } => {
                let addr = self.read(base).wrapping_add(offset as i32 as u32);
                let penalty = self.check_align(addr, size)?;
                let acc = bus.load(self.id, self.time, addr, size)?;
                cycles = (acc.ready_at - self.time) + u64::from(penalty);
                self.note_mem_stall(acc.ready_at);
                self.write(rd, Self::extend(acc.value, size, signed));
            }
            LoadPi {
                rd,
                base,
                inc,
                size,
                signed,
            } => {
                self.require(f.post_increment)?;
                let addr = self.read(base);
                let penalty = self.check_align(addr, size)?;
                let acc = bus.load(self.id, self.time, addr, size)?;
                cycles = (acc.ready_at - self.time) + u64::from(penalty);
                self.note_mem_stall(acc.ready_at);
                self.write(rd, Self::extend(acc.value, size, signed));
                self.write(base, addr.wrapping_add(inc as i32 as u32));
            }
            Store {
                rs,
                base,
                offset,
                size,
            } => {
                let addr = self.read(base).wrapping_add(offset as i32 as u32);
                let penalty = self.check_align(addr, size)?;
                let done = bus.store(self.id, self.time, addr, size, self.read(rs))?;
                cycles = (done - self.time) + u64::from(penalty);
                self.note_mem_stall(done);
            }
            StorePi {
                rs,
                base,
                inc,
                size,
            } => {
                self.require(f.post_increment)?;
                let addr = self.read(base);
                let penalty = self.check_align(addr, size)?;
                let done = bus.store(self.id, self.time, addr, size, self.read(rs))?;
                cycles = (done - self.time) + u64::from(penalty);
                self.note_mem_stall(done);
                self.write(base, addr.wrapping_add(inc as i32 as u32));
            }
            Tas(rd, ra) => {
                let addr = self.read(ra);
                let penalty = self.check_align(addr, MemSize::Word)?;
                let acc = bus.tas(self.id, self.time, addr)?;
                cycles = (acc.ready_at - self.time) + u64::from(penalty);
                self.note_mem_stall(acc.ready_at);
                self.write(rd, acc.value);
            }
            Beq(a, b, o) => {
                if self.read(a) == self.read(b) {
                    taken!(self.pc.wrapping_add(o as u32));
                }
            }
            Bne(a, b, o) => {
                if self.read(a) != self.read(b) {
                    taken!(self.pc.wrapping_add(o as u32));
                }
            }
            Blt(a, b, o) => {
                if (self.read(a) as i32) < (self.read(b) as i32) {
                    taken!(self.pc.wrapping_add(o as u32));
                }
            }
            Bge(a, b, o) => {
                if (self.read(a) as i32) >= (self.read(b) as i32) {
                    taken!(self.pc.wrapping_add(o as u32));
                }
            }
            Bltu(a, b, o) => {
                if self.read(a) < self.read(b) {
                    taken!(self.pc.wrapping_add(o as u32));
                }
            }
            Bgeu(a, b, o) => {
                if self.read(a) >= self.read(b) {
                    taken!(self.pc.wrapping_add(o as u32));
                }
            }
            Jal(d, o) => {
                self.write(d, self.pc.wrapping_add(4));
                taken!(self.pc.wrapping_add(o as u32));
            }
            Jalr(d, a, i) => {
                let target = self.read(a).wrapping_add(i as i32 as u32) & !3;
                self.write(d, self.pc.wrapping_add(4));
                taken!(target);
            }
            LpSetup {
                idx,
                count,
                body_end,
            } => {
                self.require(f.hw_loops)?;
                if idx > 1 || body_end < 4 {
                    return Err(ExecError::InvalidHwLoop { pc: self.pc });
                }
                let n = self.read(count);
                let start = self.pc.wrapping_add(4);
                let end = self.pc.wrapping_add(body_end as u32);
                if n == 0 {
                    // Skip the body entirely.
                    taken!(end.wrapping_add(4));
                    self.hwloops[idx as usize].active = false;
                } else {
                    self.hwloops[idx as usize] = HwLoop {
                        start,
                        end,
                        count: n,
                        active: true,
                    };
                }
                self.hwloops_active = self.hwloops[0].active || self.hwloops[1].active;
            }
            Csrr(d, csr) => {
                let v = match csr {
                    Csr::CoreId => self.id as u32,
                    Csr::NumCores => self.num_cores,
                    Csr::CycleLo => {
                        self.cycle_csr_reads += 1;
                        if self.cycle_csr_read_at.is_none() {
                            self.cycle_csr_read_at = Some(self.time);
                        }
                        self.time as u32
                    }
                    Csr::InstRetLo => self.stats.retired as u32,
                };
                alu!(d, v);
            }
            Nop => {}
            Halt => {
                self.state = CoreState::Halted;
                outcome = StepOutcome::Halted;
            }
            Wfe => {
                if self.event_pending {
                    self.event_pending = false;
                } else {
                    self.state = CoreState::Sleeping;
                    outcome = StepOutcome::Sleeping;
                }
            }
            Sev(id) => outcome = StepOutcome::EventSent(id),
            Barrier => {
                self.state = CoreState::Sleeping;
                outcome = StepOutcome::BarrierArrived;
            }
        }

        Ok((cycles, next_pc, outcome))
    }

    /// Applies the zero-overhead hardware loop-back to `next_pc`: only when
    /// falling through the last body instruction (a taken branch inside the
    /// body wins). Shared by both retire paths.
    #[inline]
    fn loop_back(&mut self, mut next_pc: u32) -> u32 {
        if self.hwloops_active && next_pc == self.pc.wrapping_add(4) {
            for l in 0..2 {
                let lp = &mut self.hwloops[l];
                if lp.active && self.pc == lp.end {
                    lp.count -= 1;
                    if lp.count > 0 {
                        next_pc = lp.start;
                        break;
                    }
                    // Loop exhausted; an enclosing loop may end at the same
                    // address (inner body is the tail of the outer body), so
                    // keep checking the outer unit.
                    lp.active = false;
                }
            }
            self.hwloops_active = self.hwloops[0].active || self.hwloops[1].active;
        }
        next_pc
    }

    /// Minimal retire for the micro-op hot loop: identical bookkeeping to
    /// [`Core::retire`] for a plain `Executed` outcome with tracing off
    /// (the run-interval tracer only acts on transitions out of Running,
    /// which an `Executed` outcome never is).
    #[inline]
    fn retire_lite(&mut self, cycles: u64, next_pc: u32) {
        let next_pc = self.loop_back(next_pc);
        self.stats.retired += 1;
        self.time += cycles.max(1);
        self.pc = next_pc;
    }

    /// Retires one instruction: hardware loop-back, counters, trace, run
    /// interval bookkeeping, and the `pc` update. Shared verbatim by the
    /// step and micro-op engines so cycle accounting is identical.
    #[inline]
    fn retire(&mut self, insn: Insn, cycles: u64, next_pc: u32, outcome: StepOutcome) {
        let next_pc = self.loop_back(next_pc);
        self.stats.retired += 1;
        self.time += cycles.max(1);
        if let Some(trace) = &mut self.trace {
            if trace.len() < self.trace_cap {
                trace.push(TraceEntry {
                    pc: self.pc,
                    insn,
                    retired_at: self.time,
                });
            }
        }
        // Close the current run interval on any transition out of Running.
        if !matches!(outcome, StepOutcome::Executed | StepOutcome::EventSent(_))
            && self.time > self.run_since
        {
            self.tracer.emit(
                Component::Core(self.id as u8),
                EventKind::CoreRun,
                self.run_since,
                self.time - self.run_since,
            );
        }
        self.pc = next_pc;
    }

    /// Executes micro-ops from `block` (whose entry must be the current
    /// `pc`) until an exit condition, without touching the decoder.
    ///
    /// Exit conditions, checked in scheduler-equivalent order: the local
    /// time exceeding `deadline` before an op (→ [`BlockExit::Deadline`]); a
    /// retired non-`Executed` outcome (→ [`BlockExit::Outcome`]); the local
    /// time exceeding `bound` after an op (→ [`BlockExit::Bound`], the
    /// (time, index) batching cut-off of the cluster's micro-op loop); control
    /// leaving the straight line, the block going stale after a write, or
    /// the block ending (→ [`BlockExit::Redirect`]).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] exactly as [`Core::step`] would for the same
    /// instruction sequence, or [`ExecError::NotRunning`] if the core is
    /// not in the running state.
    pub fn exec_block<B: Bus>(
        &mut self,
        bus: &mut B,
        block: &Block,
        deadline: u64,
        bound: u64,
    ) -> Result<BlockExit, ExecError> {
        self.exec_block_from(bus, block, self.pc, 0, deadline, bound)
    }

    /// [`Core::exec_block`] entered mid-block: `entry_pc` is the block's
    /// entry and `idx` the micro-op index of the current `pc` — how
    /// [`Core::exec_resume`] continues a replay a batch bound interrupted.
    fn exec_block_from<B: Bus>(
        &mut self,
        bus: &mut B,
        block: &Block,
        entry_pc: u32,
        mut idx: usize,
        deadline: u64,
        bound: u64,
    ) -> Result<BlockExit, ExecError> {
        if self.state != CoreState::Running {
            return Err(ExecError::NotRunning);
        }
        loop {
            if self.time > deadline {
                return Ok(BlockExit::Deadline);
            }
            let pc = self.pc;
            // Timing half of the fetch: the I$ model must see every
            // executed instruction exactly once, like the reference fetch.
            let ready = bus.fetch_timing(self.id, self.time, pc);
            if ready > self.time {
                self.stats.mem_stall_cycles += ready - self.time;
                self.time = ready;
            }
            let uop = &block.uops[idx];
            let (cycles, next_pc, outcome, wrote_mem) = self.exec_uop(bus, uop)?;
            if matches!(outcome, StepOutcome::Executed) && self.trace.is_none() {
                // Hot retire: an `Executed` outcome never transitions out
                // of Running, so with tracing off the full retire path
                // degenerates to exactly this bookkeeping.
                self.retire_lite(cycles, next_pc);
            } else {
                self.retire(uop.insn, cycles, next_pc, outcome);
                if !matches!(outcome, StepOutcome::Executed) {
                    return Ok(BlockExit::Outcome(outcome));
                }
            }
            if self.time > bound {
                return Ok(BlockExit::Bound);
            }
            // A write may have rewritten code — including the rest of this
            // very block. Stale means: re-look-up (and rebuild) at `pc`.
            if wrote_mem && bus.code_generation() != block.gen {
                return Ok(BlockExit::Redirect);
            }
            if self.pc == pc.wrapping_add(4) {
                idx += 1;
                if idx == block.uops.len() {
                    return Ok(BlockExit::Redirect);
                }
            } else {
                // Taken branch or hardware-loop back-edge. A target inside
                // this very block — a tight loop, the overwhelmingly common
                // case — keeps replaying without a fresh look-up; nothing
                // was written since the entry validation, so the cached
                // translation is still exact. Anything else redirects.
                let rel = self.pc.wrapping_sub(entry_pc);
                if rel & 3 == 0 && ((rel >> 2) as usize) < block.uops.len() {
                    idx = (rel >> 2) as usize;
                } else {
                    return Ok(BlockExit::Redirect);
                }
            }
        }
    }

    /// Runs the micro-op engine at the current `pc`, keeping the block
    /// resident in the core between calls: when `pc` still falls inside
    /// the resident block and the bus code generation is unchanged, the
    /// replay resumes in place — the common case after a batch-bound
    /// interruption — otherwise a fresh block is looked up through the
    /// bus. Returns `Ok(None)` when no block covers `pc` (undecodable or
    /// unmapped word, bus without a block cache): the caller falls back
    /// to one reference [`Core::step`].
    ///
    /// The resident block belongs to the bus the core last ran on;
    /// [`Core::reset`] drops it, so the usual reset-then-run flow is safe
    /// across different memory images.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Core::exec_block`].
    pub fn exec_resume<B: Bus>(
        &mut self,
        bus: &mut B,
        deadline: u64,
        bound: u64,
    ) -> Result<Option<BlockExit>, ExecError> {
        let resumable = self.block_ctx.as_ref().is_some_and(|(entry, block)| {
            let rel = self.pc.wrapping_sub(*entry);
            rel & 3 == 0
                && ((rel >> 2) as usize) < block.uops.len()
                && block.gen == bus.code_generation()
        });
        if !resumable {
            let model = self.model;
            match bus.microop_block(self.id, self.pc, &model) {
                Some(block) => self.block_ctx = Some((self.pc, block)),
                None => {
                    self.block_ctx = None;
                    return Ok(None);
                }
            }
        }
        loop {
            // Move the block out for the replay (the borrow checker cannot
            // see that exec_block_from never touches block_ctx) and restore
            // it after: staleness is re-checked on the next entry.
            let (entry_pc, block) = self.block_ctx.take().expect("resident block just set");
            let idx = (self.pc.wrapping_sub(entry_pc) >> 2) as usize;
            let exit = self.exec_block_from(bus, &block, entry_pc, idx, deadline, bound);
            self.block_ctx = Some((entry_pc, block));
            match exit {
                // Chain straight into the next block under the same bounds:
                // a redirect always leaves the resident translation (an
                // in-block branch target resumes inside `exec_block_from`,
                // and a stale generation needs a rebuild either way), so
                // the resumability re-check is pure overhead — look up at
                // the new pc directly.
                Ok(BlockExit::Redirect) => {
                    let model = self.model;
                    match bus.microop_block(self.id, self.pc, &model) {
                        Some(block) => self.block_ctx = Some((self.pc, block)),
                        None => {
                            self.block_ctx = None;
                            return Ok(None);
                        }
                    }
                }
                other => return other.map(Some),
            }
        }
    }

    /// Executes the operate phase of one micro-op. Returns
    /// `(cycles, next_pc, outcome, wrote_mem)`; `wrote_mem` flags ops that
    /// may have written memory (stores, [`UopKind::Generic`]) for the
    /// self-modifying-code staleness check.
    #[inline]
    #[allow(clippy::too_many_lines)]
    fn exec_uop<B: Bus>(
        &mut self,
        bus: &mut B,
        uop: &MicroOp,
    ) -> Result<(u64, u32, StepOutcome, bool), ExecError> {
        use MemSize::{Byte, Half, Word};
        use UopKind as K;

        let mut cycles: u64 = 1;
        let mut next_pc = self.pc.wrapping_add(4);
        let mut wrote_mem = false;

        macro_rules! taken {
            ($target:expr) => {{
                next_pc = $target;
                cycles += u64::from(uop.aux);
                self.stats.branches_taken += 1;
                self.stats.branch_stall_cycles += u64::from(uop.aux);
            }};
        }
        macro_rules! branch {
            ($cond:expr) => {{
                if $cond {
                    taken!(self.pc.wrapping_add(uop.imm as u32));
                }
            }};
        }

        match uop.kind {
            K::Add => self.write_idx(
                uop.rd,
                self.read_idx(uop.ra).wrapping_add(self.read_idx(uop.rb)),
            ),
            K::Sub => self.write_idx(
                uop.rd,
                self.read_idx(uop.ra).wrapping_sub(self.read_idx(uop.rb)),
            ),
            K::And => self.write_idx(uop.rd, self.read_idx(uop.ra) & self.read_idx(uop.rb)),
            K::Or => self.write_idx(uop.rd, self.read_idx(uop.ra) | self.read_idx(uop.rb)),
            K::Xor => self.write_idx(uop.rd, self.read_idx(uop.ra) ^ self.read_idx(uop.rb)),
            K::Sll => self.write_idx(
                uop.rd,
                self.read_idx(uop.ra) << (self.read_idx(uop.rb) & 31),
            ),
            K::Srl => self.write_idx(
                uop.rd,
                self.read_idx(uop.ra) >> (self.read_idx(uop.rb) & 31),
            ),
            K::Sra => self.write_idx(
                uop.rd,
                ((self.read_idx(uop.ra) as i32) >> (self.read_idx(uop.rb) & 31)) as u32,
            ),
            K::Slt => self.write_idx(
                uop.rd,
                u32::from((self.read_idx(uop.ra) as i32) < (self.read_idx(uop.rb) as i32)),
            ),
            K::Sltu => self.write_idx(
                uop.rd,
                u32::from(self.read_idx(uop.ra) < self.read_idx(uop.rb)),
            ),
            K::Min => self.write_idx(
                uop.rd,
                (self.read_idx(uop.ra) as i32).min(self.read_idx(uop.rb) as i32) as u32,
            ),
            K::Max => self.write_idx(
                uop.rd,
                (self.read_idx(uop.ra) as i32).max(self.read_idx(uop.rb) as i32) as u32,
            ),
            K::Mul => {
                cycles = u64::from(uop.aux);
                self.write_idx(
                    uop.rd,
                    self.read_idx(uop.ra).wrapping_mul(self.read_idx(uop.rb)),
                );
            }
            K::Mac => {
                cycles = u64::from(uop.aux);
                let prod = self.read_idx(uop.ra).wrapping_mul(self.read_idx(uop.rb));
                self.write_idx(uop.rd, self.read_idx(uop.rd).wrapping_add(prod));
            }
            K::Addi => self.write_idx(uop.rd, self.read_idx(uop.ra).wrapping_add(uop.imm as u32)),
            K::Andi => self.write_idx(uop.rd, self.read_idx(uop.ra) & (uop.imm as u32)),
            K::Ori => self.write_idx(uop.rd, self.read_idx(uop.ra) | (uop.imm as u32)),
            K::Xori => self.write_idx(uop.rd, self.read_idx(uop.ra) ^ (uop.imm as u32)),
            K::Slli => self.write_idx(uop.rd, self.read_idx(uop.ra) << (uop.imm as u32)),
            K::Srli => self.write_idx(uop.rd, self.read_idx(uop.ra) >> (uop.imm as u32)),
            K::Srai => self.write_idx(
                uop.rd,
                ((self.read_idx(uop.ra) as i32) >> (uop.imm as u32)) as u32,
            ),
            K::Lui => self.write_idx(uop.rd, uop.imm as u32),
            K::SdotV4 => {
                let (x, y) = (self.read_idx(uop.ra), self.read_idx(uop.rb));
                let mut acc = self.read_idx(uop.rd) as i32;
                for lane in 0..4 {
                    let xa = (x >> (lane * 8)) as u8 as i8 as i32;
                    let yb = (y >> (lane * 8)) as u8 as i8 as i32;
                    acc = acc.wrapping_add(xa.wrapping_mul(yb));
                }
                self.write_idx(uop.rd, acc as u32);
            }
            K::SdotV2 => {
                let (x, y) = (self.read_idx(uop.ra), self.read_idx(uop.rb));
                let mut acc = self.read_idx(uop.rd) as i32;
                for lane in 0..2 {
                    let xa = (x >> (lane * 16)) as u16 as i16 as i32;
                    let yb = (y >> (lane * 16)) as u16 as i16 as i32;
                    acc = acc.wrapping_add(xa.wrapping_mul(yb));
                }
                self.write_idx(uop.rd, acc as u32);
            }
            K::LdW => cycles = self.uop_load(bus, uop, Word, true, false)?,
            K::LdH => cycles = self.uop_load(bus, uop, Half, true, false)?,
            K::LdHu => cycles = self.uop_load(bus, uop, Half, false, false)?,
            K::LdB => cycles = self.uop_load(bus, uop, Byte, true, false)?,
            K::LdBu => cycles = self.uop_load(bus, uop, Byte, false, false)?,
            K::LdPiW => cycles = self.uop_load(bus, uop, Word, true, true)?,
            K::LdPiH => cycles = self.uop_load(bus, uop, Half, true, true)?,
            K::LdPiHu => cycles = self.uop_load(bus, uop, Half, false, true)?,
            K::LdPiB => cycles = self.uop_load(bus, uop, Byte, true, true)?,
            K::LdPiBu => cycles = self.uop_load(bus, uop, Byte, false, true)?,
            K::StW => {
                wrote_mem = true;
                cycles = self.uop_store(bus, uop, Word, false)?;
            }
            K::StH => {
                wrote_mem = true;
                cycles = self.uop_store(bus, uop, Half, false)?;
            }
            K::StB => {
                wrote_mem = true;
                cycles = self.uop_store(bus, uop, Byte, false)?;
            }
            K::StPiW => {
                wrote_mem = true;
                cycles = self.uop_store(bus, uop, Word, true)?;
            }
            K::StPiH => {
                wrote_mem = true;
                cycles = self.uop_store(bus, uop, Half, true)?;
            }
            K::StPiB => {
                wrote_mem = true;
                cycles = self.uop_store(bus, uop, Byte, true)?;
            }
            K::Beq => branch!(self.read_idx(uop.ra) == self.read_idx(uop.rb)),
            K::Bne => branch!(self.read_idx(uop.ra) != self.read_idx(uop.rb)),
            K::Blt => branch!((self.read_idx(uop.ra) as i32) < (self.read_idx(uop.rb) as i32)),
            K::Bge => branch!((self.read_idx(uop.ra) as i32) >= (self.read_idx(uop.rb) as i32)),
            K::Bltu => branch!(self.read_idx(uop.ra) < self.read_idx(uop.rb)),
            K::Bgeu => branch!(self.read_idx(uop.ra) >= self.read_idx(uop.rb)),
            K::Jal => {
                self.write_idx(uop.rd, self.pc.wrapping_add(4));
                taken!(self.pc.wrapping_add(uop.imm as u32));
            }
            K::Jalr => {
                let target = self.read_idx(uop.ra).wrapping_add(uop.imm as u32) & !3;
                self.write_idx(uop.rd, self.pc.wrapping_add(4));
                taken!(target);
            }
            K::Nop => {}
            K::Generic => {
                // Cold path: the reference operate phase (identical
                // semantics, errors and timing by construction). Generic
                // covers Tas and MMIO-triggering stores, hence wrote_mem.
                let (c, n, o) = self.exec_insn(bus, uop.insn)?;
                return Ok((c, n, o, true));
            }
        }
        Ok((cycles, next_pc, StepOutcome::Executed, wrote_mem))
    }

    /// Load executor shared by the plain and post-incrementing micro-ops.
    #[inline]
    fn uop_load<B: Bus>(
        &mut self,
        bus: &mut B,
        uop: &MicroOp,
        size: MemSize,
        signed: bool,
        post_inc: bool,
    ) -> Result<u64, ExecError> {
        let base = self.read_idx(uop.ra);
        let addr = if post_inc {
            base
        } else {
            base.wrapping_add(uop.imm as u32)
        };
        let penalty = self.uop_align(addr, size, uop.aux)?;
        let acc = bus.load(self.id, self.time, addr, size)?;
        let cycles = (acc.ready_at - self.time) + u64::from(penalty);
        self.note_mem_stall(acc.ready_at);
        self.write_idx(uop.rd, Self::extend(acc.value, size, signed));
        if post_inc {
            self.write_idx(uop.ra, addr.wrapping_add(uop.imm as u32));
        }
        Ok(cycles)
    }

    /// Store executor shared by the plain and post-incrementing micro-ops
    /// (the source register rides in the `rd` field).
    #[inline]
    fn uop_store<B: Bus>(
        &mut self,
        bus: &mut B,
        uop: &MicroOp,
        size: MemSize,
        post_inc: bool,
    ) -> Result<u64, ExecError> {
        let base = self.read_idx(uop.ra);
        let addr = if post_inc {
            base
        } else {
            base.wrapping_add(uop.imm as u32)
        };
        let penalty = self.uop_align(addr, size, uop.aux)?;
        let done = bus.store(self.id, self.time, addr, size, self.read_idx(uop.rd))?;
        let cycles = (done - self.time) + u64::from(penalty);
        self.note_mem_stall(done);
        if post_inc {
            self.write_idx(uop.ra, addr.wrapping_add(uop.imm as u32));
        }
        Ok(cycles)
    }

    /// [`Core::check_align`] with the policy pre-resolved into the uop's
    /// `aux` field: 0 extra cycles when aligned, `aux` cycles when the core
    /// tolerates misalignment, a fault when `aux` is the sentinel.
    #[inline]
    fn uop_align(&self, addr: u32, size: MemSize, aux: u32) -> Result<u32, ExecError> {
        let bytes = size.bytes();
        if addr & (bytes - 1) == 0 {
            Ok(0)
        } else if aux != u32::MAX {
            Ok(aux)
        } else {
            Err(ExecError::Misaligned {
                addr,
                size: bytes,
                pc: self.pc,
            })
        }
    }

    #[inline]
    fn read_idx(&self, r: u8) -> u32 {
        // Translation only emits indices < 32; the mask proves it to the
        // bounds checker so the hot loop carries no panic branch.
        self.regs[usize::from(r & 31)]
    }

    #[inline]
    fn write_idx(&mut self, r: u8, v: u32) {
        if r != 0 {
            self.regs[usize::from(r & 31)] = v;
        }
    }

    fn note_mem_stall(&mut self, ready_at: u64) {
        self.stats.mem_accesses += 1;
        // A single-cycle access (ready_at == now + 1) is a hit with no stall.
        let stall = ready_at.saturating_sub(self.time + 1);
        self.stats.mem_stall_cycles += stall;
        if stall > 0 {
            self.tracer.emit(
                Component::Core(self.id as u8),
                EventKind::CoreMemStall,
                self.time + 1,
                stall,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::mem::FlatMemory;
    use crate::reg::named::*;

    fn run_prog(model: CoreModel, build: impl FnOnce(&mut Asm)) -> (Core, FlatMemory) {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let prog = a.finish().expect("assembles");
        let mut mem = FlatMemory::new(0, 64 * 1024);
        mem.load_program(&prog, 0).expect("fits");
        let mut core = Core::new(0, model);
        core.reset(0);
        core.run(&mut mem, 10_000_000).expect("runs");
        (core, mem)
    }

    #[test]
    fn arithmetic_basics() {
        let (core, _) = run_prog(CoreModel::risc_baseline(), |a| {
            a.li(R1, 7);
            a.li(R2, -3);
            a.add(R3, R1, R2);
            a.sub(R4, R1, R2);
            a.mul(R5, R1, R2);
            a.insn(Insn::Slt(R6, R2, R1));
        });
        assert_eq!(core.reg(R3), 4);
        assert_eq!(core.reg(R4), 10);
        assert_eq!(core.reg(R5) as i32, -21);
        assert_eq!(core.reg(R6), 1);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (core, _) = run_prog(CoreModel::risc_baseline(), |a| {
            a.li(R1, 42);
            a.add(R0, R1, R1);
        });
        assert_eq!(core.reg(R0), 0);
    }

    #[test]
    fn mac_accumulates() {
        let (core, _) = run_prog(CoreModel::or10n(), |a| {
            a.li(R1, 5);
            a.li(R2, 6);
            a.li(R3, 100);
            a.insn(Insn::Mac(R3, R1, R2));
        });
        assert_eq!(core.reg(R3), 130);
    }

    #[test]
    fn mac_unsupported_on_baseline() {
        let mut a = Asm::new();
        a.insn(Insn::Mac(R3, R1, R2));
        a.halt();
        let prog = a.finish().unwrap();
        let mut mem = FlatMemory::new(0, 4096);
        mem.load_program(&prog, 0).unwrap();
        let mut core = Core::new(0, CoreModel::risc_baseline());
        core.reset(0);
        assert!(matches!(
            core.run(&mut mem, 1000),
            Err(ExecError::UnsupportedInsn { pc: 0 })
        ));
    }

    #[test]
    fn sdotv4_dot_product() {
        // a = [1, 2, 3, 4], b = [5, 6, 7, -8] => 1*5+2*6+3*7+4*(-8) = 6
        let (core, _) = run_prog(CoreModel::or10n(), |a| {
            a.li(R1, 0x0403_0201);
            a.li(R2, 0xF807_0605u32 as i32);
            a.li(R3, 0);
            a.insn(Insn::SdotV4(R3, R1, R2));
        });
        assert_eq!(core.reg(R3) as i32, 6);
    }

    #[test]
    fn sdotv2_dot_product() {
        // a = [100, -2], b = [30, 1000] => 3000 - 2000 = 1000
        let (core, _) = run_prog(CoreModel::or10n(), |a| {
            a.li(R1, ((-2i32 as u32) << 16 | 100) as i32);
            a.li(R2, (1000u32 << 16 | 30) as i32);
            a.li(R3, 0);
            a.insn(Insn::SdotV2(R3, R1, R2));
        });
        assert_eq!(core.reg(R3) as i32, 1000);
    }

    #[test]
    fn mull_mlal_64bit() {
        let (core, _) = run_prog(CoreModel::cortex_m4(), |a| {
            a.li(R1, 100_000);
            a.li(R2, 100_000);
            a.insn(Insn::Mull {
                rd_hi: R4,
                rd_lo: R3,
                ra: R1,
                rb: R2,
                signed: true,
            });
            a.insn(Insn::Mlal {
                rd_hi: R4,
                rd_lo: R3,
                ra: R1,
                rb: R2,
                signed: true,
            });
        });
        let acc = (u64::from(core.reg(R4)) << 32) | u64::from(core.reg(R3));
        assert_eq!(acc, 2 * 100_000u64 * 100_000u64);
    }

    #[test]
    fn mull_signed_negative() {
        let (core, _) = run_prog(CoreModel::cortex_m4(), |a| {
            a.li(R1, -3);
            a.li(R2, 7);
            a.insn(Insn::Mull {
                rd_hi: R4,
                rd_lo: R3,
                ra: R1,
                rb: R2,
                signed: true,
            });
        });
        let acc = ((u64::from(core.reg(R4)) << 32) | u64::from(core.reg(R3))) as i64;
        assert_eq!(acc, -21);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let (core, mem) = run_prog(CoreModel::risc_baseline(), |a| {
            a.li(R1, 0x1000);
            a.li(R2, -123);
            a.insn(Insn::Store {
                rs: R2,
                base: R1,
                offset: 0,
                size: MemSize::Word,
            });
            a.insn(Insn::Load {
                rd: R3,
                base: R1,
                offset: 0,
                size: MemSize::Word,
                signed: true,
            });
            a.insn(Insn::Load {
                rd: R4,
                base: R1,
                offset: 0,
                size: MemSize::Byte,
                signed: true,
            });
            a.insn(Insn::Load {
                rd: R5,
                base: R1,
                offset: 0,
                size: MemSize::Byte,
                signed: false,
            });
            a.insn(Insn::Load {
                rd: R6,
                base: R1,
                offset: 0,
                size: MemSize::Half,
                signed: true,
            });
        });
        assert_eq!(core.reg(R3) as i32, -123);
        assert_eq!(core.reg(R4) as i32, i32::from(-123i8));
        assert_eq!(core.reg(R5), u32::from((-123i8) as u8));
        assert_eq!(core.reg(R6) as i32, -123);
        assert_eq!(mem.read_u32(0x1000).unwrap(), -123i32 as u32);
    }

    #[test]
    fn post_increment_load_advances_base() {
        let (core, _) = run_prog(CoreModel::cortex_m4(), |a| {
            a.li(R1, 0x1000);
            a.li(R2, 7);
            a.insn(Insn::Store {
                rs: R2,
                base: R1,
                offset: 0,
                size: MemSize::Word,
            });
            a.insn(Insn::LoadPi {
                rd: R3,
                base: R1,
                inc: 4,
                size: MemSize::Word,
                signed: true,
            });
        });
        assert_eq!(core.reg(R3), 7);
        assert_eq!(core.reg(R1), 0x1004);
    }

    #[test]
    fn misaligned_faults_without_unaligned_feature() {
        let mut a = Asm::new();
        a.li(R1, 0x1001);
        a.insn(Insn::Load {
            rd: R2,
            base: R1,
            offset: 0,
            size: MemSize::Word,
            signed: true,
        });
        a.halt();
        let prog = a.finish().unwrap();
        let mut mem = FlatMemory::new(0, 8192);
        mem.load_program(&prog, 0).unwrap();
        let mut core = Core::new(0, CoreModel::risc_baseline());
        core.reset(0);
        assert!(matches!(
            core.run(&mut mem, 1000),
            Err(ExecError::Misaligned { .. })
        ));
    }

    #[test]
    fn misaligned_allowed_with_penalty_on_or10n() {
        let (core, _) = run_prog(CoreModel::or10n(), |a| {
            a.li(R1, 0x1001);
            a.li(R2, 0x0403_0201);
            a.insn(Insn::Store {
                rs: R2,
                base: R1,
                offset: 0,
                size: MemSize::Word,
            });
            a.insn(Insn::Load {
                rd: R3,
                base: R1,
                offset: 0,
                size: MemSize::Word,
                signed: true,
            });
        });
        assert_eq!(core.reg(R3), 0x0403_0201);
    }

    #[test]
    fn hw_loop_executes_exact_count() {
        let (core, _) = run_prog(CoreModel::or10n(), |a| {
            a.li(R1, 10); // count
            a.li(R2, 0); // accumulator
            a.hw_loop(0, R1, |a| {
                a.addi(R2, R2, 1);
                a.addi(R3, R3, 2);
            });
        });
        assert_eq!(core.reg(R2), 10);
        assert_eq!(core.reg(R3), 20);
    }

    #[test]
    fn hw_loop_zero_count_skips_body() {
        let (core, _) = run_prog(CoreModel::or10n(), |a| {
            a.li(R1, 0);
            a.li(R2, 0);
            a.hw_loop(0, R1, |a| {
                a.addi(R2, R2, 1);
                a.nop();
            });
            a.addi(R4, R4, 9); // must still execute
        });
        assert_eq!(core.reg(R2), 0);
        assert_eq!(core.reg(R4), 9);
    }

    #[test]
    fn nested_hw_loops() {
        let (core, _) = run_prog(CoreModel::or10n(), |a| {
            a.li(R1, 3); // outer count
            a.li(R2, 4); // inner count
            a.li(R3, 0);
            a.hw_loop(1, R1, |a| {
                a.nop();
                a.hw_loop(0, R2, |a| {
                    a.addi(R3, R3, 1);
                    a.nop();
                });
            });
        });
        assert_eq!(core.reg(R3), 12);
    }

    #[test]
    fn hw_loop_is_zero_overhead_vs_branch_loop() {
        // Same 10-iteration loop body; the branch version pays the
        // taken-branch penalty per iteration, the HW loop does not.
        let (hw, _) = run_prog(CoreModel::or10n(), |a| {
            a.li(R1, 10);
            a.hw_loop(0, R1, |a| {
                a.addi(R2, R2, 1);
                a.nop();
            });
        });
        let (sw, _) = run_prog(CoreModel::or10n(), |a| {
            a.li(R1, 10);
            let top = a.new_label();
            a.bind(top);
            a.addi(R2, R2, 1);
            a.addi(R1, R1, -1);
            a.bne(R1, R0, top);
        });
        assert_eq!(hw.reg(R2), 10);
        assert_eq!(sw.reg(R2), 10);
        assert!(
            hw.time() < sw.time(),
            "hw loop {} should beat sw loop {}",
            hw.time(),
            sw.time()
        );
    }

    #[test]
    fn branch_taken_costs_more_than_not_taken() {
        let (taken, _) = run_prog(CoreModel::risc_baseline(), |a| {
            let l = a.new_label();
            a.beq(R0, R0, l);
            a.bind(l);
            a.nop();
        });
        let (not_taken, _) = run_prog(CoreModel::risc_baseline(), |a| {
            let l = a.new_label();
            a.bne(R0, R0, l);
            a.bind(l);
            a.nop();
        });
        assert!(taken.time() > not_taken.time());
        assert_eq!(taken.stats().branches_taken, 1);
        assert_eq!(not_taken.stats().branches_taken, 0);
    }

    #[test]
    fn jal_jalr_call_and_return() {
        let (core, _) = run_prog(CoreModel::risc_baseline(), |a| {
            let func = a.new_label();
            let after = a.new_label();
            a.jal_to(R31, func);
            a.li(R2, 1); // executed after return
            a.jmp(after);
            a.bind(func);
            a.li(R1, 99);
            a.insn(Insn::Jalr(R0, R31, 0));
            a.bind(after);
        });
        assert_eq!(core.reg(R1), 99);
        assert_eq!(core.reg(R2), 1);
    }

    #[test]
    fn csr_reads() {
        let mut a = Asm::new();
        a.insn(Insn::Csrr(R1, Csr::CoreId));
        a.insn(Insn::Csrr(R2, Csr::NumCores));
        a.halt();
        let prog = a.finish().unwrap();
        let mut mem = FlatMemory::new(0, 4096);
        mem.load_program(&prog, 0).unwrap();
        let mut core = Core::new(3, CoreModel::or10n());
        core.set_num_cores(4);
        core.reset(0);
        core.run(&mut mem, 1000).unwrap();
        assert_eq!(core.reg(R1), 3);
        assert_eq!(core.reg(R2), 4);
    }

    #[test]
    fn wfe_with_pending_event_does_not_sleep() {
        let mut a = Asm::new();
        a.wfe();
        a.li(R1, 5);
        a.halt();
        let prog = a.finish().unwrap();
        let mut mem = FlatMemory::new(0, 4096);
        mem.load_program(&prog, 0).unwrap();
        let mut core = Core::new(0, CoreModel::or10n());
        core.reset(0);
        core.post_event();
        core.run(&mut mem, 1000).unwrap();
        assert_eq!(core.reg(R1), 5);
    }

    #[test]
    fn wfe_without_event_sleeps_and_wake_resumes() {
        let mut a = Asm::new();
        a.wfe();
        a.li(R1, 5);
        a.halt();
        let prog = a.finish().unwrap();
        let mut mem = FlatMemory::new(0, 4096);
        mem.load_program(&prog, 0).unwrap();
        let mut core = Core::new(0, CoreModel::or10n());
        core.reset(0);
        assert!(matches!(core.step(&mut mem), Ok(StepOutcome::Sleeping)));
        assert_eq!(core.state(), CoreState::Sleeping);
        core.wake(100);
        assert_eq!(core.state(), CoreState::Running);
        assert!(core.time() >= 100);
        assert!(core.stats().sleep_cycles > 0);
        core.run(&mut mem, 10_000).unwrap();
        assert_eq!(core.reg(R1), 5);
    }

    #[test]
    fn tas_returns_old_value_and_sets() {
        let (core, mem) = run_prog(CoreModel::or10n(), |a| {
            a.li(R1, 0x2000);
            a.insn(Insn::Tas(R2, R1)); // old = 0
            a.insn(Insn::Tas(R3, R1)); // old = 1
        });
        assert_eq!(core.reg(R2), 0);
        assert_eq!(core.reg(R3), 1);
        assert_eq!(mem.read_u32(0x2000).unwrap(), 1);
    }

    #[test]
    fn div_by_zero_semantics() {
        let (core, _) = run_prog(CoreModel::cortex_m4(), |a| {
            a.li(R1, 17);
            a.insn(Insn::Div(R2, R1, R0));
            a.insn(Insn::Divu(R3, R1, R0));
            a.li(R4, 5);
            a.insn(Insn::Div(R5, R1, R4));
        });
        assert_eq!(core.reg(R2), u32::MAX);
        assert_eq!(core.reg(R3), u32::MAX);
        assert_eq!(core.reg(R5), 3);
    }

    #[test]
    fn m3_mac_slower_than_m4() {
        let build = |a: &mut Asm| {
            a.li(R1, 3);
            a.li(R2, 4);
            for _ in 0..16 {
                a.insn(Insn::Mac(R3, R1, R2));
            }
        };
        let (m3, _) = run_prog(CoreModel::cortex_m3(), build);
        let (m4, _) = run_prog(CoreModel::cortex_m4(), build);
        assert_eq!(m3.reg(R3), m4.reg(R3));
        assert!(m3.time() > m4.time());
    }

    #[test]
    fn trace_records_retired_instructions() {
        let mut a = Asm::new();
        a.li(R1, 2);
        a.add(R2, R1, R1);
        a.halt();
        let prog = a.finish().unwrap();
        let mut mem = FlatMemory::new(0, 4096);
        mem.load_program(&prog, 0).unwrap();
        let mut core = Core::new(0, CoreModel::or10n());
        core.enable_trace(16);
        core.reset(0);
        core.run(&mut mem, 1000).unwrap();
        let t = core.trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].pc, 0);
        assert_eq!(t[1].insn, Insn::Add(R2, R1, R1));
        assert!(t[2].retired_at >= t[1].retired_at);
        // The cap is honoured.
        let mut capped = Core::new(0, CoreModel::or10n());
        capped.enable_trace(2);
        capped.reset(0);
        capped.run(&mut mem, 1000).unwrap();
        assert_eq!(capped.trace().len(), 2);
        capped.disable_trace();
        assert!(capped.trace().is_empty());
    }

    #[test]
    fn retired_counts_instructions() {
        let (core, _) = run_prog(CoreModel::risc_baseline(), |a| {
            a.li(R1, 3); // may be 1-2 insns
            a.nop();
            a.nop();
        });
        // li(3) = 1 insn; + 2 nops + halt = 4.
        assert_eq!(core.stats().retired, 4);
    }
}
