//! The cluster stepping engine: cores + shared memories + event unit.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ulp_isa::{
    Access, Block, BlockExit, Bus, BusError, Core, CoreModel, CoreState, ExecError, Fetched,
    MemSize, Program, Reg, StepOutcome,
};
use ulp_trace::{Component, EventKind, Tracer};

use crate::config::ClusterConfig;
use crate::dma::Dma;
use crate::event::EventUnit;
use crate::icache::ICache;
use crate::l2::L2Memory;
use crate::stats::{ClusterActivity, EpochAbort, EpochStats};
use crate::tcdm::{Tcdm, TcdmTimingSnapshot};
use crate::{EVT_BROADCAST, EVT_EOC, L2_BASE, TCDM_BASE};

/// Epoch engine: first lookahead horizon tried after `start`.
const EPOCH_HORIZON_START: u64 = 128;
/// Epoch engine: horizon floor after repeated rollbacks.
const EPOCH_HORIZON_MIN: u64 = 64;
/// Epoch engine: horizon ceiling after repeated commits.
const EPOCH_HORIZON_MAX: u64 = 4096;
/// Cycles of exact interleaved execution appended past an epoch-failure
/// point, so clustered causes (cold-I$ fill trains, barrier flurries) are
/// absorbed by one fallback window instead of one rollback each.
const EPOCH_FALLBACK_GRACE: u64 = 64;
/// Fetch-timing result for a speculative I$ miss: far past any horizon, so
/// the replay exits on its bound check right after the conflicting op.
/// Small enough that the time arithmetic of a few more ops cannot wrap.
const EPOCH_CONFLICT_STALL: u64 = 1 << 40;
/// Epoch engine: modelled cycles the catch-up top-up round (see
/// [`Cluster::close_boundary`]) aims past the boundary. Deliberately tiny:
/// overshooting moves the boundary itself (the extension's own accesses
/// raise the largest committed issue time), which would make the other
/// cores lag in turn.
const EPOCH_TOPUP_GRACE: u64 = 1;
/// Marks a logged TCDM access as a write (bit 31 of the word index).
const EPOCH_WRITE_BIT: u32 = 1 << 31;
/// Epoch engine: repair merge pops between state checkpoints (see
/// [`RepairCkpt`]). Bounds a resumed pass's re-popped prefix.
const EPOCH_REPAIR_CKPT_EVERY: u64 = 256;
/// Epoch engine: modelled cycles per replay chunk round. Wide epochs
/// replay in chunk rounds with an incremental repair pass between them,
/// so a data-order violation is detected within a chunk of where it
/// happened instead of after the whole window was speculated.
const EPOCH_CHUNK: u64 = 1024;

/// Error raised while running a cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClusterError {
    /// A core faulted.
    Exec {
        /// Index of the faulting core.
        core: usize,
        /// The underlying execution error.
        err: ExecError,
    },
    /// Every non-halted core is asleep with no event in flight.
    Deadlock,
    /// The run exceeded the cycle budget.
    Timeout {
        /// The budget that was exceeded.
        max_cycles: u64,
    },
    /// A memory operation outside simulation (loader, readback) failed.
    Bus(BusError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Exec { core, err } => write!(f, "core {core} faulted: {err}"),
            ClusterError::Deadlock => write!(f, "all cores asleep with no event in flight"),
            ClusterError::Timeout { max_cycles } => {
                write!(f, "run exceeded {max_cycles} cycles")
            }
            ClusterError::Bus(e) => write!(f, "bus access failed: {e}"),
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Exec { err, .. } => Some(err),
            ClusterError::Bus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BusError> for ClusterError {
    fn from(e: BusError) -> Self {
        ClusterError::Bus(e)
    }
}

/// Result of a completed cluster run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Cycles elapsed between start and the last core halting.
    pub cycles: u64,
    /// Absolute cluster time at completion.
    pub end_time: u64,
    /// Time at which the end-of-computation wire was raised, if it was.
    pub eoc_at: Option<u64>,
    /// Component activity counters for the run (power-model input).
    pub activity: ClusterActivity,
}

/// Why a sleeping core is asleep.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum WaitReason {
    #[default]
    None,
    Event,
    Barrier,
}

/// Shared memory system: TCDM + L2 + shared instruction cache + the
/// memory-mapped DMA programming interface.
#[derive(Clone, Debug)]
struct ClusterBus {
    tcdm: Tcdm,
    l2: L2Memory,
    icache: ICache,
    l2_data_latency: u32,
    dma: Dma,
    dma_src: u32,
    dma_dst: u32,
    dma_len: u32,
    dma_done_at: u64,
    tracer: Tracer,
}

impl ClusterBus {
    fn dma_mmio_store(&mut self, now: u64, addr: u32, value: u32) -> Result<u64, BusError> {
        match addr - crate::DMA_MMIO_BASE {
            0x0 => self.dma_src = value,
            0x4 => self.dma_dst = value,
            0x8 => self.dma_len = value,
            0xC => {
                // Writing the command register launches the transfer.
                self.copy(self.dma_src, self.dma_dst, self.dma_len as usize)?;
                self.dma_done_at = self.dma.schedule(now, self.dma_len as usize);
            }
            _ => return Err(BusError::Unmapped { addr }),
        }
        Ok(now + 1)
    }

    fn dma_mmio_load(&mut self, now: u64, addr: u32) -> Result<Access, BusError> {
        let value = match addr - crate::DMA_MMIO_BASE {
            0x0 => self.dma_src,
            0x4 => self.dma_dst,
            0x8 => self.dma_len,
            0xC => u32::from(now >= self.dma_done_at), // 1 = idle/done
            _ => return Err(BusError::Unmapped { addr }),
        };
        Ok(Access {
            value,
            ready_at: now + 1,
        })
    }

    /// Functional copy between any two mapped regions.
    fn copy(&mut self, src: u32, dst: u32, len: usize) -> Result<(), BusError> {
        let bytes: Vec<u8> = if self.tcdm.contains(src) {
            self.tcdm.read_bytes(src, len)?.to_vec()
        } else if self.l2.contains(src) {
            self.l2.read_bytes(src, len)?.to_vec()
        } else {
            return Err(BusError::Unmapped { addr: src });
        };
        if self.tcdm.contains(dst) {
            self.tcdm.write_bytes(dst, &bytes)
        } else if self.l2.contains(dst) {
            self.l2.write_bytes(dst, &bytes)
        } else {
            Err(BusError::Unmapped { addr: dst })
        }
    }
}

impl Bus for ClusterBus {
    fn load(
        &mut self,
        _core_id: usize,
        now: u64,
        addr: u32,
        size: MemSize,
    ) -> Result<Access, BusError> {
        // TCDM first: all but a sliver of kernel data traffic lands there,
        // and the windows are disjoint so dispatch order is semantics-free.
        if self.tcdm.contains(addr) {
            let (value, ready_at) = self.tcdm.load(now, addr, size)?;
            Ok(Access { value, ready_at })
        } else if crate::dma_mmio_contains(addr) {
            self.dma_mmio_load(now, addr)
        } else if self.l2.contains(addr) {
            let value = self.l2.load_raw(addr, size)?;
            Ok(Access {
                value,
                ready_at: now + u64::from(self.l2_data_latency),
            })
        } else {
            Err(BusError::Unmapped { addr })
        }
    }

    fn store(
        &mut self,
        _core_id: usize,
        now: u64,
        addr: u32,
        size: MemSize,
        value: u32,
    ) -> Result<u64, BusError> {
        if self.tcdm.contains(addr) {
            self.tcdm.store(now, addr, size, value)
        } else if crate::dma_mmio_contains(addr) {
            self.dma_mmio_store(now, addr, value)
        } else if self.l2.contains(addr) {
            self.l2.store_raw(addr, size, value)?;
            Ok(now + u64::from(self.l2_data_latency))
        } else {
            Err(BusError::Unmapped { addr })
        }
    }

    fn tas(&mut self, _core_id: usize, now: u64, addr: u32) -> Result<Access, BusError> {
        if self.tcdm.contains(addr) {
            let (value, ready_at) = self.tcdm.tas(now, addr)?;
            Ok(Access { value, ready_at })
        } else {
            Err(BusError::Unmapped { addr })
        }
    }

    fn fetch(&mut self, core_id: usize, now: u64, pc: u32) -> Result<Fetched, BusError> {
        // Timing first so the I$ model (and its trace events) sees the
        // access even when the word turns out to be undecodable, exactly
        // like the hardware front-end.
        let ready_at = self.fetch_timing(core_id, now, pc);
        let insn = self.l2.fetch_insn(pc)?;
        Ok(Fetched { insn, ready_at })
    }

    fn fetch_timing(&mut self, _core_id: usize, now: u64, pc: u32) -> u64 {
        let penalty = self.icache.access(pc);
        if penalty > 0 {
            self.tracer.emit(
                Component::ICache,
                EventKind::IcacheMiss,
                now,
                u64::from(penalty),
            );
        }
        now + u64::from(penalty)
    }

    fn microop_block(&mut self, _core_id: usize, pc: u32, model: &CoreModel) -> Option<Arc<Block>> {
        self.l2.microop_block(pc, model)
    }

    fn code_generation(&self) -> u64 {
        // Only L2 serves instruction fetches, so only its decoded side
        // table can go stale under self-modifying stores.
        self.l2.decode_generation()
    }
}

/// Per-word order track for the epoch engine's exact data-flow check in
/// [`repair_schedule`]. A stale `stamp` means "untouched this pass" —
/// bumping the stamp invalidates the whole map in O(1).
#[derive(Clone, Copy, Debug, Default)]
struct WordTrack {
    stamp: u64,
    /// 1 + the largest application sequence among accesses already popped
    /// (exact-ordered before the current one); 0 = none.
    max_any: u32,
    /// Same, over writes only.
    max_write: u32,
}

/// One logged TCDM access for the post-replay exact re-simulation.
#[derive(Clone, Copy, Debug)]
struct MemAccess {
    bank: u32,
    /// TCDM word index, with [`EPOCH_WRITE_BIT`] flagging a write.
    word_w: u32,
    /// Application sequence of the replay segment that issued this
    /// access — the order speculative values were applied to memory in
    /// (round-one replays in core-index order, then top-up segments).
    seg: u32,
    /// Modelled issue time. Every data access is issued at the core's
    /// op-entry time (and speculative fetches never advance the clock —
    /// an I$ miss aborts), so per core these are the op start times.
    now: u64,
    /// Bank-busy end mark the modelled arbitration computed
    /// (`ready_at` = stalled start + 1 for the single-beat accesses the
    /// epoch speculates), i.e. `now + modelled stall + 1`.
    mark: u64,
}

/// A periodic snapshot of the repair merge state, so a pass rerun after a
/// boundary top-up can resume mid-merge instead of starting over.
///
/// Valid because pops are monotone in shifted issue time: a core's next
/// access satisfies `shifted' >= shifted + 1 + exact stall` (the modelled
/// gap to the next op entry is at least `1 + modelled stall`, and the
/// shift update replaces the modelled stall with the exact one), so the
/// greedy min-merge never pops below an earlier pop. Top-up extensions
/// only append accesses whose eventual pop time is at or above the topped
/// core's pre-top-up exact stop; any checkpoint strictly below the
/// smallest such stop therefore precedes every merge divergence. Strictly:
/// an appended access can pop at exactly that stop, and a checkpoint tied
/// there may already cover same-shifted pops from higher-index cores that
/// the `(shifted, core)` tie-break orders after the appended access, so a
/// tied checkpoint does not precede the divergence.
#[derive(Clone, Copy, Debug)]
struct RepairCkpt {
    /// Shifted issue time of the last pop this checkpoint covers.
    last_shifted: i64,
    /// Word-track journal length at the checkpoint (rewind target).
    journal_len: usize,
    conflict_delta: i64,
    max_issue: i64,
    pops: u64,
}

/// Reusable scratch for the epoch engine: every allocation the speculate /
/// repair / commit / rollback cycle needs, hoisted out of the per-epoch
/// path.
#[derive(Clone, Debug, Default)]
struct EpochScratch {
    /// Current pass stamp for `words` (see [`WordTrack::stamp`]).
    stamp: u64,
    /// Per-TCDM-word order tracks, sized lazily on first epoch.
    words: Vec<WordTrack>,
    /// Per-core TCDM access logs, each in program order.
    logs: Vec<Vec<MemAccess>>,
    /// Byte-level undo log of every speculative TCDM mutation, in commit
    /// order: `(addr, len, old bytes)`.
    undo: Vec<(u32, u8, [u8; 4])>,
    /// Pre-replay snapshots of the cores that entered the epoch.
    saved_cores: Vec<(usize, Core)>,
    /// Pre-epoch TCDM timing/PMU state.
    tcdm_snap: TcdmTimingSnapshot,
    /// Per-bank free clock of the exact re-simulation; on commit this
    /// *is* the reference's bank state.
    repair_free: Vec<u64>,
    /// Per-core accumulated timeline shift (exact minus modelled stalls).
    sigma: Vec<i64>,
    /// Per-core running max of `sigma`, for the deadline-crossing guard.
    sigma_max: Vec<i64>,
    /// Per-core merge cursors of the re-simulation.
    cursors: Vec<usize>,
    /// Per-core cached shifted issue time of the cursor head
    /// (`i64::MAX` = log exhausted), so a merge pop re-derives one
    /// entry instead of re-reading four logs.
    next_key: Vec<i64>,
    /// Bitmap of TCDM words written by any replay this epoch, filled at
    /// log time. Reads of never-written words — the vast majority —
    /// skip the data-flow check entirely: with no write this epoch, no
    /// order can contradict the applied values. Keeps the hot repair
    /// loop out of the (cache-hostile) per-word track map.
    written: Vec<u64>,
    /// Committed `sigma` of the previous epoch. Kernels are loopy, so a
    /// core's stall-modelling error repeats epoch over epoch; biasing
    /// each core's replay bound by it lands the exact stop times close
    /// together, which is what the boundary check needs.
    sigma_prev: Vec<i64>,
    /// Undo journal of `words` updates in the current repair pass:
    /// `(word, previous track)`, pushed before each slow-path update so a
    /// resume can rewind the map to a checkpoint. Entries are deduped
    /// per era (see [`EpochScratch::journal_era`]): within an era only
    /// the first touch of a word is journaled — its value at era start —
    /// so a reverse rewind over whole eras still lands exactly on the
    /// checkpoint state, and a hot accumulator word costs one entry per
    /// era instead of one per access.
    journal: Vec<(u32, WordTrack)>,
    /// Journal-dedup era, bumped at every checkpoint push and at every
    /// repair-pass entry (so marks left in a rewound suffix can never
    /// suppress a needed push). Monotone for the scratch's lifetime.
    journal_era: u64,
    /// Per-word era of the last journal push; a word is journaled at
    /// most once per era.
    journal_mark: Vec<u64>,
    /// Periodic merge-state checkpoints of the current repair pass
    /// (ascending `last_shifted`), with their per-bank free clocks and
    /// per-core lanes flattened alongside.
    ckpts: Vec<RepairCkpt>,
    /// `nbanks` free-clock entries per checkpoint.
    ckpt_free: Vec<u64>,
    /// `2 * ncores` entries per checkpoint: `sigma`, then `sigma_max`.
    ckpt_lanes: Vec<i64>,
    /// `ncores` merge-cursor entries per checkpoint.
    ckpt_cursors: Vec<usize>,
    /// Decision counters, summed over the cluster's runs.
    stats: EpochStats,
}

/// The epoch engine's speculation bus: wraps the real [`ClusterBus`] with
/// the access log and the undo log, so one core's private replay can run
/// the ordinary micro-op path unmodified.
///
/// Each core replays against the *pre-epoch* bank-free state (the loop
/// restores it between segments), blind to the other cores: its modelled
/// stalls are self-arbitration only, and every mis-modelled cross-core
/// stall is re-derived exactly from the logs by [`repair_schedule`]
/// afterwards. (A per-access model of the other cores' replayed marks was
/// tried here and removed: it cost more per access than the smaller
/// repair shifts saved.) What the replay cannot repair it aborts on the
/// spot by flagging `conflict_at`: accesses outside the word-granular log
/// model (split accesses, DMA registers, L2 stores), I$ misses, and raw
/// fetches.
struct EpochBus<'a> {
    bus: &'a mut ClusterBus,
    /// The replaying core's access log (appended in program order; taken
    /// out of [`EpochScratch::logs`] for the duration of the replay).
    log: &'a mut Vec<MemAccess>,
    /// See [`EpochScratch::written`].
    written: &'a mut [u64],
    undo: &'a mut Vec<(u32, u8, [u8; 4])>,
    /// Application sequence of this replay segment.
    seg: u32,
    /// Whether the cross-core machinery is live (more than one core
    /// replays this epoch). A solo replay *is* the exact global schedule
    /// — no other core can access memory while the rest sleep — so it
    /// skips lift modelling and access logging entirely.
    checks: bool,
    /// Issue time and class of the first access the speculation could
    /// not keep exact; `Some` aborts the epoch.
    conflict_at: Option<(u64, EpochAbort)>,
}

impl EpochBus<'_> {
    /// Locates an access for the log: returns the bank and word indices.
    /// `None` aborts the epoch: an access crossing a word boundary takes
    /// a second beat on the next bank, which the one-mark-per-access log
    /// cannot represent.
    fn pre_access(&mut self, now: u64, addr: u32, len: u32) -> Option<(usize, u32)> {
        if !self.checks {
            return Some((0, 0));
        }
        let base = self.bus.tcdm.base();
        let word = (addr - base) >> 2;
        if (addr + len - 1 - base) >> 2 != word {
            self.conflict_at
                .get_or_insert((now, EpochAbort::SplitAccess));
            return None;
        }
        Some((self.bus.tcdm.bank_index(addr), word))
    }

    /// Logs one arbitrated access for [`repair_schedule`].
    fn log_access(&mut self, bank: usize, word: u32, write: bool, now: u64, mark: u64) {
        if self.checks {
            self.log.push(MemAccess {
                bank: bank as u32,
                word_w: word | if write { EPOCH_WRITE_BIT } else { 0 },
                seg: self.seg,
                now,
                mark,
            });
            if write {
                self.written[(word >> 6) as usize] |= 1 << (word & 63);
            }
        }
    }

    /// Logs the bytes a TCDM mutation is about to clobber.
    fn log_undo(&mut self, addr: u32, len: u32) -> Result<(), BusError> {
        let old = self.bus.tcdm.read_bytes(addr, len as usize)?;
        let mut bytes = [0u8; 4];
        bytes[..old.len()].copy_from_slice(old);
        self.undo.push((addr, len as u8, bytes));
        Ok(())
    }

    /// Flags an access the epoch must never speculate (DMA registers, L2
    /// stores) and returns the error that unwinds the replay; the exact
    /// fallback window re-executes the access for real, with real errors.
    fn refuse(&mut self, now: u64, addr: u32) -> BusError {
        self.conflict_at.get_or_insert((now, EpochAbort::Refused));
        BusError::Unmapped { addr }
    }
}

impl Bus for EpochBus<'_> {
    fn load(
        &mut self,
        _core_id: usize,
        now: u64,
        addr: u32,
        size: MemSize,
    ) -> Result<Access, BusError> {
        if self.bus.tcdm.contains(addr) {
            let Some((bank, word)) = self.pre_access(now, addr, size.bytes()) else {
                return Err(BusError::Unmapped { addr });
            };
            let (value, ready_at) = self.bus.tcdm.load(now, addr, size)?;
            self.log_access(bank, word, false, now, ready_at);
            Ok(Access { value, ready_at })
        } else if crate::dma_mmio_contains(addr) {
            // DMA status reads race the (globally ordered) transfer clock.
            Err(self.refuse(now, addr))
        } else if self.bus.l2.contains(addr) {
            // Constant latency, read-only within an epoch (L2 stores
            // abort), counter snapshot-restored on rollback: safe.
            let value = self.bus.l2.load_raw(addr, size)?;
            Ok(Access {
                value,
                ready_at: now + u64::from(self.bus.l2_data_latency),
            })
        } else {
            // A genuine fault: unwind, and let the exact window reproduce
            // the error with reference-identical surfacing.
            Err(BusError::Unmapped { addr })
        }
    }

    fn store(
        &mut self,
        _core_id: usize,
        now: u64,
        addr: u32,
        size: MemSize,
        value: u32,
    ) -> Result<u64, BusError> {
        if self.bus.tcdm.contains(addr) {
            let Some((bank, word)) = self.pre_access(now, addr, size.bytes()) else {
                return Err(BusError::Unmapped { addr });
            };
            self.log_undo(addr, size.bytes())?;
            let done = self.bus.tcdm.store(now, addr, size, value)?;
            self.log_access(bank, word, true, now, done);
            Ok(done)
        } else if crate::dma_mmio_contains(addr) || self.bus.l2.contains(addr) {
            // DMA launches are globally ordered; L2 stores invalidate the
            // decoded side table. Neither rolls back: re-run exactly.
            Err(self.refuse(now, addr))
        } else {
            Err(BusError::Unmapped { addr })
        }
    }

    fn tas(&mut self, _core_id: usize, now: u64, addr: u32) -> Result<Access, BusError> {
        if self.bus.tcdm.contains(addr) {
            let Some((bank, word)) = self.pre_access(now, addr, 4) else {
                return Err(BusError::Unmapped { addr });
            };
            self.log_undo(addr, 4)?;
            let (value, ready_at) = self.bus.tcdm.tas(now, addr)?;
            self.log_access(bank, word, true, now, ready_at);
            Ok(Access { value, ready_at })
        } else {
            Err(BusError::Unmapped { addr })
        }
    }

    fn fetch(&mut self, _core_id: usize, now: u64, pc: u32) -> Result<Fetched, BusError> {
        // Block replay never decodes through the bus; reaching here would
        // mean stepping outside the translated path — don't speculate it.
        Err(self.refuse(now, pc))
    }

    fn fetch_timing(&mut self, _core_id: usize, now: u64, pc: u32) -> u64 {
        // Hits are order-independent (direct-mapped, tags untouched; the
        // hot-line filter is semantically invisible), so they commit; the
        // hit counter is snapshot-restored on rollback. A miss would fill
        // a tag other cores' interleaved fetches might see first: abort,
        // pushing the clock past every bound so the replay exits right
        // after this op.
        if self.conflict_at.is_none() && self.bus.icache.probe_hit(pc) {
            now
        } else {
            self.conflict_at
                .get_or_insert((now, EpochAbort::ICacheMiss));
            now + EPOCH_CONFLICT_STALL
        }
    }

    fn microop_block(&mut self, _core_id: usize, pc: u32, model: &CoreModel) -> Option<Arc<Block>> {
        // Translation is cache-transparent: no code write commits inside
        // an epoch, so the decode generation cannot move mid-replay.
        self.bus.l2.microop_block(pc, model)
    }

    fn code_generation(&self) -> u64 {
        self.bus.l2.decode_generation()
    }
}

/// Replays one core privately up to the modelled time `bound`. Returns
/// `None` when the core cleanly consumed its window — bound reached, or
/// halted (core-private, commutes with every other replay) — or
/// `Some((fail_time, class))` when the epoch must roll back: a conflict
/// flagged by the bus, a scheduler-visible outcome (sleep, event,
/// barrier), a `CycleLo` read (the one value the clock feeds — a repaired
/// commit would have produced a different read), a PC with no
/// translatable block, or a fault. `fail_time` tells the fallback how far
/// exact execution must run to get past the cause.
///
/// Entering with `time > bound` is allowed (boundary top-ups do): the
/// post-op bound check still guarantees at least one op of progress, and
/// the committed per-core prefixes are arbitrary — [`repair_schedule`]
/// and the boundary check carry the correctness argument, not the cut.
#[allow(clippy::too_many_arguments)]
fn replay_core(
    core: &mut Core,
    bus: &mut ClusterBus,
    index: usize,
    seg: u32,
    deadline: u64,
    bound: u64,
    checks: bool,
    epoch: &mut EpochScratch,
) -> Option<(u64, EpochAbort)> {
    if checks {
        core.watch_cycle_csr();
    }
    let mut own_log = std::mem::take(&mut epoch.logs[index]);
    let mut ebus = EpochBus {
        bus,
        log: &mut own_log,
        written: &mut epoch.written,
        undo: &mut epoch.undo,
        seg,
        checks,
        conflict_at: None,
    };
    let fail = loop {
        let exit = core.exec_resume(&mut ebus, deadline, bound);
        if let Some(conflict) = ebus.conflict_at {
            break Some(conflict);
        }
        let class = match exit {
            Ok(Some(BlockExit::Bound | BlockExit::Deadline)) => break None,
            Ok(Some(BlockExit::Outcome(StepOutcome::Halted))) => break None,
            Ok(Some(BlockExit::Redirect)) => continue,
            Ok(Some(BlockExit::Outcome(StepOutcome::Sleeping))) => EpochAbort::Sleep,
            Ok(Some(BlockExit::Outcome(StepOutcome::BarrierArrived))) => EpochAbort::Barrier,
            Ok(Some(BlockExit::Outcome(_))) => EpochAbort::Event,
            Ok(None) => EpochAbort::NoBlock,
            Err(_) => EpochAbort::Fault,
        };
        break Some((core.time(), class));
    };
    epoch.logs[index] = own_log;
    if fail.is_none() && checks {
        // The latched time of the first read — not `core.time()` — so a
        // cycle-CSR polling loop re-executes exactly only up to the read
        // plus grace, not the whole replayed window.
        if let Some(t) = core.cycle_csr_read_at() {
            return Some((t, EpochAbort::CycleLo));
        }
    }
    fail
}

/// Exact post-replay re-simulation of the TCDM arbiter over the merged
/// per-core access logs, in the reference's processing order
/// `(exact issue time, core index)` — the repair pass that turns the
/// modelled private schedules into the proven reference one.
///
/// The modelled issue times in the logs are wrong wherever a replay
/// mis-modelled a cross-core stall, but the *gaps* between one core's
/// accesses are timing-independent: no architectural value depends on
/// the clock (`CycleLo` reads abort the epoch), so mis-timed stalls
/// shift a core's subsequent ops rigidly without changing what they do.
/// Each core's exact timeline is therefore its modelled one plus a
/// running shift `sigma`: for every access, exact issue = modelled
/// issue + `sigma`; the exact stall `d_e` falls out of the re-simulated
/// bank free clock; the modelled stall `d_m` is recovered from the
/// logged mark (`mark - issue - 1`); and `sigma += d_e - d_m`. A merge
/// by shifted issue time (lower core index wins ties, the reference
/// tie-break) thus reconstructs the exact arbitration chain — stalls,
/// conflict counts, final bank state — without re-executing anything.
///
/// Data flow is validated in the same pass. Speculative values hit
/// memory in application-sequence order (`seg`), so the replayed values
/// are exact iff the exact order never contradicts it: popping an access
/// (exact order) whose word saw an application-*later* write — or
/// popping a write whose word saw any application-later access — means
/// some replay read or clobbered the wrong value. Both directions reduce
/// to one check per pop against per-word running maxima of popped
/// segments (the reverse direction is caught when the other access of
/// the pair pops).
///
/// On success, `epoch.sigma` holds each core's final shift,
/// `epoch.sigma_max` its running maximum, `epoch.repair_free` the exact
/// final bank state, and the result carries the conflict-count
/// correction (exact minus modelled stalled accesses) plus the largest
/// exact issue time, which the epoch boundary check needs. On failure,
/// returns `Err(modelled issue time)` of the offending access for the
/// fallback window.
///
/// `resume_before` reruns the pass after a boundary top-up: the merge
/// resumes from the latest checkpoint strictly below the given shifted
/// time (the smallest pre-top-up exact stop among the topped-up cores —
/// see [`RepairCkpt`] for why only a strictly-earlier checkpoint is a
/// divergence-free prefix) instead of re-popping the whole epoch.
fn repair_schedule(
    epoch: &mut EpochScratch,
    ncores: usize,
    resume_before: Option<i64>,
) -> Result<(i64, i64), u64> {
    let nbanks = epoch.tcdm_snap.bank_free.len();
    let mut conflict_delta = 0i64;
    let mut max_issue = i64::MIN;
    let mut pops = 0u64;
    let mut resumed = false;
    if let Some(limit) = resume_before {
        // Latest checkpoint whose last pop is strictly below the limit;
        // everything at or after the limit is rewound and re-popped.
        // Strict, not `<=`: a topped-up core's first appended access can
        // pop at exactly `shifted == limit` (its resume time plus sigma),
        // and the `(shifted, core)` tie-break may order it before a
        // same-shifted pop from a higher-index core that a checkpoint
        // tied at the limit already committed (see [`RepairCkpt`]).
        let mut k = epoch.ckpts.len();
        while k > 0 && epoch.ckpts[k - 1].last_shifted >= limit {
            k -= 1;
        }
        if k > 0 {
            let ck = epoch.ckpts[k - 1];
            while epoch.journal.len() > ck.journal_len {
                let (w, t) = epoch.journal.pop().expect("len checked");
                epoch.words[w as usize] = t;
            }
            epoch.repair_free.clear();
            epoch
                .repair_free
                .extend_from_slice(&epoch.ckpt_free[(k - 1) * nbanks..][..nbanks]);
            let lanes = &epoch.ckpt_lanes[(k - 1) * 2 * ncores..][..2 * ncores];
            epoch.sigma.clear();
            epoch.sigma.extend_from_slice(&lanes[..ncores]);
            epoch.sigma_max.clear();
            epoch.sigma_max.extend_from_slice(&lanes[ncores..]);
            epoch.cursors.clear();
            epoch
                .cursors
                .extend_from_slice(&epoch.ckpt_cursors[(k - 1) * ncores..][..ncores]);
            conflict_delta = ck.conflict_delta;
            max_issue = ck.max_issue;
            pops = ck.pops;
            epoch.ckpts.truncate(k);
            epoch.ckpt_free.truncate(k * nbanks);
            epoch.ckpt_lanes.truncate(k * 2 * ncores);
            epoch.ckpt_cursors.truncate(k * ncores);
            resumed = true;
        }
    }
    if !resumed {
        epoch.stamp += 1;
        epoch.repair_free.clear();
        epoch
            .repair_free
            .extend_from_slice(&epoch.tcdm_snap.bank_free);
        epoch.cursors.clear();
        epoch.cursors.resize(ncores, 0);
        epoch.sigma.clear();
        epoch.sigma.resize(ncores, 0);
        epoch.sigma_max.clear();
        epoch.sigma_max.resize(ncores, 0);
        epoch.journal.clear();
        epoch.ckpts.clear();
        epoch.ckpt_free.clear();
        epoch.ckpt_lanes.clear();
        epoch.ckpt_cursors.clear();
    }
    epoch.journal_era += 1;
    let stamp = epoch.stamp;
    // Split borrows for the merge below — the hot loop of every repair
    // pass. Indexed through `epoch`, every store forces the optimizer to
    // re-load each vector's base pointer (it cannot prove the heap
    // buffers are disjoint); per-field slices keep the loop state in
    // registers.
    let EpochScratch {
        logs,
        words,
        written,
        sigma,
        sigma_max,
        cursors,
        next_key,
        repair_free,
        journal,
        journal_era,
        journal_mark,
        ckpts,
        ckpt_free,
        ckpt_lanes,
        ckpt_cursors,
        ..
    } = epoch;
    let logs: &[Vec<MemAccess>] = &logs[..ncores];
    let words = words.as_mut_slice();
    let written = written.as_slice();
    let journal_mark = journal_mark.as_mut_slice();
    let repair_free = repair_free.as_mut_slice();
    // Per-core shifted head keys, cached so a pop re-derives one entry
    // instead of re-reading four log heads. Recomputed on resume too:
    // top-ups may have extended logs a checkpoint saw as exhausted.
    next_key.clear();
    for c in 0..ncores {
        next_key.push(
            logs[c]
                .get(cursors[c])
                .map_or(i64::MAX, |e| e.now as i64 + sigma[c]),
        );
    }
    let next_key = next_key.as_mut_slice();
    let sigma = sigma.as_mut_slice();
    let sigma_max = sigma_max.as_mut_slice();
    let cursors = cursors.as_mut_slice();
    let mut next_ckpt_at = (pops / EPOCH_REPAIR_CKPT_EVERY + 1) * EPOCH_REPAIR_CKPT_EVERY;
    let mut last_shifted = i64::MIN;
    loop {
        // Next access in exact `(shifted issue, core)` order; the strict
        // `<` over an ascending core scan is the low-index tie-break.
        let mut shifted = i64::MAX;
        let mut c = usize::MAX;
        for (i, &k) in next_key.iter().enumerate() {
            if k < shifted {
                shifted = k;
                c = i;
            }
        }
        if c == usize::MAX {
            break;
        }
        if pops == next_ckpt_at {
            next_ckpt_at += EPOCH_REPAIR_CKPT_EVERY;
            ckpts.push(RepairCkpt {
                last_shifted,
                journal_len: journal.len(),
                conflict_delta,
                max_issue,
                pops,
            });
            ckpt_free.extend_from_slice(repair_free);
            ckpt_lanes.extend_from_slice(sigma);
            ckpt_lanes.extend_from_slice(sigma_max);
            ckpt_cursors.extend_from_slice(cursors);
            *journal_era += 1;
        }
        pops += 1;
        last_shifted = shifted;
        let e = logs[c][cursors[c]];
        cursors[c] += 1;

        // Exact arbitration of this access.
        let f = &mut repair_free[e.bank as usize];
        let start = shifted.max(*f as i64);
        let d_e = start - shifted;
        let d_m = (e.mark - e.now) as i64 - 1;
        conflict_delta += i64::from(d_e > 0) - i64::from(d_m > 0);
        *f = (start + 1) as u64;
        sigma[c] += d_e - d_m;
        sigma_max[c] = sigma_max[c].max(sigma[c]);
        max_issue = max_issue.max(shifted);
        next_key[c] = logs[c]
            .get(cursors[c])
            .map_or(i64::MAX, |n| n.now as i64 + sigma[c]);

        // Exact-vs-application data-flow order. Reads of words no replay
        // wrote this epoch need no check or tracking: with no write, no
        // order can contradict the applied values, and their running
        // maxima would only ever gate a write to the same word. The
        // bitmap test keeps the common all-read case out of the
        // cache-hostile per-word map.
        let write = e.word_w & EPOCH_WRITE_BIT != 0;
        let word = e.word_w & !EPOCH_WRITE_BIT;
        if !write && written[(word >> 6) as usize] & (1 << (word & 63)) == 0 {
            continue;
        }
        let wi = word as usize;
        if journal_mark[wi] != *journal_era {
            journal_mark[wi] = *journal_era;
            journal.push((word, words[wi]));
        }
        let t = &mut words[wi];
        if t.stamp != stamp {
            *t = WordTrack {
                stamp,
                max_any: 0,
                max_write: 0,
            };
        }
        let seg1 = e.seg + 1;
        let hazard = if write { t.max_any } else { t.max_write };
        if hazard > seg1 {
            return Err(e.now);
        }
        t.max_any = t.max_any.max(seg1);
        if write {
            t.max_write = t.max_write.max(seg1);
        }
    }
    Ok((conflict_delta, max_issue))
}

/// A simulated PULP-style cluster.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct Cluster {
    config: ClusterConfig,
    cores: Vec<Core>,
    waits: Vec<WaitReason>,
    bus: ClusterBus,
    event_unit: EventUnit,
    start_time: u64,
    tracer: Tracer,
    /// Scheduling-key shadow array, reused across runs (the micro-op and
    /// epoch loops re-initialize it; per-run allocation was measurable on
    /// the repeated cold+warm offload pattern).
    sched_keys: Vec<u64>,
    epoch: EpochScratch,
}

impl Cluster {
    /// Builds a cluster from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`ClusterConfig::validate`]).
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        config.validate();
        let cores = (0..config.num_cores)
            .map(|id| {
                let mut c = Core::new(id, config.core_model);
                c.set_num_cores(config.num_cores as u32);
                c
            })
            .collect();
        Cluster {
            cores,
            waits: vec![WaitReason::None; config.num_cores],
            bus: ClusterBus {
                tcdm: Tcdm::new(TCDM_BASE, config.tcdm_size, config.tcdm_banks),
                l2: L2Memory::new(L2_BASE, config.l2_size),
                icache: ICache::new(
                    config.icache_size,
                    config.icache_line,
                    config.icache_miss_penalty,
                ),
                l2_data_latency: config.l2_data_latency,
                dma: Dma::new(config.dma_channels, config.dma_setup),
                dma_src: 0,
                dma_dst: 0,
                dma_len: 0,
                dma_done_at: 0,
                tracer: Tracer::disabled(),
            },
            event_unit: EventUnit::new(config.num_cores),
            config,
            start_time: 0,
            tracer: Tracer::disabled(),
            sched_keys: Vec::new(),
            epoch: EpochScratch::default(),
        }
    }

    /// Attaches a structured event tracer to the cluster and every
    /// component inside it (cores, TCDM arbiter, DMA, I$). The tracer's
    /// recording survives [`Cluster::start`]: repeated runs lay out
    /// sequentially on the cluster timeline via the tracer's epoch.
    ///
    /// Attaching a disabled tracer (the default) detaches instrumentation;
    /// simulated timing is identical either way.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for core in &mut self.cores {
            core.set_tracer(tracer.clone());
        }
        self.bus.tcdm.set_tracer(tracer.clone());
        self.bus.dma.set_tracer(tracer.clone());
        self.bus.tracer = tracer.clone();
        self.tracer = tracer;
    }

    /// The configuration this cluster was built with.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The epoch engine's decision counters, summed over every run of
    /// this cluster (all zero under the reference engine).
    #[must_use]
    pub fn epoch_stats(&self) -> &EpochStats {
        &self.epoch.stats
    }

    /// Immutable access to a core (inspection, tests).
    #[must_use]
    pub fn core(&self, id: usize) -> &Core {
        &self.cores[id]
    }

    /// Loads a program binary into L2 and invalidates the instruction
    /// cache. Returns the absolute rodata base address.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Bus`] if the image does not fit in L2.
    pub fn load_binary(&mut self, prog: &Program, base: u32) -> Result<u32, ClusterError> {
        let rodata = self.bus.l2.load_program(prog, base)?;
        self.bus.icache.invalidate();
        Ok(rodata)
    }

    /// Writes raw bytes into the TCDM (DMA/QSPI-slave back-door; timing is
    /// modelled by the caller).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Bus`] outside the TCDM window.
    pub fn write_tcdm(&mut self, addr: u32, bytes: &[u8]) -> Result<(), ClusterError> {
        Ok(self.bus.tcdm.write_bytes(addr, bytes)?)
    }

    /// Reads raw bytes from the TCDM.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Bus`] outside the TCDM window.
    pub fn read_tcdm(&self, addr: u32, len: usize) -> Result<Vec<u8>, ClusterError> {
        Ok(self.bus.tcdm.read_bytes(addr, len)?.to_vec())
    }

    /// Reads a 32-bit word from the TCDM.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Bus`] outside the TCDM window.
    pub fn read_tcdm_u32(&self, addr: u32) -> Result<u32, ClusterError> {
        let b = self.bus.tcdm.read_bytes(addr, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Writes raw bytes into L2.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Bus`] outside the L2 window.
    pub fn write_l2(&mut self, addr: u32, bytes: &[u8]) -> Result<(), ClusterError> {
        Ok(self.bus.l2.write_bytes(addr, bytes)?)
    }

    /// Reads raw bytes from L2.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Bus`] outside the L2 window.
    pub fn read_l2(&self, addr: u32, len: usize) -> Result<Vec<u8>, ClusterError> {
        Ok(self.bus.l2.read_bytes(addr, len)?.to_vec())
    }

    /// Resets all cores to `entry` at time `at`, loads `args` into the
    /// registers of every core (SPMD launch: the generated code branches on
    /// the core-id CSR), clears the event unit and PMU counters.
    ///
    /// This models the *fetch-enable* GPIO edge of the prototype: "a fetch
    /// enable used to trigger execution of the benchmark" (paper §III-C).
    pub fn start(&mut self, entry: u32, args: &[(Reg, u32)], at: u64) {
        for core in &mut self.cores {
            core.reset(entry);
            core.advance_time_to(at);
            for &(r, v) in args {
                core.set_reg(r, v);
            }
        }
        self.waits.fill(WaitReason::None);
        self.event_unit.reset();
        self.bus.tcdm.reset_stats();
        self.bus.l2.reset_stats();
        self.bus.icache.reset_stats();
        self.bus.dma.reset_stats();
        self.bus.dma_done_at = 0;
        self.start_time = at;
    }

    /// Time at which the EOC wire was raised, if it was.
    #[must_use]
    pub fn eoc_at(&self) -> Option<u64> {
        self.event_unit.eoc_at()
    }

    fn route_event(&mut self, from: usize, id: u8) {
        let at = self.cores[from].time();
        match id {
            EVT_EOC => self.event_unit.raise_eoc(at),
            EVT_BROADCAST => {
                // The event unit's wake-up port serves one core per cycle,
                // staggering the team by a cycle each — which also breaks
                // the pathological lockstep in which identical SPMD code
                // hits the same TCDM bank on every access.
                let mut offset = 0u64;
                for i in 0..self.cores.len() {
                    if i != from {
                        self.wake_or_latch(i, at + offset);
                        offset += 1;
                    }
                }
            }
            n if (1..=32).contains(&n) => {
                let target = (n - 1) as usize;
                if target < self.cores.len() && target != from {
                    self.wake_or_latch(target, at);
                }
            }
            _ => {}
        }
    }

    fn wake_or_latch(&mut self, target: usize, at: u64) {
        if self.cores[target].state() == CoreState::Sleeping
            && self.waits[target] == WaitReason::Event
        {
            self.cores[target].wake(at);
            self.waits[target] = WaitReason::None;
        } else {
            self.cores[target].post_event();
        }
    }

    /// Runs until every core has halted (or faults/deadlocks/times out).
    ///
    /// Cores are interleaved lowest-local-time-first so shared-resource
    /// arbitration happens in approximate global order. Two engines
    /// implement that schedule (see [`ClusterConfig::engine`]) — the
    /// reference one-instruction-per-scan loop and an epoch loop that
    /// speculatively replays every core privately up to a
    /// conflict-checked horizon; they retire the exact same instruction
    /// sequence and produce bit-identical results.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] on core faults, deadlock, or exceeding
    /// `max_cycles`.
    pub fn run_until_halt(&mut self, max_cycles: u64) -> Result<RunResult, ClusterError> {
        let deadline = self.start_time + max_cycles;
        match self.config.engine {
            crate::Engine::Reference => self.run_loop_reference(deadline, max_cycles)?,
            crate::Engine::Epoch => self.run_loop_epoch(deadline, max_cycles)?,
        }

        let end_time = self
            .cores
            .iter()
            .map(Core::time)
            .max()
            .unwrap_or(self.start_time);
        let cycles = end_time - self.start_time;
        let activity = self.collect_activity(cycles);
        ulp_isa::perf::add_retired(activity.total_retired());
        self.record_counters(&activity);
        // Lay the next run out after this one on the shared trace timeline.
        self.tracer.advance_cluster_epoch(end_time);
        Ok(RunResult {
            cycles,
            end_time,
            eoc_at: self.event_unit.eoc_at(),
            activity,
        })
    }

    /// Reference scheduler: rescan for the lowest-local-time running core
    /// before every single instruction. This is the executable definition
    /// of the interleaving order; the epoch engine is validated against it.
    fn run_loop_reference(&mut self, deadline: u64, max_cycles: u64) -> Result<(), ClusterError> {
        loop {
            // Pick the running core with the smallest local time.
            let mut next: Option<usize> = None;
            for (i, c) in self.cores.iter().enumerate() {
                if c.state() == CoreState::Running
                    && next.is_none_or(|n| c.time() < self.cores[n].time())
                {
                    next = Some(i);
                }
            }
            let Some(i) = next else {
                if self.cores.iter().all(|c| c.state() == CoreState::Halted) {
                    return Ok(());
                }
                return Err(ClusterError::Deadlock);
            };
            if self.cores[i].time() > deadline {
                return Err(ClusterError::Timeout { max_cycles });
            }
            let outcome = self.cores[i]
                .step(&mut self.bus)
                .map_err(|err| ClusterError::Exec { core: i, err })?;
            self.apply_outcome(i, outcome);
        }
    }

    /// Exact micro-op scheduler, private to the epoch engine: it runs
    /// traced epoch runs wholesale and every exact fallback window after a
    /// rollback. It picks the frontmost running core once, then batches
    /// that core through pre-decoded basic-block micro-ops
    /// ([`ulp_isa::Core::exec_resume`]) for as long as the choice the
    /// reference scheduler would make stays the same. Once the frontmost
    /// *running* core's local time exceeds `until`, the loop returns
    /// `Ok(())` at a scan boundary (a consistent scheduler state) instead
    /// of running to halt; `u64::MAX` never pauses.
    ///
    /// Correctness argument: the reference order is argmin over running
    /// cores of the key `(local_time, core_index)` — the strict `<` scan in
    /// [`Self::run_loop_reference`] keeps the first (lowest-index) core on
    /// time ties. A step whose outcome is `Executed` only mutates the
    /// stepped core and the shared bus; no other core's state or time
    /// changes, so the next argmin is either still core `i` (iff
    /// `(t_i, i) < second`, where `second` is the runner-up key from the
    /// scan — keys never compare equal because indices are distinct) or
    /// `second`'s core. Any other outcome (halt, sleep, event, barrier) can
    /// change other cores' states, so we apply its side effects and rescan.
    /// The batch cut-off `(t_i, i) > second` is evaluated *after* each
    /// retired instruction, and for a fixed core index it is a pure
    /// threshold on the local time, so it converts exactly to the time bound
    /// passed to `exec_resume`: `t ≤ bound ⟺ ((t << shift) | i) ≤ second`.
    /// (Post-retire times are ≥ 1, so the `saturating_sub` corner at
    /// `second >> shift == 0` is unreachable.) `exec_resume` checks the
    /// deadline before each op, the outcome/bound after each op, and on
    /// any redirect (taken branch, stale block, block end) looks up the
    /// block at the new PC and keeps batching the same core, exactly as a
    /// one-step-at-a-time batch would keep stepping it.
    /// Blocks are built from the same decoded side table the reference
    /// fetch uses, and the I$ model is consulted once per retired
    /// instruction either way, so the stepped sequence is exactly the
    /// reference sequence, instruction for instruction, and every
    /// observable output (`RunResult`, activity counters, trace events) is
    /// bit-identical.
    ///
    /// Scheduling keys pack `(time, index)` into one u64 —
    /// `(time << shift) | index`, with `shift` wide enough for every
    /// index — preserving the lexicographic order of the reference scan
    /// while making both the scan and the per-step batch check single
    /// integer compares. Times stay far below `u64::MAX >> shift` (runs
    /// are bounded by `max_cycles`), so the packing cannot wrap.
    ///
    /// Each core keeps its current block resident (`Core::exec_resume`),
    /// so the ~2-op batches that time-aligned SPMD cores produce resume
    /// mid-block for the cost of a pc + generation compare instead of a
    /// cache look-up and an `Arc` round-trip per batch.
    fn run_loop_microop_until(
        &mut self,
        deadline: u64,
        max_cycles: u64,
        until: u64,
    ) -> Result<(), ClusterError> {
        let shift = usize::BITS - self.cores.len().saturating_sub(1).leading_zeros();
        let index_mask = (1u64 << shift) - 1;
        let key_of = |c: &Core, i: usize| {
            if c.state() == CoreState::Running {
                (c.time() << shift) | i as u64
            } else {
                u64::MAX
            }
        };
        // Compact shadow of each core's scheduling key. Cores are large and
        // live on scattered cache lines; batches are ~2 ops on time-aligned
        // SPMD cores, so the per-batch best/second scan runs over this
        // array instead and only the entries that could have changed are
        // refreshed: the core that just ran, or all of them after an
        // outcome with cluster-level side effects (wake-ups move other
        // cores' clocks). The array itself lives on the cluster so the
        // repeated cold+warm offload runs (and every epoch fallback
        // window) reuse one allocation.
        self.sched_keys.clear();
        for i in 0..self.cores.len() {
            self.sched_keys.push(key_of(&self.cores[i], i));
        }
        'outer: loop {
            let mut best = u64::MAX;
            let mut second = u64::MAX;
            for &key in &self.sched_keys {
                second = second.min(best.max(key));
                best = best.min(key);
            }
            if best == u64::MAX {
                if self.cores.iter().all(|c| c.state() == CoreState::Halted) {
                    return Ok(());
                }
                return Err(ClusterError::Deadlock);
            }
            if (best >> shift) > until {
                return Ok(());
            }
            let i = (best & index_mask) as usize;
            // The largest local time that keeps `(time, i)` ahead of the
            // runner-up key — the batch cut-off as a plain bound.
            let bound = if second == u64::MAX {
                u64::MAX
            } else if (i as u64) <= (second & index_mask) {
                second >> shift
            } else {
                (second >> shift).saturating_sub(1)
            };
            let outcome = loop {
                if let Some(exit) = self.cores[i]
                    .exec_resume(&mut self.bus, deadline, bound)
                    .map_err(|err| ClusterError::Exec { core: i, err })?
                {
                    match exit {
                        BlockExit::Outcome(outcome) => break outcome,
                        BlockExit::Bound => {
                            self.sched_keys[i] = key_of(&self.cores[i], i);
                            continue 'outer;
                        }
                        BlockExit::Deadline => {
                            return Err(ClusterError::Timeout { max_cycles });
                        }
                        BlockExit::Redirect => {}
                    }
                    continue;
                }
                // No block starts here (undecodable or unmapped word): one
                // reference step — which also reproduces the exact fetch
                // error, or executes the lone instruction a just-patched
                // word decodes to.
                if self.cores[i].time() > deadline {
                    return Err(ClusterError::Timeout { max_cycles });
                }
                let outcome = self.cores[i]
                    .step(&mut self.bus)
                    .map_err(|err| ClusterError::Exec { core: i, err })?;
                if outcome != StepOutcome::Executed {
                    break outcome;
                }
                if ((self.cores[i].time() << shift) | i as u64) > second {
                    self.sched_keys[i] = key_of(&self.cores[i], i);
                    continue 'outer;
                }
            };
            self.apply_outcome(i, outcome);
            // Barrier releases and events may have woken (and re-clocked)
            // any core: refresh every key on this rare path.
            for (j, key) in self.sched_keys.iter_mut().enumerate() {
                *key = key_of(&self.cores[j], j);
            }
        }
    }

    /// Epoch scheduler: break the lockstep batching ceiling with optimistic
    /// per-core replay. Each round picks a horizon past the frontmost
    /// running core's time, snapshots the speculation-mutable state, and
    /// lets every resident core replay its micro-op blocks *privately* up
    /// to that horizon — modelling cross-core TCDM conflict stalls from
    /// the already-replayed segments' bank marks as it goes (see
    /// [`EpochBus`]) — then repairs the modelled timelines into the exact
    /// interleaved one ([`repair_schedule`]) and commits cycles, retires,
    /// memory traffic and TCDM arbitration in bulk. What cannot be
    /// repaired — a cross-core data-order violation, an I$ miss, a
    /// scheduler-visible outcome (sleep/event/barrier), a `CycleLo` read,
    /// a fault, or a commit boundary that top-ups cannot close — rolls
    /// the whole epoch back and runs an exact micro-op window past the
    /// failure point instead.
    ///
    /// Correctness argument, per committed epoch: no event, wake, barrier
    /// or sleep commits speculatively, so the committed work is "each
    /// running core runs some prefix of its future ops". Per-core state
    /// composes trivially (replay executes the real micro-op path), and
    /// the cut points are arbitrary; what must be proven exact is the
    /// shared state. (a) TCDM: access streams are timing-independent (the
    /// only clock-dependent value, `CycleLo`, aborts), so the logs
    /// determine the exact arbitration; [`repair_schedule`] re-derives
    /// it, patches each core's clock and stall counter by its accumulated
    /// shift (every data stall adds `start - issue` to both, so the
    /// uniform patch is exact), corrects the conflict counter, installs
    /// the exact final bank clocks, and validates word-level data flow
    /// against application order. (b) The boundary check guarantees every
    /// *future* access sorts after every committed one — each running
    /// core's exact resume time must clear the epoch's largest exact
    /// issue time (cores short of it are replayed a bit further first) —
    /// so later arbitration against the committed bank clocks stays
    /// exact; a sleeping core cannot sneak in earlier, since its waker's
    /// own ops lie past that boundary. (c) The deadline guard: a positive
    /// shift could move a committed op past the run deadline, executing
    /// work the reference would have timed out before — epochs start only
    /// a full horizon clear of the deadline, and a commit whose shifted
    /// op starts could cross it aborts (the exact tail reproduces
    /// timeouts bit-identically). (d) I$ hits are order-independent (tags
    /// untouched), misses abort; L2 data loads are constant-latency
    /// reads; the remaining counters are order-free sums. Rollback
    /// restores cores from snapshots, TCDM bytes from the undo log
    /// (newest first), and the touched counters, so a failed epoch is
    /// state-identical to never having speculated.
    ///
    /// The horizon adapts — doubling on commit, halving on rollback —
    /// driven only by simulated state, so runs are deterministic across
    /// hosts and `--jobs`. Structured tracing needs events in exact global
    /// order, which per-core replay does not produce: trace runs delegate
    /// to the exact micro-op loop wholesale (bit-identical by battery).
    fn run_loop_epoch(&mut self, deadline: u64, max_cycles: u64) -> Result<(), ClusterError> {
        if self.tracer.is_enabled() {
            return self.exact_window(deadline, max_cycles, u64::MAX);
        }
        let words = self.bus.tcdm.size() / 4;
        if self.epoch.words.len() < words {
            self.epoch.words.resize(words, WordTrack::default());
        }
        if self.epoch.written.len() < words.div_ceil(64) {
            self.epoch.written.resize(words.div_ceil(64), 0);
        }
        if self.epoch.journal_mark.len() < words {
            self.epoch.journal_mark.resize(words, 0);
        }
        let ncores = self.cores.len();
        if self.epoch.logs.len() < ncores {
            self.epoch.logs.resize_with(ncores, Vec::new);
        }
        self.epoch.sigma_prev.clear();
        self.epoch.sigma_prev.resize(ncores, 0);
        /// Verified-prefix rewind point for commit salvage: everything a
        /// failure after the snapshot needs restored to make the window
        /// end at the snapshot's chunk boundary instead.
        struct Salvage {
            cores: Vec<Core>,
            undo_len: usize,
            log_lens: Vec<usize>,
            tcdm: TcdmTimingSnapshot,
            l2_accesses: u64,
            icache_hits: u64,
        }
        let mut horizon = EPOCH_HORIZON_START;
        loop {
            let mut front = u64::MAX;
            for c in &self.cores {
                if c.state() == CoreState::Running {
                    front = front.min(c.time());
                }
            }
            if front == u64::MAX {
                if self.cores.iter().all(|c| c.state() == CoreState::Halted) {
                    return Ok(());
                }
                return Err(ClusterError::Deadlock);
            }
            if front > deadline {
                return Err(ClusterError::Timeout { max_cycles });
            }
            if front.saturating_add(horizon) > deadline {
                // Within one horizon of the deadline: finish exactly, so
                // no repaired commit can shift work across the timeout.
                return self.exact_window(deadline, max_cycles, u64::MAX);
            }
            let epoch_end = front + horizon;
            self.epoch.stats.attempted += 1;

            // Speculate: private replays in core-index order (the
            // reference tie-break order). With one replayer the private
            // schedule IS the global one, so the cross-core machinery
            // switches off.
            let replayers = self
                .cores
                .iter()
                .filter(|c| c.state() == CoreState::Running && c.time() <= epoch_end)
                .count();
            let checks = replayers > 1;
            self.epoch.undo.clear();
            self.epoch.saved_cores.clear();
            for l in &mut self.epoch.logs {
                l.clear();
            }
            if checks {
                self.epoch.written.fill(0);
            }
            self.bus
                .tcdm
                .timing_snapshot_into(&mut self.epoch.tcdm_snap);
            let l2_accesses = self.bus.l2.accesses();
            let icache_hits = self.bus.icache.stats_snapshot();

            let mut seg = 0u32;
            let mut failed_at = None;
            let mut contention = false;
            let mut resume_before = None;
            let mut salvage: Option<Salvage> = None;
            // Replay in chunk rounds with an incremental repair pass
            // between rounds: wide windows still replay end to end in one
            // pass per core per chunk, but a data-order violation
            // surfaces within a chunk of where it happened, bounding the
            // speculative work a rollback discards.
            let mut chunk_start = front;
            'chunks: loop {
                let chunk_end = if checks {
                    chunk_start.saturating_add(EPOCH_CHUNK).min(epoch_end)
                } else {
                    epoch_end
                };
                if checks && chunk_start != front {
                    // Mid-window pass over what is logged so far — pure
                    // violation detection; boundary handling runs once at
                    // window end.
                    let r = repair_schedule(&mut self.epoch, ncores, resume_before);
                    if let Err(t) = r {
                        contention = true;
                        failed_at = Some((t, EpochAbort::DataFlow));
                        break 'chunks;
                    }
                    // The next pass (mid-window or boundary) only needs
                    // to re-merge from the smallest stop this chunk's
                    // appends can reach (see [`RepairCkpt`]).
                    resume_before = (0..ncores)
                        .filter(|&i| self.cores[i].state() == CoreState::Running)
                        .map(|i| self.cores[i].time() as i64 + self.epoch.sigma[i])
                        .min();
                    // Everything logged so far just merged clean, so this
                    // boundary is a valid narrower window end: snapshot it,
                    // and a later failure commits the prefix up to here
                    // instead of discarding the whole window.
                    let mut s = salvage.take().unwrap_or(Salvage {
                        cores: Vec::new(),
                        undo_len: 0,
                        log_lens: Vec::new(),
                        tcdm: TcdmTimingSnapshot::default(),
                        l2_accesses: 0,
                        icache_hits: 0,
                    });
                    s.cores.clear();
                    s.cores.extend(self.cores.iter().cloned());
                    s.undo_len = self.epoch.undo.len();
                    s.log_lens.clear();
                    s.log_lens
                        .extend(self.epoch.logs[..ncores].iter().map(Vec::len));
                    self.bus.tcdm.timing_snapshot_into(&mut s.tcdm);
                    s.l2_accesses = self.bus.l2.accesses();
                    s.icache_hits = self.bus.icache.stats_snapshot();
                    salvage = Some(s);
                }
                for i in 0..ncores {
                    if self.cores[i].state() != CoreState::Running
                        || self.cores[i].time() > chunk_end
                    {
                        continue;
                    }
                    if !self.epoch.saved_cores.iter().any(|(j, _)| *j == i) {
                        self.epoch.saved_cores.push((i, self.cores[i].clone()));
                    }
                    // Bias the *window* target by last epoch's shift so
                    // the cores' exact stop times land close together at
                    // the boundary (see `sigma_prev`); intermediate chunk
                    // bounds stay unbiased or the bias would throttle
                    // every chunk. Any bound is sound.
                    let target = if checks {
                        epoch_end.saturating_add_signed(-self.epoch.sigma_prev[i])
                    } else {
                        epoch_end
                    };
                    let bound = chunk_end.min(target);
                    let fail = replay_core(
                        &mut self.cores[i],
                        &mut self.bus,
                        i,
                        seg,
                        deadline,
                        bound,
                        checks,
                        &mut self.epoch,
                    );
                    seg += 1;
                    if checks {
                        // Rewind the arbiter so the next segment also
                        // replays against pre-epoch state.
                        self.bus
                            .tcdm
                            .bank_free_restore(&self.epoch.tcdm_snap.bank_free);
                    }
                    if let Some(t) = fail {
                        failed_at = Some(t);
                        break 'chunks;
                    }
                }
                if chunk_end == epoch_end {
                    break;
                }
                chunk_start = chunk_end;
            }

            // Repair-and-check loop: reconstruct the exact schedule from
            // the logs; cores whose windows end before the epoch's
            // largest exact issue time get topped up (their next accesses
            // could otherwise order before committed ones) and the pass
            // reruns over the extended logs.
            let mut conflict_delta = 0i64;
            let mut salvage_fallback = None;
            loop {
                if let Some(t) = failed_at {
                    // Commit salvage: rewind to the last verified chunk
                    // boundary, if one exists, and run the boundary
                    // handling as if the window had ended there — the
                    // clean prefix commits and only the failed tail is
                    // discarded. Replayed cores, speculative bytes, logs
                    // and counters all return to their boundary values
                    // first.
                    let Some(s) = salvage.take() else { break };
                    for (i, c) in s.cores.into_iter().enumerate() {
                        self.cores[i] = c;
                    }
                    for (addr, len, bytes) in self.epoch.undo.drain(s.undo_len..).rev() {
                        self.bus
                            .tcdm
                            .write_bytes(addr, &bytes[..len as usize])
                            .expect("undo entries were in-bounds when logged");
                    }
                    for (l, &n) in self.epoch.logs[..ncores].iter_mut().zip(&s.log_lens) {
                        l.truncate(n);
                    }
                    self.bus.tcdm.timing_restore(&s.tcdm);
                    self.bus.l2.set_accesses(s.l2_accesses);
                    self.bus.icache.stats_restore(s.icache_hits);
                    salvage_fallback = Some(t);
                    failed_at = None;
                    // The merge state reflects the discarded appends;
                    // redo the truncated prefix from scratch.
                    resume_before = None;
                }
                if failed_at.is_none() && checks {
                    let frontier_cap = epoch_end.saturating_add(horizon);
                    match self.close_boundary(
                        ncores,
                        deadline,
                        front,
                        frontier_cap,
                        &mut seg,
                        &mut resume_before,
                    ) {
                        Ok(delta) => conflict_delta = delta,
                        Err(fail) => {
                            contention |=
                                matches!(fail.1, EpochAbort::DataFlow | EpochAbort::TopupBudget);
                            failed_at = Some(fail);
                        }
                    }
                }
                if failed_at.is_none() {
                    break;
                }
            }
            let Some((fail_time, class)) = failed_at else {
                // Commit: everything the replays mutated stays, patched
                // onto the proven-exact timeline — each core's clock and
                // stall counter move by its final shift, the conflict
                // counter by the exact-minus-modelled difference, and the
                // banks get the exact chain's final clocks.
                if checks {
                    for (i, _) in &self.epoch.saved_cores {
                        let s = self.epoch.sigma[*i];
                        if s != 0 {
                            self.cores[*i].epoch_time_shift(s);
                        }
                    }
                    if conflict_delta != 0 {
                        self.bus.tcdm.conflicts_adjust(conflict_delta);
                    }
                    self.bus.tcdm.bank_free_restore(&self.epoch.repair_free);
                }
                let retired: u64 = self
                    .epoch
                    .saved_cores
                    .iter()
                    .map(|(i, saved)| self.cores[*i].stats().retired - saved.stats().retired)
                    .sum();
                self.epoch.stats.retired_epoch += retired;
                if let Some((t, class)) = salvage_fallback {
                    self.epoch.stats.salvaged += 1;
                    self.epoch.stats.abort(class);
                    // A prefix commit: the tail past the boundary failed,
                    // so the window does not grow, and the exact fallback
                    // steps past the failure cause just as it would after
                    // a full rollback.
                    if contention {
                        horizon = (horizon / 2).max(EPOCH_HORIZON_MIN);
                    }
                    let grace = if contention {
                        EPOCH_FALLBACK_GRACE
                    } else {
                        EPOCH_FALLBACK_GRACE * 4
                    };
                    let until = t.max(front).saturating_add(grace);
                    self.exact_window(deadline, max_cycles, until)?;
                } else {
                    self.epoch.stats.committed += 1;
                    horizon = (horizon * 2).min(EPOCH_HORIZON_MAX);
                }
                continue;
            };

            // Rollback, all or nothing: cores from their snapshots, TCDM
            // bytes newest-first (overlapping writes then restore the
            // pre-epoch value), and the touched timing/PMU state.
            self.epoch.stats.rolled_back += 1;
            self.epoch.stats.abort(class);
            for (i, saved) in self.epoch.saved_cores.drain(..) {
                self.cores[i] = saved;
            }
            for (addr, len, bytes) in self.epoch.undo.drain(..).rev() {
                self.bus
                    .tcdm
                    .write_bytes(addr, &bytes[..len as usize])
                    .expect("undo entries were in-bounds when logged");
            }
            self.bus.tcdm.timing_restore(&self.epoch.tcdm_snap);
            self.bus.l2.set_accesses(l2_accesses);
            self.bus.icache.stats_restore(icache_hits);
            // Only genuine contention failures (data-order violations,
            // boundary non-convergence) indicate the window was too wide;
            // replay-side aborts (I$ misses, barriers, MMIO) are one-off
            // events the fallback window steps past.
            if contention {
                horizon = (horizon / 2).max(EPOCH_HORIZON_MIN);
            }

            // Exact window past the failure cause (plus a little grace so
            // cold-I$ fill trains and barrier flurries cost one window,
            // not one rollback each). Timeouts, deadlocks and faults
            // surface from here with reference-identical payloads.
            let grace = if contention {
                EPOCH_FALLBACK_GRACE
            } else {
                EPOCH_FALLBACK_GRACE * 4
            };
            let until = fail_time.max(front).saturating_add(grace);
            self.exact_window(deadline, max_cycles, until)?;
        }
    }

    /// The epoch's boundary pass: reconstructs the exact schedule from
    /// the logs and tops up every running core whose exact resume time
    /// has not cleared the epoch's largest exact issue time (the
    /// frontier) — its next accesses could otherwise order before
    /// committed ones — rerunning the repair over the extended logs until
    /// no core lags. Returns the conflict-count correction of the proven
    /// schedule, or the failure that ends the window.
    ///
    /// Top-up rule. Round one catches each lagging core up to just past
    /// the frontier. Its new accesses pick up exact stalls and land a few
    /// cycles past the old frontier, so cores that had cleared it lag in
    /// turn; repeating the catch-up makes two halves of the cores take
    /// turns as the lagging set round after round. Every later round
    /// instead advances each lagging core by exactly one op (bound = its
    /// current clock; the post-op bound check stops it after one op).
    /// That op issues at the core's exact resume time, at or below the
    /// frontier, so the frontier moves only through stalls the new
    /// accesses induce in later ones, while every lagging core gains at
    /// least one cycle per round.
    ///
    /// Budget: top-ups may push the frontier at most one horizon past the
    /// window's end (`frontier_cap`). A lagging core sits at or below the
    /// frontier and every round moves it at least one cycle forward, so
    /// the cap bounds the rounds, and the extra replay per core to about
    /// one more window. A frontier that runs that far ahead means the
    /// stalls the top-ups induce outrun the cores — contention, which the
    /// halved horizon of a rollback addresses. The one core a round cannot
    /// move is one whose clock is past the run deadline (a replay runs no
    /// op there), so a lagging core past the deadline ends the window on
    /// the deadline guard and the exact fallback runs into the timeout.
    /// The cap derives from simulated state only, so runs stay
    /// deterministic. Any replay bound is sound: [`repair_schedule`] and
    /// the lag check alone judge exactness.
    fn close_boundary(
        &mut self,
        ncores: usize,
        deadline: u64,
        front: u64,
        frontier_cap: u64,
        seg: &mut u32,
        resume_before: &mut Option<i64>,
    ) -> Result<i64, (u64, EpochAbort)> {
        let mut rounds = 0u64;
        let result = loop {
            let (delta, max_issue) = match repair_schedule(&mut self.epoch, ncores, *resume_before)
            {
                Ok(r) => r,
                Err(t) => break Err((t, EpochAbort::DataFlow)),
            };
            let lagging = |c: &Core, sigma: i64| {
                c.state() == CoreState::Running && c.time() as i64 + sigma <= max_issue
            };
            if !(0..ncores).any(|i| lagging(&self.cores[i], self.epoch.sigma[i])) {
                // Deadline guard (see [`Self::run_loop_epoch`]): every
                // committed op start is below the core's post-window clock,
                // so clock - 1 plus the largest positive shift bounds the
                // latest exact op start.
                let crosses = self.epoch.saved_cores.iter().any(|(i, _)| {
                    self.cores[*i].time() as i128 - 1 + self.epoch.sigma_max[*i] as i128
                        > deadline as i128
                });
                if crosses {
                    break Err((front, EpochAbort::DeadlineGuard));
                }
                for (i, _) in &self.epoch.saved_cores {
                    self.epoch.sigma_prev[*i] = self.epoch.sigma[*i];
                }
                break Ok(delta);
            }
            if max_issue > frontier_cap as i64 {
                break Err((front, EpochAbort::TopupBudget));
            }
            if (0..ncores).any(|i| {
                lagging(&self.cores[i], self.epoch.sigma[i]) && self.cores[i].time() > deadline
            }) {
                break Err((front, EpochAbort::DeadlineGuard));
            }
            rounds += 1;
            // The next pass only needs to re-merge from the smallest
            // topped-up core's pre-top-up exact stop (see [`RepairCkpt`]).
            *resume_before = (0..ncores)
                .filter(|&i| lagging(&self.cores[i], self.epoch.sigma[i]))
                .map(|i| self.cores[i].time() as i64 + self.epoch.sigma[i])
                .min();
            let mut fail = None;
            for i in 0..ncores {
                if !lagging(&self.cores[i], self.epoch.sigma[i]) {
                    continue;
                }
                if !self.epoch.saved_cores.iter().any(|(j, _)| *j == i) {
                    self.epoch.saved_cores.push((i, self.cores[i].clone()));
                }
                let bound = if rounds == 1 {
                    (max_issue + 1 + EPOCH_TOPUP_GRACE as i64 - self.epoch.sigma[i]).max(0) as u64
                } else {
                    self.cores[i].time()
                };
                fail = replay_core(
                    &mut self.cores[i],
                    &mut self.bus,
                    i,
                    *seg,
                    deadline,
                    bound,
                    true,
                    &mut self.epoch,
                );
                *seg += 1;
                self.bus
                    .tcdm
                    .bank_free_restore(&self.epoch.tcdm_snap.bank_free);
                if fail.is_some() {
                    break;
                }
            }
            if let Some(f) = fail {
                break Err(f);
            }
        };
        self.epoch.stats.record_topup_rounds(rounds);
        result
    }

    /// [`Self::run_loop_microop_until`] for the epoch engine, adding what
    /// the window retires to [`EpochStats::retired_exact`].
    fn exact_window(
        &mut self,
        deadline: u64,
        max_cycles: u64,
        until: u64,
    ) -> Result<(), ClusterError> {
        let retired = |cores: &[Core]| cores.iter().map(|c| c.stats().retired).sum::<u64>();
        let before = retired(&self.cores);
        let result = self.run_loop_microop_until(deadline, max_cycles, until);
        self.epoch.stats.retired_exact += retired(&self.cores) - before;
        result
    }

    /// Applies the cluster-level side effects of one step outcome (shared
    /// by all scheduling engines).
    fn apply_outcome(&mut self, i: usize, outcome: StepOutcome) {
        match outcome {
            StepOutcome::Executed | StepOutcome::Halted => {}
            StepOutcome::Sleeping => self.waits[i] = WaitReason::Event,
            StepOutcome::EventSent(id) => self.route_event(i, id),
            StepOutcome::BarrierArrived => {
                self.waits[i] = WaitReason::Barrier;
                if let Some(release) = self.event_unit.barrier_arrive(i, self.cores[i].time()) {
                    let t = release + u64::from(self.config.barrier_latency);
                    self.tracer.emit(
                        Component::Cluster,
                        EventKind::Barrier,
                        release,
                        u64::from(self.config.barrier_latency),
                    );
                    for (j, c) in self.cores.iter_mut().enumerate() {
                        if self.waits[j] == WaitReason::Barrier {
                            c.wake(t);
                            self.waits[j] = WaitReason::None;
                        }
                    }
                }
            }
        }
    }

    /// Publishes the run's busy/total cycles per component to the tracer.
    /// Counters are overwritten each run, so after a cold+warm cost
    /// measurement they describe the warm run — the same numbers reported
    /// in [`RunResult::activity`] and `OffloadReport`.
    fn record_counters(&self, activity: &ClusterActivity) {
        if !self.tracer.is_enabled() {
            return;
        }
        let cycles = activity.total_cycles;
        for (i, &busy) in activity.core_active_cycles.iter().enumerate() {
            self.tracer
                .set_counter(Component::Core(i as u8), busy, cycles);
        }
        self.tracer.set_counter(
            Component::Tcdm,
            activity.tcdm_busy_cycles,
            cycles * self.config.tcdm_banks as u64,
        );
        self.tracer.set_counter(
            Component::ICache,
            activity.icache_misses * u64::from(self.config.icache_miss_penalty),
            cycles,
        );
        self.tracer
            .set_counter(Component::Dma, activity.dma_busy_cycles, cycles);
    }

    fn collect_activity(&self, total_cycles: u64) -> ClusterActivity {
        ClusterActivity {
            total_cycles,
            core_active_cycles: self
                .cores
                .iter()
                .map(|c| c.stats().active_cycles(c.time() - self.start_time))
                .collect(),
            core_retired: self.cores.iter().map(|c| c.stats().retired).collect(),
            tcdm_busy_cycles: self.bus.tcdm.busy_cycles(),
            tcdm_banks: self.config.tcdm_banks,
            tcdm_conflicts: self.bus.tcdm.conflicts(),
            icache_hits: self.bus.icache.hits(),
            icache_misses: self.bus.icache.misses(),
            l2_accesses: self.bus.l2.accesses(),
            dma_busy_cycles: self.bus.dma.busy_cycles(),
            dma_bytes: self.bus.dma.bytes_moved(),
            barriers: self.event_unit.barriers_completed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_isa::prelude::*;
    use ulp_isa::Insn;

    fn quad() -> Cluster {
        quad_on(crate::Engine::default())
    }

    fn quad_on(engine: crate::Engine) -> Cluster {
        Cluster::new(ClusterConfig {
            engine,
            ..ClusterConfig::default()
        })
    }

    /// SPMD program: workers sleep, master wakes them, everyone increments
    /// a private TCDM slot, barrier, halt.
    fn fork_join_prog() -> Program {
        let mut a = Asm::new();
        let worker = a.new_label();
        let body = a.new_label();
        a.insn(Insn::Csrr(R20, Csr::CoreId));
        a.bne(R20, R0, worker);
        // master: prologue then release the team
        a.sev(crate::EVT_BROADCAST);
        a.jmp(body);
        a.bind(worker);
        a.wfe();
        a.bind(body);
        a.la(R1, TCDM_BASE);
        a.slli(R2, R20, 2);
        a.add(R1, R1, R2);
        a.addi(R3, R20, 100);
        a.sw(R3, R1, 0);
        a.barrier();
        // master signals EOC
        let done = a.new_label();
        a.bne(R20, R0, done);
        a.sev(crate::EVT_EOC);
        a.bind(done);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn fork_join_all_cores_participate() {
        let mut cl = quad();
        cl.load_binary(&fork_join_prog(), L2_BASE).unwrap();
        cl.start(L2_BASE, &[], 0);
        let res = cl.run_until_halt(1_000_000).unwrap();
        for i in 0..4 {
            assert_eq!(cl.read_tcdm_u32(TCDM_BASE + 4 * i).unwrap(), 100 + i);
        }
        assert!(res.eoc_at.is_some());
        assert_eq!(res.activity.barriers, 1);
        assert!(res.activity.total_retired() > 0);
    }

    #[test]
    fn single_core_cluster_runs_serial_code() {
        let mut cl = Cluster::new(ClusterConfig {
            num_cores: 1,
            ..ClusterConfig::default()
        });
        let mut a = Asm::new();
        a.li(R1, 21);
        a.add(R1, R1, R1);
        a.la(R2, TCDM_BASE);
        a.sw(R1, R2, 0);
        a.sev(crate::EVT_EOC);
        a.halt();
        let prog = a.finish().unwrap();
        cl.load_binary(&prog, L2_BASE).unwrap();
        cl.start(L2_BASE, &[], 0);
        let res = cl.run_until_halt(10_000).unwrap();
        assert_eq!(cl.read_tcdm_u32(TCDM_BASE).unwrap(), 42);
        assert!(res.eoc_at.unwrap() <= res.end_time);
    }

    #[test]
    fn args_are_visible_to_all_cores() {
        let mut cl = quad();
        let mut a = Asm::new();
        // Every core adds its id to the arg in r3 and stores at id slot.
        a.insn(Insn::Csrr(R20, Csr::CoreId));
        a.add(R4, R3, R20);
        a.la(R1, TCDM_BASE + 0x100);
        a.slli(R2, R20, 2);
        a.add(R1, R1, R2);
        a.sw(R4, R1, 0);
        a.halt();
        let prog = a.finish().unwrap();
        cl.load_binary(&prog, L2_BASE).unwrap();
        cl.start(L2_BASE, &[(R3, 1000)], 0);
        cl.run_until_halt(10_000).unwrap();
        for i in 0..4 {
            assert_eq!(
                cl.read_tcdm_u32(TCDM_BASE + 0x100 + 4 * i).unwrap(),
                1000 + i
            );
        }
    }

    #[test]
    fn deadlock_detected_when_all_sleep() {
        let mut cl = Cluster::new(ClusterConfig {
            num_cores: 2,
            ..ClusterConfig::default()
        });
        let mut a = Asm::new();
        a.wfe();
        a.halt();
        let prog = a.finish().unwrap();
        cl.load_binary(&prog, L2_BASE).unwrap();
        cl.start(L2_BASE, &[], 0);
        assert!(matches!(
            cl.run_until_halt(10_000),
            Err(ClusterError::Deadlock)
        ));
    }

    #[test]
    fn timeout_on_infinite_loop() {
        let mut cl = Cluster::new(ClusterConfig {
            num_cores: 1,
            ..ClusterConfig::default()
        });
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.nop();
        a.jmp(top);
        let prog = a.finish().unwrap();
        cl.load_binary(&prog, L2_BASE).unwrap();
        cl.start(L2_BASE, &[], 0);
        assert!(matches!(
            cl.run_until_halt(5_000),
            Err(ClusterError::Timeout { max_cycles: 5_000 })
        ));
    }

    #[test]
    fn fault_reports_core_index() {
        let mut cl = Cluster::new(ClusterConfig {
            num_cores: 1,
            ..ClusterConfig::default()
        });
        let mut a = Asm::new();
        a.la(R1, 0x5555_0000); // unmapped
        a.lw(R2, R1, 0);
        a.halt();
        let prog = a.finish().unwrap();
        cl.load_binary(&prog, L2_BASE).unwrap();
        cl.start(L2_BASE, &[], 0);
        match cl.run_until_halt(10_000) {
            Err(ClusterError::Exec {
                core: 0,
                err: ExecError::Bus(_),
            }) => {}
            other => panic!("expected bus fault, got {other:?}"),
        }
    }

    #[test]
    fn l2_data_access_slower_than_tcdm() {
        let run_with = |base: u32| {
            let mut cl = Cluster::new(ClusterConfig {
                num_cores: 1,
                ..ClusterConfig::default()
            });
            let mut a = Asm::new();
            a.la(R1, base);
            for _ in 0..32 {
                a.lw(R2, R1, 0);
            }
            a.halt();
            let prog = a.finish().unwrap();
            cl.load_binary(&prog, L2_BASE).unwrap();
            cl.start(L2_BASE, &[], 0);
            cl.run_until_halt(100_000).unwrap().cycles
        };
        let tcdm_cycles = run_with(TCDM_BASE);
        let l2_cycles = run_with(L2_BASE + 0x8000);
        assert!(
            l2_cycles > tcdm_cycles + 32,
            "L2 loads must pay the bus latency"
        );
    }

    #[test]
    fn four_cores_hammering_one_bank_serialize() {
        // Each core loads the same TCDM word 64 times.
        let mut a = Asm::new();
        a.la(R1, TCDM_BASE);
        a.li(R2, 64);
        let top = a.new_label();
        a.bind(top);
        a.lw(R3, R1, 0);
        a.addi(R2, R2, -1);
        a.bne(R2, R0, top);
        a.halt();
        let prog = a.finish().unwrap();

        let mut cl = quad();
        cl.load_binary(&prog, L2_BASE).unwrap();
        cl.start(L2_BASE, &[], 0);
        let res = cl.run_until_halt(1_000_000).unwrap();
        assert!(
            res.activity.tcdm_conflicts > 0,
            "same-bank traffic must conflict"
        );

        // Spread the cores over different banks: far fewer conflicts.
        let mut a = Asm::new();
        a.insn(Insn::Csrr(R20, Csr::CoreId));
        a.slli(R4, R20, 2);
        a.la(R1, TCDM_BASE);
        a.add(R1, R1, R4);
        a.li(R2, 64);
        let top = a.new_label();
        a.bind(top);
        a.lw(R3, R1, 0);
        a.addi(R2, R2, -1);
        a.bne(R2, R0, top);
        a.halt();
        let prog2 = a.finish().unwrap();
        let mut cl2 = quad();
        cl2.load_binary(&prog2, L2_BASE).unwrap();
        cl2.start(L2_BASE, &[], 0);
        let res2 = cl2.run_until_halt(1_000_000).unwrap();
        assert!(res2.activity.tcdm_conflicts < res.activity.tcdm_conflicts);
    }

    #[test]
    fn icache_cold_start_then_warm() {
        let mut cl = Cluster::new(ClusterConfig {
            num_cores: 1,
            ..ClusterConfig::default()
        });
        let mut a = Asm::new();
        a.li(R2, 100);
        let top = a.new_label();
        a.bind(top);
        a.addi(R2, R2, -1);
        a.bne(R2, R0, top);
        a.halt();
        let prog = a.finish().unwrap();
        cl.load_binary(&prog, L2_BASE).unwrap();
        cl.start(L2_BASE, &[], 0);
        let res = cl.run_until_halt(100_000).unwrap();
        assert!(res.activity.icache_misses <= 2);
        assert!(res.activity.icache_hit_rate() > 0.95);
    }

    #[test]
    fn self_modifying_code_through_cluster_fetch_path() {
        // A program that patches one of its own instructions via a data
        // store through the cluster bus, then executes the patched word.
        // This exercises the L2 decoded-instruction cache invalidation: the
        // target was predecoded at load time as `addi r5, r0, 1`, and the
        // store must evict that entry so the fetch path re-decodes the new
        // word.
        let new_word = ulp_isa::encode(&Insn::Addi(R5, R0, 42)).unwrap();
        let build = |target_addr: u32| {
            let mut a = Asm::new();
            a.li(R2, new_word as i32);
            a.la(R1, target_addr);
            a.sw(R2, R1, 0);
            let target_off = a.here();
            a.addi(R5, R0, 1); // patched to `addi r5, r0, 42` before it runs
            a.la(R3, TCDM_BASE);
            a.sw(R5, R3, 0);
            a.halt();
            (a.finish().unwrap(), target_off)
        };
        // Two-pass assembly: measure the patch target's offset with a
        // placeholder address of the same encoding length, then rebuild.
        let (_, target_off) = build(L2_BASE + 4);
        let (prog, check) = build(L2_BASE + target_off);
        assert_eq!(check, target_off);

        let mut cl = Cluster::new(ClusterConfig {
            num_cores: 1,
            ..ClusterConfig::default()
        });
        cl.load_binary(&prog, L2_BASE).unwrap();
        cl.start(L2_BASE, &[], 0);
        cl.run_until_halt(10_000).unwrap();
        assert_eq!(cl.read_tcdm_u32(TCDM_BASE).unwrap(), 42);
    }

    #[test]
    fn engines_bit_identical() {
        let run = |engine: crate::Engine| {
            let mut cl = quad_on(engine);
            cl.load_binary(&fork_join_prog(), L2_BASE).unwrap();
            cl.start(L2_BASE, &[], 0);
            cl.run_until_halt(1_000_000).unwrap()
        };
        assert_eq!(
            run(crate::Engine::Epoch),
            run(crate::Engine::Reference),
            "epoch diverged"
        );
    }

    #[test]
    fn microop_engine_sees_self_modifying_code_in_its_own_block() {
        // Patch the *next* instruction in the same straight-line block: the
        // store bumps the L2 decode generation, the replay must leave the
        // block on the staleness check and the rebuilt block must decode the
        // new word.
        let new_word = ulp_isa::encode(&Insn::Addi(R5, R0, 42)).unwrap();
        let build = |target_addr: u32| {
            let mut a = Asm::new();
            a.li(R2, new_word as i32);
            a.la(R1, target_addr);
            a.sw(R2, R1, 0);
            let target_off = a.here();
            a.addi(R5, R0, 1); // patched to `addi r5, r0, 42` before it runs
            a.la(R3, TCDM_BASE);
            a.sw(R5, R3, 0);
            a.halt();
            (a.finish().unwrap(), target_off)
        };
        let (_, target_off) = build(L2_BASE + 4);
        let (prog, check) = build(L2_BASE + target_off);
        assert_eq!(check, target_off);

        for engine in crate::Engine::ALL {
            let mut cl = Cluster::new(ClusterConfig {
                num_cores: 1,
                engine,
                ..ClusterConfig::default()
            });
            cl.load_binary(&prog, L2_BASE).unwrap();
            cl.start(L2_BASE, &[], 0);
            cl.run_until_halt(10_000).unwrap();
            assert_eq!(
                cl.read_tcdm_u32(TCDM_BASE).unwrap(),
                42,
                "{} engine must observe the patch",
                engine.name()
            );
        }
    }

    #[test]
    fn epoch_engine_matches_reference_under_bank_contention() {
        // Every core hammers the same TCDM words in a tight loop: the
        // shared-operand reads are lockstep (they must pass the bank-order
        // check and commit), while the shared read-modify-write word forces
        // genuine order violations and epoch rollbacks. Both paths must
        // land on reference-identical cycles, retires and memory.
        let prog = {
            let mut a = Asm::new();
            a.insn(Insn::Csrr(R20, Csr::CoreId));
            a.la(R1, TCDM_BASE); // shared operand + contended word
            a.la(R2, TCDM_BASE + 0x100); // private slots
            a.slli(R3, R20, 2);
            a.add(R2, R2, R3);
            a.li(R4, 200);
            let body = a.new_label();
            a.bind(body);
            a.lw(R5, R1, 0); // lockstep shared reads
            a.lw(R6, R1, 4);
            a.add(R5, R5, R6);
            a.sw(R5, R2, 0); // private write
            a.lw(R7, R1, 8); // contended read-modify-write
            a.addi(R7, R7, 1);
            a.sw(R7, R1, 8);
            a.addi(R4, R4, -1);
            a.bne(R4, R0, body);
            a.barrier();
            a.halt();
            a.finish().unwrap()
        };
        let run = |engine: crate::Engine| {
            let mut cl = quad_on(engine);
            cl.load_binary(&prog, L2_BASE).unwrap();
            cl.start(L2_BASE, &[], 0);
            let res = cl.run_until_halt(10_000_000).unwrap();
            let mem: Vec<u32> = (0..0x110)
                .step_by(4)
                .map(|off| cl.read_tcdm_u32(TCDM_BASE + off).unwrap())
                .collect();
            (res, mem)
        };
        let reference = run(crate::Engine::Reference);
        assert_eq!(run(crate::Engine::Epoch), reference);
    }

    #[test]
    fn epoch_engine_matches_reference_with_cycle_csr_polling() {
        // A cycle-CSR poll every iteration: the clock feeds an
        // architectural value, so every epoch aborts and falls back to an
        // exact window bounded at the latched read time. The polled
        // values (accumulated and stored) must still be
        // reference-identical, as must cycles, retires and memory.
        let prog = {
            let mut a = Asm::new();
            a.insn(Insn::Csrr(R20, Csr::CoreId));
            a.la(R1, TCDM_BASE + 0x40);
            a.slli(R2, R20, 3);
            a.add(R1, R1, R2); // 8-byte per-core area: RMW word + sum
            a.li(R4, 300);
            a.li(R6, 0);
            let body = a.new_label();
            a.bind(body);
            a.insn(Insn::Csrr(R5, Csr::CycleLo)); // the poll
            a.add(R6, R6, R5);
            a.lw(R7, R1, 0); // TCDM traffic between polls
            a.addi(R7, R7, 1);
            a.sw(R7, R1, 0);
            a.addi(R4, R4, -1);
            a.bne(R4, R0, body);
            a.sw(R6, R1, 4);
            a.barrier();
            a.halt();
            a.finish().unwrap()
        };
        let run = |engine: crate::Engine| {
            let mut cl = quad_on(engine);
            cl.load_binary(&prog, L2_BASE).unwrap();
            cl.start(L2_BASE, &[], 0);
            let res = cl.run_until_halt(10_000_000).unwrap();
            let mem: Vec<u32> = (0x40..0x60)
                .step_by(4)
                .map(|off| cl.read_tcdm_u32(TCDM_BASE + off).unwrap())
                .collect();
            (res, mem)
        };
        let reference = run(crate::Engine::Reference);
        assert_eq!(run(crate::Engine::Epoch), reference);
    }

    #[test]
    fn repair_resume_rewinds_checkpoints_tied_at_the_limit() {
        // Regression: a topped-up core's first appended access can pop at
        // exactly `shifted == limit` (its resume time plus sigma), and a
        // checkpoint whose last pop ties the limit may already have
        // committed a same-shifted pop from a higher-index core that the
        // `(shifted, core)` tie-break orders *after* the appended access.
        // Resuming from such a checkpoint replays a different arbitration
        // order than a full merge. These synthetic logs land the tie
        // exactly on the 256-pop checkpoint boundary; the resumed pass
        // must match a from-scratch merge over the same logs.
        let access = |bank: u32, now: u64| MemAccess {
            bank,
            word_w: bank, // reads of never-written words: data-flow check off
            seg: 0,
            now,
            mark: now + 1, // modelled stall-free (d_m = 0)
        };
        // Core 0: bank 0 at even times 0..=254. Core 1: bank 1 at odd
        // times 1..=253, then *bank 0* at 255 (pop #256), then bank 1
        // past the tie so the merge keeps going and pushes the 256-pop
        // checkpoint with `last_shifted == 255`.
        let core0: Vec<MemAccess> = (0..128u64).map(|i| access(0, 2 * i)).collect();
        let mut core1: Vec<MemAccess> = (0..127u64).map(|i| access(1, 2 * i + 1)).collect();
        core1.push(access(0, 255));
        core1.push(access(1, 257));
        core1.push(access(1, 259));
        let mut ep = EpochScratch {
            tcdm_snap: TcdmTimingSnapshot {
                bank_free: vec![0, 0],
                ..TcdmTimingSnapshot::default()
            },
            words: vec![WordTrack::default(); 64],
            written: vec![0],
            journal_mark: vec![0; 64],
            logs: vec![core0, core1],
            ..EpochScratch::default()
        };
        repair_schedule(&mut ep, 2, None).unwrap();
        assert_eq!(ep.sigma, vec![0, 0], "pre-top-up merge is stall-free");
        assert_eq!(
            ep.ckpts.iter().map(|c| c.last_shifted).collect::<Vec<_>>(),
            vec![255],
            "the tie must sit exactly on the checkpoint boundary"
        );
        // Top-up: core 0 resumes at 255 (sigma 0, so the limit is 255)
        // and hits bank 0 — the tie-break orders this access *before*
        // core 1's already-checkpointed bank-0 access at 255.
        ep.logs[0].push(access(0, 255));
        ep.logs[0].push(access(0, 257));
        let resumed = repair_schedule(&mut ep, 2, Some(255)).unwrap();
        let resumed_state = (
            ep.sigma.clone(),
            ep.sigma_max.clone(),
            ep.repair_free.clone(),
        );
        // Reference: the same logs merged from scratch.
        let full = repair_schedule(&mut ep, 2, None).unwrap();
        let full_state = (
            ep.sigma.clone(),
            ep.sigma_max.clone(),
            ep.repair_free.clone(),
        );
        assert_eq!(full_state.0, vec![0, 1], "core 1 loses the bank-0 tie");
        assert_eq!(resumed, full);
        assert_eq!(resumed_state, full_state);
    }

    #[test]
    fn restart_resets_counters() {
        let mut cl = quad();
        cl.load_binary(&fork_join_prog(), L2_BASE).unwrap();
        cl.start(L2_BASE, &[], 0);
        let r1 = cl.run_until_halt(1_000_000).unwrap();
        // A warm restart keeps the instruction cache contents (fewer
        // misses); reloading the binary invalidates it, giving an identical
        // cold run.
        cl.load_binary(&fork_join_prog(), L2_BASE).unwrap();
        cl.start(L2_BASE, &[], 0);
        let r2 = cl.run_until_halt(1_000_000).unwrap();
        assert_eq!(r1.activity.total_retired(), r2.activity.total_retired());
        assert_eq!(r1.cycles, r2.cycles);

        // And the warm restart must be no slower.
        cl.start(L2_BASE, &[], 0);
        let warm = cl.run_until_halt(1_000_000).unwrap();
        assert!(warm.cycles <= r2.cycles);
    }
}
