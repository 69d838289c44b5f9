//! Performance-monitoring-unit output: component activity factors.
//!
//! The paper's FPGA emulator is "augmented with a performance monitoring
//! unit that is used to measure active and idle cycles for cores, DMAs and
//! interconnects" (§IV-A); the measured activity ratios χᵢ drive the
//! dynamic power model P_d = f·Σᵢ χᵢ·ρᵢ. [`ClusterActivity`] is the
//! equivalent record produced by a simulation run.

/// Activity snapshot of one cluster run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterActivity {
    /// Wall-clock duration of the run in cluster cycles.
    pub total_cycles: u64,
    /// Per-core cycles spent actively executing (not clock-gated).
    pub core_active_cycles: Vec<u64>,
    /// Per-core retired instructions.
    pub core_retired: Vec<u64>,
    /// TCDM bank-busy cycles (summed over banks).
    pub tcdm_busy_cycles: u64,
    /// Number of TCDM banks.
    pub tcdm_banks: usize,
    /// TCDM accesses that stalled on a bank conflict.
    pub tcdm_conflicts: u64,
    /// Instruction-cache hits.
    pub icache_hits: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// L2 data accesses from cores.
    pub l2_accesses: u64,
    /// DMA channel-busy cycles.
    pub dma_busy_cycles: u64,
    /// DMA bytes moved.
    pub dma_bytes: u64,
    /// Barriers completed.
    pub barriers: u64,
}

impl ClusterActivity {
    /// Activity factor χ of core `i`: active cycles over total cycles.
    #[must_use]
    pub fn chi_core(&self, i: usize) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.core_active_cycles
            .get(i)
            .map_or(0.0, |&a| a as f64 / self.total_cycles as f64)
    }

    /// Mean activity factor across all cores.
    #[must_use]
    pub fn chi_cores_mean(&self) -> f64 {
        if self.core_active_cycles.is_empty() {
            return 0.0;
        }
        (0..self.core_active_cycles.len())
            .map(|i| self.chi_core(i))
            .sum::<f64>()
            / self.core_active_cycles.len() as f64
    }

    /// Activity factor of the TCDM (bank-busy cycles over bank-cycles).
    #[must_use]
    pub fn chi_tcdm(&self) -> f64 {
        let denom = self.total_cycles.saturating_mul(self.tcdm_banks as u64);
        if denom == 0 {
            return 0.0;
        }
        self.tcdm_busy_cycles as f64 / denom as f64
    }

    /// Activity factor of the DMA.
    #[must_use]
    pub fn chi_dma(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        (self.dma_busy_cycles as f64 / self.total_cycles as f64).min(1.0)
    }

    /// Instruction-cache hit rate.
    #[must_use]
    pub fn icache_hit_rate(&self) -> f64 {
        let total = self.icache_hits + self.icache_misses;
        if total == 0 {
            return 0.0;
        }
        self.icache_hits as f64 / total as f64
    }

    /// Total retired instructions across all cores.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.core_retired.iter().sum()
    }

    /// Instructions per cycle aggregated over the cluster.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.total_retired() as f64 / self.total_cycles as f64
    }
}

/// Why the epoch engine stopped speculating an epoch short of its full
/// window (see [`EpochStats::aborts`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EpochAbort {
    /// A replay missed in the shared I$: the fill could be observed by
    /// other cores' interleaved fetches first.
    ICacheMiss,
    /// A replay reached an access speculation never covers: a DMA
    /// register, an L2 store, or a raw fetch off the translated path.
    Refused,
    /// A TCDM access crossed a word boundary (two beats, one log mark).
    SplitAccess,
    /// A core went to sleep on `wfe`.
    Sleep,
    /// A core arrived at the cluster barrier.
    Barrier,
    /// A core sent an event.
    Event,
    /// No micro-op block starts at a core's PC.
    NoBlock,
    /// A core faulted.
    Fault,
    /// A core read the cycle CSR, whose value the repair would shift.
    CycleLo,
    /// The repaired exact order contradicts the order in which the
    /// speculative values hit memory.
    DataFlow,
    /// Boundary top-ups stopped closing the lag of the cores short of
    /// the commit boundary.
    TopupBudget,
    /// A repaired commit could have moved an op past the run deadline, or
    /// a core that must be topped up is already past it.
    DeadlineGuard,
}

impl EpochAbort {
    /// Every abort class, in [`EpochStats::aborts`] index order.
    pub const ALL: [EpochAbort; 12] = [
        EpochAbort::ICacheMiss,
        EpochAbort::Refused,
        EpochAbort::SplitAccess,
        EpochAbort::Sleep,
        EpochAbort::Barrier,
        EpochAbort::Event,
        EpochAbort::NoBlock,
        EpochAbort::Fault,
        EpochAbort::CycleLo,
        EpochAbort::DataFlow,
        EpochAbort::TopupBudget,
        EpochAbort::DeadlineGuard,
    ];

    /// The class's report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EpochAbort::ICacheMiss => "icache_miss",
            EpochAbort::Refused => "refused",
            EpochAbort::SplitAccess => "split_access",
            EpochAbort::Sleep => "sleep",
            EpochAbort::Barrier => "barrier",
            EpochAbort::Event => "event",
            EpochAbort::NoBlock => "no_block",
            EpochAbort::Fault => "fault",
            EpochAbort::CycleLo => "cycle_lo",
            EpochAbort::DataFlow => "data_flow",
            EpochAbort::TopupBudget => "topup_budget",
            EpochAbort::DeadlineGuard => "deadline_guard",
        }
    }
}

/// Upper ends of the [`EpochStats::topup_rounds`] buckets; the last
/// bucket holds everything above the final limit.
pub const TOPUP_ROUND_LIMITS: [u64; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

/// Report labels of the [`EpochStats::topup_rounds`] buckets.
pub const TOPUP_ROUND_LABELS: [&str; TOPUP_ROUND_LIMITS.len() + 1] =
    ["0", "1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", ">64"];

/// Decision counters of the epoch engine, summed over every run of one
/// cluster. They are plain increments at the engine's decision points,
/// so they cost nothing per instruction, and the reference engine leaves
/// them at zero.
///
/// Two identities hold after any set of epoch-engine runs that ended
/// without an error:
/// `committed + salvaged + rolled_back == attempted`, and
/// `retired_epoch + retired_exact` equals the sum of the runs'
/// [`ClusterActivity::total_retired`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Epochs speculated.
    pub attempted: u64,
    /// Epochs whose whole window committed.
    pub committed: u64,
    /// Epochs that failed past a verified chunk boundary and committed
    /// the prefix up to it.
    pub salvaged: u64,
    /// Epochs discarded whole.
    pub rolled_back: u64,
    /// Salvaged and rolled-back epochs by the failure that ended their
    /// window, indexed in [`EpochAbort::ALL`] order; sums to
    /// `salvaged + rolled_back`.
    pub aborts: [u64; EpochAbort::ALL.len()],
    /// Boundary passes by the number of top-up rounds they ran, bucketed
    /// by [`TOPUP_ROUND_LIMITS`]. A salvaged epoch can run two passes.
    pub topup_rounds: [u64; TOPUP_ROUND_LIMITS.len() + 1],
    /// Instructions retired by committed epochs and salvaged prefixes.
    pub retired_epoch: u64,
    /// Instructions retired by exact micro-op windows: fallbacks after a
    /// failed epoch, the tail near the deadline, and traced runs.
    pub retired_exact: u64,
}

impl EpochStats {
    /// Salvaged and rolled-back epochs ended by `class`.
    #[must_use]
    pub fn aborts_of(&self, class: EpochAbort) -> u64 {
        self.aborts[class as usize]
    }

    /// Counts one epoch whose window ended at `class`.
    pub(crate) fn abort(&mut self, class: EpochAbort) {
        self.aborts[class as usize] += 1;
    }

    /// Counts one boundary pass that ran `rounds` top-up rounds.
    pub(crate) fn record_topup_rounds(&mut self, rounds: u64) {
        let bucket = TOPUP_ROUND_LIMITS
            .iter()
            .position(|&limit| rounds <= limit)
            .unwrap_or(TOPUP_ROUND_LIMITS.len());
        self.topup_rounds[bucket] += 1;
    }

    /// Adds another cluster's counters to these.
    pub fn merge(&mut self, other: &EpochStats) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.salvaged += other.salvaged;
        self.rolled_back += other.rolled_back;
        for (a, b) in self.aborts.iter_mut().zip(&other.aborts) {
            *a += b;
        }
        for (a, b) in self.topup_rounds.iter_mut().zip(&other.topup_rounds) {
            *a += b;
        }
        self.retired_epoch += other.retired_epoch;
        self.retired_exact += other.retired_exact;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterActivity {
        ClusterActivity {
            total_cycles: 1000,
            core_active_cycles: vec![900, 800, 800, 500],
            core_retired: vec![850, 700, 700, 400],
            tcdm_busy_cycles: 2000,
            tcdm_banks: 8,
            tcdm_conflicts: 50,
            icache_hits: 990,
            icache_misses: 10,
            l2_accesses: 4,
            dma_busy_cycles: 100,
            dma_bytes: 4096,
            barriers: 3,
        }
    }

    #[test]
    fn chi_factors_in_unit_range() {
        let a = sample();
        for i in 0..4 {
            let chi = a.chi_core(i);
            assert!((0.0..=1.0).contains(&chi));
        }
        assert!((a.chi_core(0) - 0.9).abs() < 1e-12);
        assert!((a.chi_tcdm() - 0.25).abs() < 1e-12);
        assert!((a.chi_dma() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn aggregates() {
        let a = sample();
        assert_eq!(a.total_retired(), 2650);
        assert!((a.ipc() - 2.65).abs() < 1e-12);
        assert!((a.icache_hit_rate() - 0.99).abs() < 1e-12);
        assert!((a.chi_cores_mean() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn topup_rounds_land_in_their_labelled_buckets() {
        let mut s = EpochStats::default();
        for rounds in [0, 1, 2, 3, 4, 5, 8, 9, 64, 65, 1000] {
            s.record_topup_rounds(rounds);
        }
        assert_eq!(s.topup_rounds, [1, 1, 1, 2, 2, 1, 0, 1, 2]);
        // Each label names its bucket's range of rounds.
        for (i, label) in TOPUP_ROUND_LABELS.iter().enumerate() {
            let lo = i.checked_sub(1).map_or(0, |j| TOPUP_ROUND_LIMITS[j] + 1);
            let want = match TOPUP_ROUND_LIMITS.get(i) {
                None => format!(">{}", lo - 1),
                Some(&hi) if hi > lo => format!("{lo}-{hi}"),
                Some(&hi) => hi.to_string(),
            };
            assert_eq!(*label, want);
        }
    }

    #[test]
    fn zero_cycles_is_safe() {
        let a = ClusterActivity::default();
        assert_eq!(a.chi_core(0), 0.0);
        assert_eq!(a.chi_tcdm(), 0.0);
        assert_eq!(a.ipc(), 0.0);
        assert_eq!(a.icache_hit_rate(), 0.0);
    }
}
