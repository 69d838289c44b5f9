//! Latency, throughput, fairness, and degradation accounting of a serve
//! run.
//!
//! Percentiles use the nearest-rank method on the exact latency samples
//! (no buckets, no interpolation), so a report is a pure function of the
//! completion set and re-renders byte-identically.
//!
//! Every request leaves exactly one [`RequestOutcome`] behind, and the
//! aggregated counters — including the per-tenant×deadline-class
//! [`SloLedger`] — are required to reconcile **exactly** with those raw
//! outcomes; [`crate::invariants::check`] recomputes the whole ledger
//! from scratch and diffs it bit-for-bit.

use crate::autoscale::ScaleEvent;
use crate::chaos::ChaosStats;
use crate::request::DeadlineClass;
use ulp_kernels::Benchmark;

/// Nearest-rank percentile of a **sorted** sample set, in the sample
/// unit. Returns 0 for an empty set.
#[must_use]
pub fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(sorted.len(), p)]
}

/// Index of the nearest-rank `p`th percentile in a sorted set of
/// `len ≥ 1` samples.
fn nearest_rank(len: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

/// Latency summary of one population of completed requests.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyStats {
    /// Completed request count.
    pub count: u64,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: u64,
}

impl LatencyStats {
    /// Summarizes a latency sample set (need not be sorted). Each
    /// percentile is selected at its nearest rank, not sorted for: a
    /// selection leaves every sample from its rank on above it, so the
    /// next, higher rank is searched for in that tail alone.
    #[must_use]
    pub fn of(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let sum: u128 = samples.iter().map(|&x| u128::from(x)).sum();
        let mut v = samples.to_vec();
        let mut searched = 0; // v[..searched] is placed: no sample after it is smaller
        let [p50_ns, p95_ns, p99_ns] = [50.0, 95.0, 99.0].map(|p| {
            let k = nearest_rank(v.len(), p);
            if k >= searched {
                v[searched..].select_nth_unstable(k - searched);
                searched = k + 1;
            }
            v[k]
        });
        LatencyStats {
            count: v.len() as u64,
            p50_ns,
            p95_ns,
            p99_ns,
            mean_ns: (sum / v.len() as u128) as u64,
        }
    }
}

/// How one admitted-or-rejected request ultimately left the system.
///
/// Exactly one kind per request: the conservation invariant
/// `total = completed + rejected + failed_over + failed` is checked
/// against these raw records after every run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Served to completion on an accelerator worker.
    Completed,
    /// Turned away by admission control (full tenant queue).
    Rejected,
    /// Accelerator dispatch failed (retry budget exhausted or watchdog
    /// gave up) and the request finished on the host instead.
    FailedOver,
    /// Dispatch failed and no host fallback was available.
    Failed,
}

/// Raw per-request record a serve run leaves behind.
///
/// The aggregate counters in [`ServeReport`] and the [`SloLedger`] are
/// required to be recomputable bit-for-bit from these.
#[derive(Clone, Copy, Debug)]
pub struct RequestOutcome {
    /// Request id, unique within the workload.
    pub id: u64,
    /// Tenant index into the pool's tenant table.
    pub tenant: usize,
    /// Deadline class the request was admitted under.
    pub class: DeadlineClass,
    /// Kernel the request asked for.
    pub benchmark: Benchmark,
    /// Arrival instant on the virtual clock, nanoseconds.
    pub arrival_ns: u64,
    /// Instant the request left the system (completion, failover
    /// completion, failure, or — for rejections — the arrival instant).
    pub done_ns: u64,
    /// How the request left the system.
    pub kind: OutcomeKind,
}

/// One tenant × deadline-class cell of the [`SloLedger`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SloCell {
    /// Requests of this cell served on an accelerator.
    pub completed: u64,
    /// Requests of this cell that finished via host fallback.
    pub failed_over: u64,
    /// Requests of this cell that failed outright.
    pub failed: u64,
    /// Requests of this cell rejected at admission.
    pub rejected: u64,
    /// Finished requests (completed or failed-over) whose latency
    /// exceeded the class deadline.
    pub missed: u64,
}

/// Exact per-tenant × per-deadline-class SLO-miss ledger.
///
/// `cells[tenant][class.rank() as usize]` — the run updates it once per request
/// outcome, and [`crate::invariants::check`] recomputes the whole table
/// from the raw [`RequestOutcome`] records and diffs it bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SloLedger {
    /// Row per tenant (tenant-table order), column per deadline class
    /// ([`DeadlineClass::rank`] order).
    pub cells: Vec<[SloCell; DeadlineClass::ALL.len()]>,
}

impl SloLedger {
    /// Ledger of `tenants` all-zero rows.
    #[must_use]
    pub fn new(tenants: usize) -> Self {
        SloLedger {
            cells: vec![[SloCell::default(); DeadlineClass::ALL.len()]; tenants],
        }
    }

    /// Mutable cell for a tenant × class pair.
    pub fn cell_mut(&mut self, tenant: usize, class: DeadlineClass) -> &mut SloCell {
        &mut self.cells[tenant][class.rank() as usize]
    }

    /// Posts one raw outcome to the ledger; `missed` marks a finished
    /// request that blew its class deadline.
    pub fn post(&mut self, o: &RequestOutcome) {
        let cell = self.cell_mut(o.tenant, o.class);
        match o.kind {
            OutcomeKind::Completed => cell.completed += 1,
            OutcomeKind::FailedOver => cell.failed_over += 1,
            OutcomeKind::Failed => cell.failed += 1,
            OutcomeKind::Rejected => cell.rejected += 1,
        }
        if matches!(o.kind, OutcomeKind::Completed | OutcomeKind::FailedOver)
            && o.done_ns.saturating_sub(o.arrival_ns) > o.class.deadline_ns()
        {
            cell.missed += 1;
        }
    }

    /// Rebuilds a ledger purely from raw outcome records. Used by the
    /// invariant checker to cross-examine the incrementally maintained
    /// ledger.
    #[must_use]
    pub fn recompute(tenants: usize, outcomes: &[RequestOutcome]) -> Self {
        let mut ledger = SloLedger::new(tenants);
        for o in outcomes {
            ledger.post(o);
        }
        ledger
    }

    /// Total deadline misses across all cells.
    #[must_use]
    pub fn total_missed(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|row| row.iter())
            .map(|c| c.missed)
            .sum()
    }
}

/// Per-tenant slice of a [`ServeReport`].
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name, from its [`TenantSpec`](crate::TenantSpec).
    pub name: String,
    /// Fairness weight the scheduler used.
    pub weight: u32,
    /// Latency summary of the tenant's finished requests (accelerator
    /// completions plus host failovers).
    pub latency: LatencyStats,
    /// Arrivals turned away by admission control.
    pub rejected: u64,
    /// Finished requests later than their class deadline.
    pub deadline_misses: u64,
    /// Requests that finished via host fallback.
    pub failed_over: u64,
    /// Requests that failed outright (no fallback available).
    pub failed: u64,
}

/// One power-governor rung transition in a run's decision log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerEvent {
    /// Virtual instant of the decision, nanoseconds.
    pub at_ns: u64,
    /// Ladder rung before the move (0 = configured operating point).
    pub from_op: usize,
    /// Ladder rung after the move.
    pub to_op: usize,
    /// Average dispatch power over the decision window that triggered
    /// the move, watts.
    pub window_w: f64,
}

/// Everything a serve run measured.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Arrivals admitted past admission control
    /// (`admitted + rejected` = offered workload).
    pub admitted: u64,
    /// Requests served to completion on an accelerator.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests that finished on the host after accelerator dispatch
    /// failed under fault injection.
    pub failed_over: u64,
    /// Requests that failed outright (dispatch failed, no fallback).
    pub failed: u64,
    /// Admitted requests still queued when the run ended. Must be zero —
    /// the invariant checker treats anything else as a request leak.
    pub stranded: u64,
    /// Finished requests later than their class deadline.
    pub deadline_misses: u64,
    /// Virtual instant the last batch finished, nanoseconds.
    pub makespan_ns: u64,
    /// Overall latency summary.
    pub latency: LatencyStats,
    /// Per-tenant summaries, in tenant-table order.
    pub tenants: Vec<TenantReport>,
    /// `hist[k]` counts dispatched batches of size `k + 1`.
    pub batch_hist: Vec<u64>,
    /// Program binaries shipped (cold uploads the batching amortized
    /// away do not appear here).
    pub uploads: u64,
    /// Busy nanoseconds per worker, pool order.
    pub worker_busy_ns: Vec<u64>,
    /// Highest total queued depth observed at any scheduling instant.
    pub max_queue_depth: usize,
    /// Fault-injection and recovery counters (all zero when chaos is
    /// off).
    pub chaos: ChaosStats,
    /// Exact SLO-miss ledger, per tenant × deadline class.
    pub slo: SloLedger,
    /// Raw per-request outcome records, in outcome order (rejections at
    /// arrival, finishes at service completion).
    pub outcomes: Vec<RequestOutcome>,
    /// Autoscaler decision log, in decision order. Empty when the pool
    /// runs with a fixed worker count.
    pub scale_events: Vec<ScaleEvent>,
    /// Active-worker capacity integral `Σ active × Δt` over the run,
    /// nanoseconds of worker-time. 0 when autoscaling is off (capacity
    /// is then simply `pool × makespan`).
    pub capacity_ns: u64,
    /// Rejections charged by pressure-scaled admission pricing (a subset
    /// of `rejected`; queue-cap rejections make up the rest).
    pub priced_out: u64,
    /// Total fault-free dispatch energy over the run — every batch's
    /// planned offload energy plus the host's dispatch-overhead windows —
    /// joules. Tracked whether or not the power governor runs.
    pub energy_joules: f64,
    /// Virtual nanoseconds spent at each rung of the power governor's
    /// DVFS ladder (index 0 = the configured operating point). Empty when
    /// the governor is off.
    pub op_residency_ns: Vec<u64>,
    /// Power-governor rung transitions, in decision order. Empty when the
    /// governor is off or the budget never forced a move.
    pub power_events: Vec<PowerEvent>,
}

impl ServeReport {
    /// Completed requests per second of virtual time (0 when nothing
    /// completed).
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.makespan_ns as f64 / 1e9)
    }

    /// Requests that finished service: accelerator completions plus
    /// host failovers.
    #[must_use]
    pub fn finished(&self) -> u64 {
        self.completed + self.failed_over
    }

    /// Mean dispatched batch size (0 when nothing dispatched).
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        let batches: u64 = self.batch_hist.iter().sum();
        if batches == 0 {
            return 0.0;
        }
        let requests: u64 = self
            .batch_hist
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        requests as f64 / batches as f64
    }

    /// Dispatch energy per finished request, joules (0 when nothing
    /// finished) — the figure a power-budgeted deployment optimizes.
    #[must_use]
    pub fn joules_per_request(&self) -> f64 {
        let finished = self.finished();
        if finished == 0 {
            return 0.0;
        }
        self.energy_joules / finished as f64
    }

    /// Pool utilization: busy time summed over workers divided by the
    /// capacity that was actually online — the autoscaler's capacity
    /// integral when one ran, `pool × makespan` otherwise.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self.worker_busy_ns.iter().sum();
        if self.capacity_ns > 0 {
            return busy as f64 / self.capacity_ns as f64;
        }
        if self.makespan_ns == 0 || self.worker_busy_ns.is_empty() {
            return 0.0;
        }
        busy as f64 / (self.makespan_ns as f64 * self.worker_busy_ns.len() as f64)
    }
}

/// Renders nanoseconds as fixed-point milliseconds ("12.345"), the only
/// latency format reports and tables use — fixed precision keeps golden
/// snapshots stable.
#[must_use]
pub fn fmt_ms(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&s, 50.0), 50);
        assert_eq!(percentile_ns(&s, 95.0), 95);
        assert_eq!(percentile_ns(&s, 99.0), 99);
        assert_eq!(percentile_ns(&s, 100.0), 100);
        assert_eq!(percentile_ns(&[], 50.0), 0);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
    }

    #[test]
    fn latency_stats_summarize() {
        let st = LatencyStats::of(&[30, 10, 20]);
        assert_eq!(st.count, 3);
        assert_eq!(st.p50_ns, 20);
        assert_eq!(st.p99_ns, 30);
        assert_eq!(st.mean_ns, 20);
    }

    #[test]
    fn selected_percentiles_match_a_full_sort() {
        let sorted_stats = |samples: &[u64]| {
            let mut sorted = samples.to_vec();
            sorted.sort_unstable();
            [50.0, 95.0, 99.0].map(|p| percentile_ns(&sorted, p))
        };
        let check = |samples: &[u64]| {
            let st = LatencyStats::of(samples);
            assert_eq!(
                [st.p50_ns, st.p95_ns, st.p99_ns],
                sorted_stats(samples),
                "{} samples",
                samples.len()
            );
        };
        // Seeded random sets from narrow value ranges, so ties are common.
        let mut rng = ulp_rng::XorShiftRng::seed_from_u64(0x5E1EC7);
        let mut random = |n: usize| -> Vec<u64> {
            let span = rng.gen_range(1..=50u64);
            (0..n).map(|_| rng.gen_range(0..span)).collect()
        };
        // Every count 1–300, descending and random, then larger sets.
        for n in 1..=300 {
            check(&(1..=n as u64).rev().collect::<Vec<_>>());
            check(&random(n));
        }
        for n in [1_000, 4_099, 10_007] {
            check(&random(n));
        }
    }

    #[test]
    fn fixed_point_millis() {
        assert_eq!(fmt_ms(0), "0.000");
        assert_eq!(fmt_ms(1_234_567), "1.234");
        assert_eq!(fmt_ms(50_000_000), "50.000");
    }

    #[test]
    fn batch_histogram_mean() {
        let r = ServeReport {
            admitted: 10,
            completed: 10,
            rejected: 0,
            failed_over: 0,
            failed: 0,
            stranded: 0,
            deadline_misses: 0,
            makespan_ns: 2_000_000_000,
            latency: LatencyStats::default(),
            tenants: Vec::new(),
            batch_hist: vec![2, 0, 0, 2], // 2 singles + 2 fours = 10 reqs
            uploads: 0,
            worker_busy_ns: vec![1_000_000_000],
            max_queue_depth: 4,
            chaos: ChaosStats::default(),
            slo: SloLedger::default(),
            outcomes: Vec::new(),
            scale_events: Vec::new(),
            capacity_ns: 0,
            priced_out: 0,
            energy_joules: 0.0,
            op_residency_ns: Vec::new(),
            power_events: Vec::new(),
        };
        assert!((r.mean_batch() - 2.5).abs() < 1e-12);
        assert!((r.throughput_rps() - 5.0).abs() < 1e-12);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(r.finished(), 10);
    }

    #[test]
    fn ledger_posts_and_recomputes_exactly() {
        let outcomes = [
            RequestOutcome {
                id: 0,
                tenant: 0,
                class: DeadlineClass::Interactive,
                benchmark: Benchmark::ALL[0],
                arrival_ns: 0,
                done_ns: 10_000_000, // 10 ms < 50 ms deadline
                kind: OutcomeKind::Completed,
            },
            RequestOutcome {
                id: 1,
                tenant: 0,
                class: DeadlineClass::Interactive,
                benchmark: Benchmark::ALL[0],
                arrival_ns: 0,
                done_ns: 90_000_000, // 90 ms > 50 ms: miss
                kind: OutcomeKind::FailedOver,
            },
            RequestOutcome {
                id: 2,
                tenant: 1,
                class: DeadlineClass::Batch,
                benchmark: Benchmark::ALL[0],
                arrival_ns: 5,
                done_ns: 5,
                kind: OutcomeKind::Rejected,
            },
            RequestOutcome {
                id: 3,
                tenant: 1,
                class: DeadlineClass::Standard,
                benchmark: Benchmark::ALL[0],
                arrival_ns: 0,
                done_ns: 400_000_000, // failed: never finished, no miss
                kind: OutcomeKind::Failed,
            },
        ];
        let ledger = SloLedger::recompute(2, &outcomes);
        let cell = ledger.cells[0][DeadlineClass::Interactive.rank() as usize];
        assert_eq!(cell.completed, 1);
        assert_eq!(cell.failed_over, 1);
        assert_eq!(cell.missed, 1);
        assert_eq!(
            ledger.cells[1][DeadlineClass::Batch.rank() as usize].rejected,
            1
        );
        assert_eq!(
            ledger.cells[1][DeadlineClass::Standard.rank() as usize].failed,
            1
        );
        assert_eq!(ledger.total_missed(), 1);

        // Incremental maintenance must equal the batch recompute.
        let mut incremental = SloLedger::new(2);
        for o in &outcomes {
            incremental.post(o);
        }
        assert_eq!(incremental, ledger);
    }
}
