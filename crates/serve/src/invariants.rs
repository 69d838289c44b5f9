//! Invariant checking over serve reports: conservation, ledger
//! exactness, and accounting consistency.
//!
//! A soak run is only as trustworthy as the bookkeeping it emits, so
//! every claim a [`ServeReport`] makes is cross-examined against the raw
//! per-request [`RequestOutcome`](crate::RequestOutcome) records here:
//!
//! * **Conservation** — every offered request is accounted for exactly
//!   once (`completed + rejected + failed_over + failed = total`), no
//!   request is stranded in a queue, and no outcome id repeats (a
//!   repeated id would mean a queue-generation leak: one request served
//!   twice).
//! * **Ledger exactness** — the per-tenant × deadline-class
//!   [`SloLedger`] is recomputed from scratch from the
//!   raw outcomes and diffed bit-for-bit against the incrementally
//!   maintained one.
//! * **Accounting consistency** — batch histogram mass equals dispatched
//!   requests, latency sample counts equal finished requests, per-tenant
//!   rows sum to the pool totals, and no worker is busy longer than the
//!   run's makespan.
//!
//! [`check`] returns human-readable violations instead of panicking so
//! harnesses can attach the workload seed and keep a failing soak's full
//! report around for forensics.

use crate::fleet::FleetReport;
use crate::metrics::{OutcomeKind, ServeReport, SloLedger};

/// Checks every invariant of a serve report against `total_requests`
/// offered requests. Returns one message per violation; an empty vector
/// is a clean bill of health.
#[must_use]
pub fn check(total_requests: u64, report: &ServeReport) -> Vec<String> {
    let mut v: Vec<String> = Vec::new();
    let mut fail = |msg: String| v.push(msg);

    // Conservation of requests.
    let accounted = report.completed + report.rejected + report.failed_over + report.failed;
    if accounted != total_requests {
        fail(format!(
            "conservation: completed {} + rejected {} + failed_over {} + failed {} = {} \
             but {} requests were offered",
            report.completed,
            report.rejected,
            report.failed_over,
            report.failed,
            accounted,
            total_requests
        ));
    }
    if report.admitted + report.rejected != total_requests {
        fail(format!(
            "admission: admitted {} + rejected {} != offered {}",
            report.admitted, report.rejected, total_requests
        ));
    }
    if report.stranded != 0 {
        fail(format!(
            "queue leak: {} requests stranded in queues at end of run",
            report.stranded
        ));
    }
    if report.priced_out > report.rejected {
        fail(format!(
            "admission pricing: {} priced out but only {} rejected in total",
            report.priced_out, report.rejected
        ));
    }

    // Raw outcomes: one per request, unique ids.
    if report.outcomes.len() as u64 != total_requests {
        fail(format!(
            "outcomes: {} records for {} offered requests",
            report.outcomes.len(),
            total_requests
        ));
    }
    let mut ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    if ids.len() != before {
        fail(format!(
            "outcomes: {} duplicate request ids (a request left the system twice)",
            before - ids.len()
        ));
    }

    // Outcome-kind counts must reproduce the aggregate counters.
    let count = |k: OutcomeKind| report.outcomes.iter().filter(|o| o.kind == k).count() as u64;
    for (label, aggregate, kind) in [
        ("completed", report.completed, OutcomeKind::Completed),
        ("rejected", report.rejected, OutcomeKind::Rejected),
        ("failed_over", report.failed_over, OutcomeKind::FailedOver),
        ("failed", report.failed, OutcomeKind::Failed),
    ] {
        let raw = count(kind);
        if raw != aggregate {
            fail(format!(
                "outcome counts: {label} aggregate {aggregate} but {raw} raw records"
            ));
        }
    }

    // SLO ledger must reconcile bit-for-bit with the raw outcomes.
    let recomputed = SloLedger::recompute(report.tenants.len(), &report.outcomes);
    if recomputed != report.slo {
        fail("slo ledger: incremental ledger differs from recompute over raw outcomes".into());
    }
    if report.slo.total_missed() != report.deadline_misses {
        fail(format!(
            "slo ledger: {} total misses but report counts {}",
            report.slo.total_missed(),
            report.deadline_misses
        ));
    }

    // Batch histogram mass = dispatched requests (each admitted request
    // is dispatched in exactly one batch).
    let hist_mass: u64 = report
        .batch_hist
        .iter()
        .enumerate()
        .map(|(i, &n)| (i as u64 + 1) * n)
        .sum();
    let dispatched = report.completed + report.failed_over + report.failed;
    if hist_mass != dispatched {
        fail(format!(
            "batch histogram: {hist_mass} requests in batches but {dispatched} dispatched"
        ));
    }

    // Latency samples cover exactly the finished requests.
    if report.latency.count != report.finished() {
        fail(format!(
            "latency: {} samples for {} finished requests",
            report.latency.count,
            report.finished()
        ));
    }

    // Per-tenant rows sum to the pool totals.
    let t_sum =
        |f: fn(&crate::metrics::TenantReport) -> u64| -> u64 { report.tenants.iter().map(f).sum() };
    for (label, aggregate, per_tenant) in [
        ("rejected", report.rejected, t_sum(|t| t.rejected)),
        (
            "deadline_misses",
            report.deadline_misses,
            t_sum(|t| t.deadline_misses),
        ),
        ("failed_over", report.failed_over, t_sum(|t| t.failed_over)),
        ("failed", report.failed, t_sum(|t| t.failed)),
        ("finished", report.finished(), t_sum(|t| t.latency.count)),
    ] {
        if aggregate != per_tenant {
            fail(format!(
                "tenant rows: {label} sums to {per_tenant} but pool total is {aggregate}"
            ));
        }
    }

    // No worker can be busy longer than the run lasted.
    for (i, &busy) in report.worker_busy_ns.iter().enumerate() {
        if busy > report.makespan_ns {
            fail(format!(
                "worker {i}: busy {busy} ns exceeds makespan {} ns",
                report.makespan_ns
            ));
        }
    }

    v
}

/// Checks a set of per-group serve reports both individually and
/// **fleet-wide**: every group must pass [`check`] against its own
/// offered count, no outcome id may appear in more than one group (a
/// cross-group duplicate means the sharding layer served one request
/// twice), and the groups' conservation sums must add up to the fleet's
/// offered total. `offered[g]` is the request count routed to group `g`;
/// the two slices must be the same length.
///
/// Per-group messages come back prefixed `group {g}: ` so a fleet
/// harness can report violations without losing the shard.
#[must_use]
pub fn check_groups(offered: &[u64], reports: &[&ServeReport]) -> Vec<String> {
    let mut v: Vec<String> = Vec::new();
    if offered.len() != reports.len() {
        v.push(format!(
            "fleet: {} offered counts for {} group reports",
            offered.len(),
            reports.len()
        ));
        return v;
    }

    for (g, (&n, report)) in offered.iter().zip(reports).enumerate() {
        for msg in check(n, report) {
            v.push(format!("group {g}: {msg}"));
        }
    }

    // Cross-group id uniqueness: per-group checks cannot see a request
    // that two shards both claim to have served. Only a repeated id
    // looks its groups up, in group order, one message per repeat.
    let mut ids: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.outcomes.iter().map(|o| o.id))
        .collect();
    ids.sort_unstable();
    for run in ids.chunk_by(|a, b| a == b).filter(|run| run.len() > 1) {
        let id = run[0];
        let groups: Vec<usize> = reports
            .iter()
            .enumerate()
            .flat_map(|(g, r)| r.outcomes.iter().filter(|o| o.id == id).map(move |_| g))
            .collect();
        for w in groups.windows(2) {
            v.push(format!(
                "fleet: request id {id} left the system in group {} and again in group {} \
                 (cross-group double count)",
                w[0], w[1]
            ));
        }
    }

    // Fleet-wide conservation: the shards' accounting must add up to the
    // fleet's offered total even if every shard balances internally.
    let total: u64 = offered.iter().sum();
    let accounted: u64 = reports
        .iter()
        .map(|r| r.completed + r.rejected + r.failed_over + r.failed)
        .sum();
    if accounted != total {
        v.push(format!(
            "fleet conservation: groups account for {accounted} requests but {total} were offered"
        ));
    }

    v
}

/// Checks a [`FleetReport`]: delegates to [`check_groups`] over the
/// per-group reports and offered counts the fleet recorded.
#[must_use]
pub fn check_fleet(report: &FleetReport) -> Vec<String> {
    let offered: Vec<u64> = report.groups.iter().map(|g| g.offered).collect();
    let reports: Vec<&ServeReport> = report.groups.iter().map(|g| &g.report).collect();
    check_groups(&offered, &reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosStats;
    use crate::metrics::{LatencyStats, RequestOutcome, ServeReport};
    use crate::request::DeadlineClass;
    use ulp_kernels::Benchmark;

    fn outcome(id: u64, kind: OutcomeKind) -> RequestOutcome {
        RequestOutcome {
            id,
            tenant: 0,
            class: DeadlineClass::Standard,
            benchmark: Benchmark::ALL[0],
            arrival_ns: 0,
            done_ns: 1_000_000,
            kind,
        }
    }

    fn clean_report() -> ServeReport {
        clean_report_from(0)
    }

    /// A 3-request clean report whose outcome ids start at `base` —
    /// disjoint bases build a clean fleet, equal bases a double-counting
    /// one.
    fn clean_report_from(base: u64) -> ServeReport {
        let outcomes = vec![
            outcome(base, OutcomeKind::Completed),
            outcome(base + 1, OutcomeKind::Completed),
            outcome(base + 2, OutcomeKind::Rejected),
        ];
        let slo = SloLedger::recompute(1, &outcomes);
        ServeReport {
            admitted: 2,
            completed: 2,
            rejected: 1,
            failed_over: 0,
            failed: 0,
            stranded: 0,
            deadline_misses: 0,
            makespan_ns: 2_000_000,
            latency: LatencyStats {
                count: 2,
                ..LatencyStats::default()
            },
            tenants: vec![crate::metrics::TenantReport {
                name: "t".into(),
                weight: 1,
                latency: LatencyStats {
                    count: 2,
                    ..LatencyStats::default()
                },
                rejected: 1,
                deadline_misses: 0,
                failed_over: 0,
                failed: 0,
            }],
            batch_hist: vec![0, 1], // one batch of two
            uploads: 1,
            worker_busy_ns: vec![1_000_000],
            max_queue_depth: 2,
            chaos: ChaosStats::default(),
            slo,
            outcomes,
            scale_events: Vec::new(),
            capacity_ns: 0,
            priced_out: 0,
            energy_joules: 0.0,
            op_residency_ns: Vec::new(),
            power_events: Vec::new(),
        }
    }

    #[test]
    fn clean_report_passes() {
        assert!(check(3, &clean_report()).is_empty());
    }

    #[test]
    fn catches_conservation_breaks() {
        let r = clean_report();
        let v = check(4, &r);
        assert!(
            v.iter().any(|m| m.contains("conservation")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn catches_stranded_requests() {
        let mut r = clean_report();
        r.stranded = 1;
        assert!(check(3, &r).iter().any(|m| m.contains("queue leak")));
    }

    #[test]
    fn catches_duplicate_ids() {
        let mut r = clean_report();
        r.outcomes[1].id = 0;
        assert!(check(3, &r).iter().any(|m| m.contains("duplicate")));
    }

    #[test]
    fn catches_cooked_ledgers() {
        let mut r = clean_report();
        r.slo.cells[0][DeadlineClass::Standard.rank() as usize].completed += 1;
        assert!(check(3, &r).iter().any(|m| m.contains("slo ledger")));
    }

    #[test]
    fn catches_histogram_drift() {
        let mut r = clean_report();
        r.batch_hist = vec![1]; // one single: mass 1 ≠ 2 dispatched
        assert!(check(3, &r).iter().any(|m| m.contains("batch histogram")));
    }

    #[test]
    fn catches_overbusy_workers() {
        let mut r = clean_report();
        r.worker_busy_ns[0] = 3_000_000;
        assert!(check(3, &r).iter().any(|m| m.contains("worker 0")));
    }

    #[test]
    fn catches_overpriced_admissions() {
        let mut r = clean_report();
        r.priced_out = r.rejected + 1;
        assert!(check(3, &r).iter().any(|m| m.contains("admission pricing")));
    }

    #[test]
    fn clean_disjoint_groups_pass_fleet_wide() {
        let (a, b) = (clean_report_from(0), clean_report_from(100));
        assert!(check_groups(&[3, 3], &[&a, &b]).is_empty());
    }

    #[test]
    fn catches_cross_group_double_count() {
        // Both shards are internally clean — and claim the same ids:
        // only the fleet-wide pass can see the double count.
        let (a, b) = (clean_report_from(0), clean_report_from(0));
        assert!(check(3, &a).is_empty());
        assert!(check(3, &b).is_empty());
        let v = check_groups(&[3, 3], &[&a, &b]);
        assert!(
            v.iter().any(|m| m.contains("cross-group double count")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn catches_fleet_conservation_breaks() {
        let (a, b) = (clean_report_from(0), clean_report_from(100));
        let v = check_groups(&[3, 4], &[&a, &b]);
        assert!(v.iter().any(|m| m.starts_with("group 1: conservation")));
        assert!(v.iter().any(|m| m.contains("fleet conservation")));
        assert!(check_groups(&[3], &[&a, &b])
            .iter()
            .any(|m| m.contains("offered counts")));
    }
}
