//! The fleet layer: many node groups, each a [`ServePool`], behind
//! rendezvous-hash tenant sharding.
//!
//! A group is the unit of placement and autoscaling: tenants are pinned
//! to groups by [`place_tenant`](crate::place_tenant) (never split — all
//! of a tenant's traffic lands on one group, so per-tenant fairness and
//! SLO accounting stay local), and each group runs its own
//! [`AutoscalePolicy`](crate::AutoscalePolicy) against its own queues.
//! Groups share no scheduling state at runtime, which is what lets
//! [`Fleet::run`] simulate them in parallel with `ulp_par::par_map`
//! while staying byte-identical under any `--jobs` setting: the
//! partition is computed up front, each group's simulation is a pure
//! function of its own request slice, and `par_map` preserves order.
//! The one thing a run's groups share is their memo of dispatch prices:
//! every group prices against the same book and configuration, a price
//! is a pure function of its dispatch shape, and so it does not matter
//! which group prices a shape first.
//!
//! Request ids stay **global** through the partition. That is what makes
//! fleet-wide conservation checkable: if the sharding layer ever routed
//! one request to two groups, the duplicate id survives into the merged
//! outcome records and [`invariants::check_groups`](crate::invariants::check_groups)
//! flags it.

use ulp_offload::HetSystemConfig;
use ulp_par::par_map;

use crate::autoscale::ScaleEvent;
use crate::error::ServeError;
use crate::metrics::{LatencyStats, OutcomeKind, ServeReport};
use crate::pricing::{CostBook, PriceMemo};
use crate::request::{ServeRequest, TenantSpec};
use crate::server::{check_stream, ServeConfig, ServePool};

/// Static configuration of a [`Fleet`].
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Node groups to shard tenants across (≥ 1).
    pub groups: usize,
    /// Per-group pool configuration: `serve.pool` workers per group
    /// (the autoscaler's starting count when `serve.autoscale` is set).
    pub serve: ServeConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            groups: 2,
            serve: ServeConfig::default(),
        }
    }
}

/// One node group's slice of a [`FleetReport`].
#[derive(Clone, Debug)]
pub struct GroupReport {
    /// Group index.
    pub group: usize,
    /// Global tenant indices served by this group, in tenant-table
    /// order. The group's [`ServeReport`] uses *local* tenant indices —
    /// `tenants[local]` maps them back.
    pub tenants: Vec<usize>,
    /// Requests routed to this group.
    pub offered: u64,
    /// The group's full serve report (tenant indices local to the
    /// group, request ids global to the fleet).
    pub report: ServeReport,
}

/// Everything a fleet run measured.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-group reports, group order.
    pub groups: Vec<GroupReport>,
    /// `placement[t]` is the group of global tenant `t`.
    pub placement: Vec<usize>,
    /// Total requests offered to the fleet.
    pub offered: u64,
    /// Latest instant any group finished, nanoseconds.
    pub makespan_ns: u64,
    /// Fleet-wide latency summary, recomputed from every group's raw
    /// finished-request outcomes.
    pub latency: LatencyStats,
    /// All groups' autoscaler decisions, stamped with their group and
    /// merged in `(at_ns, group)` order.
    pub scale_events: Vec<ScaleEvent>,
}

impl FleetReport {
    fn sum(&self, f: impl Fn(&ServeReport) -> u64) -> u64 {
        self.groups.iter().map(|g| f(&g.report)).sum()
    }

    /// Requests admitted across all groups.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.sum(|r| r.admitted)
    }

    /// Requests completed on accelerators across all groups.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.sum(|r| r.completed)
    }

    /// Requests rejected at admission across all groups.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.sum(|r| r.rejected)
    }

    /// Rejections charged by admission pricing across all groups.
    #[must_use]
    pub fn priced_out(&self) -> u64 {
        self.sum(|r| r.priced_out)
    }

    /// Requests that finished on the host across all groups.
    #[must_use]
    pub fn failed_over(&self) -> u64 {
        self.sum(|r| r.failed_over)
    }

    /// Requests that failed outright across all groups.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.sum(|r| r.failed)
    }

    /// Requests stranded in queues across all groups (0 on any healthy
    /// run).
    #[must_use]
    pub fn stranded(&self) -> u64 {
        self.sum(|r| r.stranded)
    }

    /// Deadline misses across all groups.
    #[must_use]
    pub fn deadline_misses(&self) -> u64 {
        self.sum(|r| r.deadline_misses)
    }

    /// Completed requests per second of virtual time, fleet-wide.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.completed() as f64 / (self.makespan_ns as f64 / 1e9)
    }

    /// Fleet utilization: busy worker-time over online capacity. Uses
    /// the groups' autoscaler capacity integrals when present; groups
    /// without one contribute `workers × fleet makespan`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self.sum(|r| r.worker_busy_ns.iter().sum());
        let capacity: u64 = self
            .groups
            .iter()
            .map(|g| {
                if g.report.capacity_ns > 0 {
                    g.report.capacity_ns
                } else {
                    self.makespan_ns * g.report.worker_busy_ns.len() as u64
                }
            })
            .sum();
        if capacity == 0 {
            return 0.0;
        }
        busy as f64 / capacity as f64
    }

    /// Scale-up decisions across all groups.
    #[must_use]
    pub fn scale_ups(&self) -> u64 {
        self.scale_events.iter().filter(|e| e.to > e.from).count() as u64
    }

    /// Scale-down decisions across all groups.
    #[must_use]
    pub fn scale_downs(&self) -> u64 {
        self.scale_events.iter().filter(|e| e.to < e.from).count() as u64
    }
}

/// A sharded fleet of [`ServePool`] node groups.
///
/// The fleet holds *configuration*, not live pools: each [`Fleet::run`]
/// builds every group's pool inside the parallel map, so group
/// simulations share only the run's price memo and a run is a pure
/// function of the request stream. (A pool's optional tracer is
/// single-threaded by design, which is the other reason pools cannot
/// outlive one group's simulation here.)
pub struct Fleet {
    sys_config: HetSystemConfig,
    tenants: Vec<TenantSpec>,
    book: CostBook,
    cfg: FleetConfig,
    /// `placement[t]` = group of global tenant `t`.
    placement: Vec<usize>,
    /// Global tenant indices per group, ascending.
    group_tenants: Vec<Vec<usize>>,
}

impl Fleet {
    /// Builds a fleet sharding `tenants` across `cfg.groups` node
    /// groups.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.groups` is 0.
    #[must_use]
    pub fn new(
        sys_config: &HetSystemConfig,
        tenants: Vec<TenantSpec>,
        book: CostBook,
        cfg: FleetConfig,
    ) -> Self {
        let placement = crate::place_tenants(&tenants, cfg.groups);
        let mut group_tenants: Vec<Vec<usize>> = vec![Vec::new(); cfg.groups];
        for (t, &g) in placement.iter().enumerate() {
            group_tenants[g].push(t);
        }
        Fleet {
            sys_config: sys_config.clone(),
            tenants,
            book,
            cfg,
            placement,
            group_tenants,
        }
    }

    /// `placement[t]` is the group of global tenant `t`.
    #[must_use]
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// Global tenant indices of one group, ascending.
    #[must_use]
    pub fn group_tenants(&self, group: usize) -> &[usize] {
        &self.group_tenants[group]
    }

    /// Runs one request stream (sorted by arrival, global tenant
    /// indices, unique ids) through the whole fleet and reports what
    /// happened. The stream is partitioned by each request's tenant
    /// placement — order and ids preserved, tenant indices remapped
    /// group-locally — and the groups simulate independently in
    /// parallel, sharing one memo of dispatch prices.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unordered`] when the stream is out of (arrival, id)
    /// order, [`ServeError::TooManyIterations`] when a request asks for
    /// more than [`ServeConfig::MAX_REQUEST_ITERATIONS`] (both checked
    /// on the whole stream, so the index is the record's position in
    /// it), [`ServeError::UnknownTenant`] when a request names a tenant
    /// outside the fleet's table, or any error a group's
    /// [`ServePool::run`] reports for its slice.
    pub fn run(&self, requests: &[ServeRequest]) -> Result<FleetReport, ServeError> {
        check_stream(requests)?;
        for r in requests {
            if r.tenant >= self.tenants.len() {
                return Err(ServeError::UnknownTenant {
                    index: r.tenant,
                    tenants: self.tenants.len(),
                });
            }
        }

        // local_index[t] = t's position inside its group's tenant table.
        let mut local_index = vec![0usize; self.tenants.len()];
        for members in &self.group_tenants {
            for (local, &t) in members.iter().enumerate() {
                local_index[t] = local;
            }
        }
        let mut slices: Vec<Vec<ServeRequest>> = vec![Vec::new(); self.cfg.groups];
        for r in requests {
            let mut local = *r;
            local.tenant = local_index[r.tenant];
            slices[self.placement[r.tenant]].push(local);
        }

        let groups: Vec<usize> = (0..self.cfg.groups).collect();
        let memo = PriceMemo::default();
        let reports = par_map(&groups, |_, &g| -> Result<ServeReport, ServeError> {
            let specs: Vec<TenantSpec> = self.group_tenants[g]
                .iter()
                .map(|&t| self.tenants[t].clone())
                .collect();
            ServePool::new(&self.sys_config, specs, self.book.clone(), self.cfg.serve)
                .with_price_memo(memo.clone())
                .run(&slices[g])
        });

        let mut group_reports = Vec::with_capacity(self.cfg.groups);
        for (g, r) in reports.into_iter().enumerate() {
            let mut report = r?;
            for e in &mut report.scale_events {
                e.group = g;
            }
            group_reports.push(GroupReport {
                group: g,
                tenants: self.group_tenants[g].clone(),
                offered: slices[g].len() as u64,
                report,
            });
        }

        let makespan_ns = group_reports
            .iter()
            .map(|g| g.report.makespan_ns)
            .max()
            .unwrap_or(0);
        let mut finished: Vec<u64> = Vec::new();
        for g in &group_reports {
            for o in &g.report.outcomes {
                if matches!(o.kind, OutcomeKind::Completed | OutcomeKind::FailedOver) {
                    finished.push(o.done_ns - o.arrival_ns);
                }
            }
        }
        let mut scale_events: Vec<ScaleEvent> = group_reports
            .iter()
            .flat_map(|g| g.report.scale_events.iter().copied())
            .collect();
        scale_events.sort_by_key(|e| (e.at_ns, e.group));

        Ok(FleetReport {
            placement: self.placement.clone(),
            offered: requests.len() as u64,
            makespan_ns,
            latency: LatencyStats::of(&finished),
            scale_events,
            groups: group_reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::AutoscalePolicy;
    use crate::invariants;
    use crate::loadgen::{TenantLoad, WorkloadSpec};
    use ulp_kernels::{Benchmark, TargetEnv};

    fn kernels() -> Vec<Benchmark> {
        vec![Benchmark::MatMul, Benchmark::MatMulShort, Benchmark::Cnn]
    }

    fn book() -> CostBook {
        CostBook::measure(
            &TargetEnv::pulp_parallel(),
            &HetSystemConfig::default(),
            &kernels(),
        )
        .expect("kernel measurement must succeed")
    }

    fn tenants(n: usize) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| TenantSpec::new(&format!("tenant-{i}")))
            .collect()
    }

    fn workload(specs: &[TenantSpec], seed: u64, rate: f64) -> Vec<ServeRequest> {
        WorkloadSpec {
            seed,
            duration_ns: 500_000_000,
            tenants: specs
                .iter()
                .map(|s| TenantLoad::uniform(s.clone(), rate, &kernels()))
                .collect(),
        }
        .generate()
    }

    #[test]
    fn fleet_conserves_requests_across_groups() {
        let specs = tenants(8);
        let reqs = workload(&specs, 51, 120.0);
        let fleet = Fleet::new(
            &HetSystemConfig::default(),
            specs,
            book(),
            FleetConfig {
                groups: 3,
                serve: ServeConfig {
                    pool: 2,
                    ..ServeConfig::default()
                },
            },
        );
        let report = fleet.run(&reqs).unwrap();
        assert_eq!(report.offered, reqs.len() as u64);
        assert_eq!(
            report.groups.iter().map(|g| g.offered).sum::<u64>(),
            reqs.len() as u64
        );
        assert_eq!(
            invariants::check_fleet(&report),
            Vec::<String>::new(),
            "a clean fleet run must pass every invariant"
        );
        assert!(report.completed() > 0);
        assert!(report.throughput_rps() > 0.0);
        let u = report.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn tenants_are_never_split_across_groups() {
        let specs = tenants(16);
        let reqs = workload(&specs, 52, 60.0);
        let fleet = Fleet::new(
            &HetSystemConfig::default(),
            specs.clone(),
            book(),
            FleetConfig {
                groups: 4,
                serve: ServeConfig {
                    pool: 2,
                    ..ServeConfig::default()
                },
            },
        );
        // Membership tables agree with placement and partition the
        // tenant set.
        let mut seen = vec![0usize; specs.len()];
        for g in 0..4 {
            for &t in fleet.group_tenants(g) {
                assert_eq!(fleet.placement()[t], g);
                seen[t] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each tenant in exactly one group"
        );
        // And the routed offered counts reproduce a by-hand partition
        // of the request stream.
        let report = fleet.run(&reqs).unwrap();
        for g in &report.groups {
            let expected = reqs
                .iter()
                .filter(|r| fleet.placement()[r.tenant] == g.group)
                .count() as u64;
            assert_eq!(g.offered, expected, "group {}", g.group);
        }
    }

    #[test]
    fn single_group_fleet_matches_plain_pool() {
        let specs = tenants(4);
        let reqs = workload(&specs, 53, 150.0);
        let serve = ServeConfig {
            pool: 2,
            ..ServeConfig::default()
        };
        let fleet = Fleet::new(
            &HetSystemConfig::default(),
            specs.clone(),
            book(),
            FleetConfig { groups: 1, serve },
        );
        let fr = fleet.run(&reqs).unwrap();
        let pr = ServePool::new(&HetSystemConfig::default(), specs, book(), serve)
            .run(&reqs)
            .unwrap();
        assert_eq!(fr.completed(), pr.completed);
        assert_eq!(fr.makespan_ns, pr.makespan_ns);
        assert_eq!(fr.latency.p99_ns, pr.latency.p99_ns);
        assert_eq!(fr.groups[0].report.batch_hist, pr.batch_hist);
        assert_eq!(fr.groups[0].report.uploads, pr.uploads);
    }

    #[test]
    fn autoscaled_groups_stamp_their_decisions() {
        let specs = tenants(6);
        let reqs = workload(&specs, 54, 700.0);
        let fleet = Fleet::new(
            &HetSystemConfig::default(),
            specs,
            book(),
            FleetConfig {
                groups: 2,
                serve: ServeConfig {
                    pool: 1,
                    autoscale: Some(AutoscalePolicy::new(1, 4)),
                    ..ServeConfig::default()
                },
            },
        );
        let report = fleet.run(&reqs).unwrap();
        assert!(
            report.scale_ups() > 0,
            "overload must scale some group up: {:?}",
            report.scale_events
        );
        assert!(report.scale_events.iter().all(|e| e.group < 2));
        assert!(report
            .scale_events
            .windows(2)
            .all(|w| (w[0].at_ns, w[0].group) <= (w[1].at_ns, w[1].group)));
        assert_eq!(invariants::check_fleet(&report), Vec::<String>::new());
    }

    #[test]
    fn unknown_tenants_are_reported() {
        let specs = tenants(2);
        let mut reqs = workload(&specs, 55, 50.0);
        reqs[0].tenant = 7;
        let fleet = Fleet::new(
            &HetSystemConfig::default(),
            specs,
            book(),
            FleetConfig::default(),
        );
        match fleet.run(&reqs) {
            Err(ServeError::UnknownTenant {
                index: 7,
                tenants: 2,
            }) => {}
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
    }
}
