//! Dispatch pricing: the measured [`CostBook`] of the kernels a pool
//! serves, and the memo of healthy dispatch prices.
//!
//! A pool brings its kernels up once — two cluster simulations each, in
//! [`CostBook::measure`] — and never touches the cluster again: every
//! dispatch shape is priced with [`HetSystem::price_job`] against those
//! cached costs, and each distinct shape is priced once per memo. A lone
//! pool owns its memo; the groups of one [`Fleet::run`](crate::Fleet::run)
//! share one, since they price against the same book and configuration.
//! `price_job` returns exactly what the queue planner
//! [`HetSystem::plan_queue`] reports for a one-job queue, but runs one
//! timing-only pipeline schedule instead of two accounted ones.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ulp_kernels::{Benchmark, TargetEnv};
use ulp_offload::{
    HetSystem, HetSystemConfig, OffloadCost, OffloadOptions, PipelineConfig, PlannedJob,
};
use ulp_par::par_map;

use crate::error::ServeError;
use crate::power::PowerPolicy;
use crate::server::ServeConfig;

/// One measured kernel of a [`CostBook`].
#[derive(Clone, Debug)]
pub(crate) struct BookEntry {
    pub(crate) benchmark: Benchmark,
    pub(crate) cost: OffloadCost,
    /// Serialized one-iteration offload estimate, ns (fair-share charge).
    pub(crate) est_ns: u64,
    /// Host-only cost of one iteration, ns; 0 = never measured.
    pub(crate) host_est_ns: u64,
}

/// Measured offload costs of the kernels a pool serves, plus the serial
/// cost estimate the fair scheduler charges tenants with.
///
/// Measuring runs two cluster simulations per kernel, which is the
/// expensive part of bringing a pool up — [`CostBook::measure`] fans it
/// out across kernels with `ulp-par`. Scheduling then never touches the
/// cluster again: batches are priced with the pure
/// [`HetSystem::price_job`] planner against these cached costs.
///
/// [`CostBook::measure_with_host`] additionally prices each kernel on
/// the host alone, which arms the chaos layer's host fallback
/// (the [`ChaosConfig::policy`](crate::ChaosConfig::policy)'s
/// `fallback_to_host`).
#[derive(Clone, Debug)]
pub struct CostBook {
    pub(crate) entries: Vec<BookEntry>,
}

impl CostBook {
    /// Measures every kernel in `benchmarks` (in parallel, one scratch
    /// [`HetSystem`] per kernel) and records its cost parameters plus
    /// the serialized one-iteration cost estimate.
    ///
    /// # Errors
    ///
    /// Returns the first measurement error any kernel hit.
    pub fn measure(
        env: &TargetEnv,
        config: &HetSystemConfig,
        benchmarks: &[Benchmark],
    ) -> Result<CostBook, ServeError> {
        Self::measure_inner(env, None, config, benchmarks)
    }

    /// Like [`CostBook::measure`], but also runs each kernel's
    /// host-targeted build on the MCU alone and records its per-iteration
    /// cost — required before a pool may fail batches over to the host.
    ///
    /// # Errors
    ///
    /// Returns the first measurement error any kernel hit (accelerator
    /// or host side).
    pub fn measure_with_host(
        env: &TargetEnv,
        host_env: &TargetEnv,
        config: &HetSystemConfig,
        benchmarks: &[Benchmark],
    ) -> Result<CostBook, ServeError> {
        Self::measure_inner(env, Some(host_env), config, benchmarks)
    }

    fn measure_inner(
        env: &TargetEnv,
        host_env: Option<&TargetEnv>,
        config: &HetSystemConfig,
        benchmarks: &[Benchmark],
    ) -> Result<CostBook, ServeError> {
        let measured = par_map(benchmarks, |_, &b| -> Result<_, ServeError> {
            let mut sys = HetSystem::new(config.clone());
            let build = b.build(env);
            let cost = sys.measure_cost(&build)?;
            let est = sys.plan_queue(
                &[PlannedJob {
                    cost: &cost,
                    opts: OffloadOptions::default(),
                    ship_binary: true,
                }],
                PipelineConfig::default(),
            );
            let est_ns = (est.serialized_seconds * 1e9).round() as u64;
            let host_est_ns = match host_env {
                Some(henv) => {
                    let host = sys.run_on_host(&b.build(henv))?;
                    ((host.seconds * 1e9).round() as u64).max(1)
                }
                None => 0,
            };
            Ok(BookEntry {
                benchmark: b,
                cost,
                est_ns,
                host_est_ns,
            })
        });
        let mut entries = Vec::with_capacity(benchmarks.len());
        for r in measured {
            entries.push(r?);
        }
        Ok(CostBook { entries })
    }

    /// The measured cost of one kernel.
    ///
    /// # Panics
    ///
    /// Panics when the kernel was not measured — requests for unknown
    /// kernels are a pool configuration bug.
    /// [`ServePool::run`](crate::ServePool::run) validates its whole
    /// request stream up front and reports [`ServeError::UnknownKernel`]
    /// instead of panicking.
    #[must_use]
    pub fn cost(&self, b: Benchmark) -> &OffloadCost {
        &self.entry(b).cost
    }

    /// Serialized single-iteration cost estimate of one kernel, in
    /// nanoseconds — the fair scheduler's charging unit.
    #[must_use]
    pub fn est_ns(&self, b: Benchmark, iterations: usize) -> u64 {
        self.entry(b)
            .est_ns
            .saturating_mul(iterations.max(1) as u64)
    }

    /// Position of a kernel in the book, or `None` if unmeasured.
    #[must_use]
    pub fn index_of(&self, b: Benchmark) -> Option<usize> {
        self.entries.iter().position(|e| e.benchmark == b)
    }

    fn entry(&self, b: Benchmark) -> &BookEntry {
        &self.entries[self.index_of(b).expect("benchmark not in cost book")]
    }
}

/// Healthy price of one dispatch shape, cached so a million-request soak
/// calls the planner once per distinct (kernel, batch size, ship) triple
/// instead of once per dispatch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Price {
    /// Fault-free service time including dispatch overhead, ns.
    pub(crate) base_ns: u64,
    /// Accelerator compute portion (arms the automatic watchdog), ns.
    pub(crate) compute_ns: u64,
    /// Fault-free energy of the dispatch — the planned offload (both
    /// sides, link included) plus the host's dispatch-overhead window at
    /// run power — in joules.
    pub(crate) energy_j: f64,
}

/// A dispatch shape: (operating point, kernel, batch iterations,
/// ships-binary).
type Shape = (usize, usize, usize, bool);

/// Memoized dispatch prices by shape. A price is a pure function of the
/// book, the planner configuration and the shape, so pricers built from
/// the same book and configuration may share one memo, whichever of them
/// fills an entry first.
pub(crate) type PriceMemo = Arc<Mutex<BTreeMap<Shape, Price>>>;

/// A pool's dispatch pricer: the shared pure planners all batch pricing
/// goes through, and the memo of the shapes already priced.
pub(crate) struct Pricer {
    /// One planner per rung of the power governor's DVFS ladder (a
    /// single entry — the configured operating point — without a
    /// governor). Workers are identical, so one model per rung prices
    /// every dispatch shape.
    planners: Vec<HetSystem>,
    pipeline: PipelineConfig,
    mcu_hz: f64,
    /// The shapes already priced: the pool's own, or the one its fleet
    /// run shares among groups.
    pub(crate) memo: PriceMemo,
}

impl Pricer {
    /// Builds one planner per operating point the pool may run at.
    pub(crate) fn new(sys_config: &HetSystemConfig, cfg: &ServeConfig) -> Self {
        let vdd = sys_config.pulp_vdd;
        let planners = cfg
            .power
            .map_or_else(|| vec![vdd], |_| PowerPolicy::ladder(vdd))
            .into_iter()
            .map(|rung_vdd| {
                let mut rung = sys_config.clone();
                rung.pulp_vdd = rung_vdd;
                rung.pulp_freq_hz = rung.power.fmax_hz(rung_vdd).min(sys_config.pulp_freq_hz);
                HetSystem::new(rung)
            })
            .collect();
        Pricer {
            planners,
            pipeline: cfg.pipeline,
            mcu_hz: sys_config.mcu_freq_hz,
            memo: PriceMemo::default(),
        }
    }

    /// Number of operating points (DVFS rungs) the pricer covers.
    pub(crate) fn rungs(&self) -> usize {
        self.planners.len()
    }

    /// Healthy price of a batch on one worker, via the pure planner's
    /// [`HetSystem::price_job`] with a memo per dispatch shape. A batch is same-kernel by
    /// construction, so it **fuses** into one planned job whose
    /// iteration count is the batch's total payload count: the binary
    /// ships (at most) once, the instruction cache warms once, and every
    /// payload after the first streams through the pipeline schedule at
    /// the steady-state rate. A serial dispatch (batch of one)
    /// degenerates to the ordinary single offload.
    pub(crate) fn price(
        &self,
        book: &CostBook,
        op: usize,
        bidx: usize,
        iterations: usize,
        ship: bool,
    ) -> Price {
        let key = (op, bidx, iterations, ship);
        if let Some(&p) = self.memo().get(&key) {
            return p;
        }
        let job = PlannedJob {
            cost: &book.entries[bidx].cost,
            opts: OffloadOptions {
                iterations,
                ..OffloadOptions::default()
            },
            ship_binary: ship,
        };
        let planner = &self.planners[op];
        let plan = planner.price_job(&job, self.pipeline);
        let overhead_s = ServeConfig::DISPATCH_OVERHEAD_CYCLES as f64 / self.mcu_hz;
        let overhead_w = planner.config().mcu.run_power_w(self.mcu_hz);
        let price = Price {
            base_ns: (plan.total_seconds * 1e9 + (overhead_s * 1e9).round()).round() as u64,
            compute_ns: (plan.compute_seconds * 1e9).round() as u64,
            energy_j: plan.energy_joules + overhead_s * overhead_w,
        };
        self.memo().insert(key, price);
        price
    }

    /// The locked memo. Its only write is an insert of a finished price,
    /// so a lock poisoned by a panic elsewhere still guards a sound map.
    fn memo(&self) -> MutexGuard<'_, BTreeMap<Shape, Price>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
