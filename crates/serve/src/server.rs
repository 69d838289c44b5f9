//! The serving pool: admission control, kernel-aware batching, weighted
//! fair dispatch over simulated accelerator workers.
//!
//! # Determinism
//!
//! A serve run is a discrete-event simulation on a virtual nanosecond
//! clock. Every scheduling decision is a pure function of the request
//! stream and the pool state — no wall clock, no thread timing. The only
//! parallelism is [`CostBook::measure`], which fans the per-kernel
//! cluster simulations out with `ulp_par::par_map`; `par_map` is
//! order-preserving and each simulation is independent, so the book (and
//! everything downstream of it) is identical under any `--jobs` setting.
//! Chaos draws ([`ChaosConfig`]) come from per-worker seeded streams
//! that advance exactly once per assessed frame, so a faulty run is just
//! as replayable as a clean one.
//!
//! # Queues
//!
//! Each tenant holds one FIFO per deadline class. A stream arrives in
//! (arrival, id) order — [`ServePool::run`] rejects any other — so every
//! FIFO is in that order too, and the next request a discipline wants is
//! always at a queue front: weighted-fair dispatch takes the first
//! non-empty class front of the tenant with the least virtual time, FIFO
//! dispatch the earliest front over all tenants. A batch then drains
//! same-kernel requests from its leader's queues in class order and tops
//! up from the other tenants.
//!
//! # Why batching wins
//!
//! A cold offload pays the program upload (text + rodata + constants)
//! before the first payload frame moves. Serial per-request dispatch
//! interleaves kernels on each worker, so residency thrashes and nearly
//! every request pays that upload. A kernel-aware batch ships the binary
//! once for N payloads and threads all N through one shared pipeline
//! [`Schedule`](ulp_offload::PipelineConfig), overlapping request k+1's
//! input stream under request k's compute — the two amortizations
//! arXiv:2404.01908 and arXiv:2505.05911 identify.

use std::collections::VecDeque;

use ulp_kernels::Benchmark;
use ulp_link::FaultInjector;
use ulp_offload::{HetSystemConfig, PipelineConfig};
use ulp_trace::{Component, EventKind, Tracer};

use crate::autoscale::{AutoscalePolicy, Scaler};
use crate::chaos::{
    degrade, BatchFate, ChaosConfig, ChaosStats, DispatchJob, LinkTiming, Timeline,
};
use crate::error::ServeError;
use crate::metrics::{
    LatencyStats, OutcomeKind, RequestOutcome, ServeReport, SloLedger, TenantReport,
};
use crate::power::{Governor, PowerPolicy};
use crate::pricing::{CostBook, Pricer};
use crate::request::{ServeRequest, TenantSpec};

/// How the pool forms batches.
#[derive(Clone, Copy, Debug)]
pub enum BatchPolicy {
    /// One request per dispatch — the per-request baseline the paper's
    /// runtime implements today.
    Serial,
    /// Coalesce same-kernel requests, up to `max_batch` per dispatch.
    KernelAware {
        /// Largest batch a single dispatch may carry (≥ 1).
        max_batch: usize,
    },
}

impl BatchPolicy {
    fn max_batch(self) -> usize {
        match self {
            BatchPolicy::Serial => 1,
            BatchPolicy::KernelAware { max_batch } => max_batch.max(1),
        }
    }
}

/// Static configuration of a [`ServePool`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of accelerator workers.
    pub pool: usize,
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Weighted fair scheduling across tenants; `false` degrades to
    /// global FIFO (the fairness regression's adversary).
    pub fair: bool,
    /// Pipeline configuration every dispatch runs under.
    pub pipeline: PipelineConfig,
    /// Autoscaling policy. `None` (the default) pins the active worker
    /// count at `pool`; `Some` allocates `max_workers` workers up front,
    /// starts `pool` of them active, and lets the policy grow/shrink the
    /// active prefix at its decision cadence.
    pub autoscale: Option<AutoscalePolicy>,
    /// Pressure-scaled per-class admission pricing (off by default).
    /// Queue caps are per tenant and class-blind; pricing adds a
    /// pool-wide gate: an arrival of class rank `c` is admitted only
    /// while the queued depth, in percent of
    /// [`Self::PRICING_DEPTH_PER_WORKER`] per active worker, sits below
    /// [`Self::PRICING_CEILING_PCT`]`[c]`. Under load batch traffic is
    /// shed first, standard next, interactive last.
    pub admission_pricing: bool,
    /// Power-envelope governor (`None`, the default, runs every dispatch
    /// at the configured operating point).
    pub power: Option<PowerPolicy>,
}

impl ServeConfig {
    /// Host cycles one dispatch transaction costs on top of the modeled
    /// offload: runtime entry, descriptor and map-list construction,
    /// completion interrupt, and response marshalling. The offload
    /// model's `sync_seconds` covers only the two GPIO edges per
    /// iteration; the serving front-end pays this full software path
    /// once per *dispatch*, which is exactly the overhead arXiv:2404.01908
    /// and arXiv:2505.05911 measure (10²–10⁴ host cycles per offload)
    /// and amortize by batching. 8 000 cycles is 0.5 ms on the 16 MHz
    /// STM32-L476.
    pub const DISPATCH_OVERHEAD_CYCLES: u64 = 8_000;
    /// Queued requests per active worker that admission pricing counts
    /// as 100% pressure.
    pub const PRICING_DEPTH_PER_WORKER: u64 = 32;
    /// Admission-pricing ceiling per class rank (interactive, standard,
    /// batch), in percent of target pressure.
    pub const PRICING_CEILING_PCT: [u64; 3] = [100, 75, 50];
    /// Most kernel iterations one request may ask for. Pricing and the
    /// fault model both walk a dispatch iteration by iteration, so an
    /// unbounded count from an untrusted trace would be unbounded work;
    /// [`ServePool::run`] rejects a request above this bound.
    pub const MAX_REQUEST_ITERATIONS: usize = 1_024;
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool: 1,
            policy: BatchPolicy::KernelAware { max_batch: 8 },
            fair: true,
            pipeline: PipelineConfig::enabled(),
            autoscale: None,
            admission_pricing: false,
            power: None,
        }
    }
}

/// One simulated accelerator worker. Workers carry scheduling state
/// only — batch pricing goes through the pool's single shared planner —
/// so a 1024-worker fleet group costs vectors of three scalars, not a
/// thousand cluster models.
#[derive(Default)]
struct Worker {
    resident: Option<Benchmark>,
    free_at_ns: u64,
    busy_ns: u64,
}

#[derive(Default)]
struct TenantState {
    /// Admitted requests, one FIFO per deadline class in rank order,
    /// each in stream order.
    queues: [VecDeque<ServeRequest>; 3],
    /// Total length of `queues`.
    queued: usize,
    vtime: u64,
    latencies: Vec<u64>,
    rejected: u64,
    deadline_misses: u64,
    failed_over: u64,
    failed: u64,
}

impl TenantState {
    /// Moves up to `room` queued `kernel` requests onto `batch`, class
    /// by class in stream order, and charges their estimated serial cost
    /// (`est_ns` per iteration, over the tenant's `weight`) to its
    /// virtual time.
    fn drain_into(
        &mut self,
        batch: &mut Vec<ServeRequest>,
        kernel: Benchmark,
        room: usize,
        est_ns: u64,
        weight: u32,
        vnow: &mut u64,
    ) {
        let from = batch.len();
        for q in &mut self.queues {
            let mut i = 0;
            while i < q.len() && batch.len() - from < room {
                if q[i].benchmark == kernel {
                    batch.push(q.remove(i).expect("index is in bounds"));
                } else {
                    i += 1;
                }
            }
        }
        let taken = &batch[from..];
        if taken.is_empty() {
            return;
        }
        self.queued -= taken.len();
        let charged: u64 = taken
            .iter()
            .map(|r| est_ns.saturating_mul(r.iterations.max(1) as u64))
            .sum();
        *vnow = (*vnow).max(self.vtime);
        self.vtime += charged / u64::from(weight.max(1));
    }
}

/// The outcome record of request `r` leaving the system at `done_ns`.
fn outcome(r: &ServeRequest, done_ns: u64, kind: OutcomeKind) -> RequestOutcome {
    RequestOutcome {
        id: r.id,
        tenant: r.tenant,
        class: r.class,
        benchmark: r.benchmark,
        arrival_ns: r.arrival_ns,
        done_ns,
        kind,
    }
}

/// Checks that a request stream is in (arrival, id) order with strictly
/// increasing ids, and that no request asks for more than
/// [`ServeConfig::MAX_REQUEST_ITERATIONS`].
///
/// # Errors
///
/// [`ServeError::Unordered`] or [`ServeError::TooManyIterations`] naming
/// the first record that breaks either rule.
pub(crate) fn check_stream(requests: &[ServeRequest]) -> Result<(), ServeError> {
    for (index, r) in requests.iter().enumerate() {
        if r.iterations > ServeConfig::MAX_REQUEST_ITERATIONS {
            return Err(ServeError::TooManyIterations {
                index,
                id: r.id,
                iterations: r.iterations,
            });
        }
        let prev = index.checked_sub(1).map(|p| &requests[p]);
        if prev.is_some_and(|p| r.arrival_ns < p.arrival_ns || r.id <= p.id) {
            return Err(ServeError::Unordered { index, id: r.id });
        }
    }
    Ok(())
}

/// The multi-tenant serving front-end: a pool of simulated accelerator
/// workers behind bounded per-tenant queues.
///
/// See the [module docs](crate::server) for the scheduling model;
/// [`ServePool::run`] executes one request stream to completion.
/// [`ServePool::with_chaos`] and [`ServePool::with_timeline`] attach
/// fault injection and scripted disruptions; with neither attached a run
/// is bit-identical to a chaos-free build of the pool.
pub struct ServePool {
    cfg: ServeConfig,
    book: CostBook,
    tenants: Vec<TenantSpec>,
    workers: Vec<Worker>,
    /// Prices every dispatch shape, once per shape.
    pricer: Pricer,
    tracer: Tracer,
    chaos: ChaosConfig,
    timeline: Timeline,
    timing: LinkTiming,
}

impl ServePool {
    /// Builds a pool of `cfg.pool` identical workers (with autoscaling
    /// configured, `autoscale.max_workers` workers of which `cfg.pool`
    /// start active).
    #[must_use]
    pub fn new(
        sys_config: &HetSystemConfig,
        tenants: Vec<TenantSpec>,
        book: CostBook,
        cfg: ServeConfig,
    ) -> Self {
        let alloc = cfg
            .autoscale
            .map_or(cfg.pool, |p| p.max_workers.max(cfg.pool))
            .max(1);
        ServePool {
            pricer: Pricer::new(sys_config, &cfg),
            cfg,
            book,
            tenants,
            workers: (0..alloc).map(|_| Worker::default()).collect(),
            tracer: Tracer::disabled(),
            chaos: ChaosConfig::default(),
            timeline: Timeline::default(),
            timing: LinkTiming::new(sys_config),
        }
    }

    /// Attaches a tracer; the run emits `batch` / `queue-depth` events
    /// and per-worker utilization counters into it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches per-worker fault injection. An inactive config (no
    /// profiles, or all-zero rates) leaves every run bit-identical to a
    /// pool without it.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Attaches a scripted disruption timeline (worker blackouts and
    /// residency flushes).
    #[must_use]
    pub fn with_timeline(mut self, timeline: Timeline) -> Self {
        self.timeline = timeline;
        self
    }

    /// Runs one request stream to completion and reports what happened.
    /// Worker state is reset first, so repeated runs of the same stream
    /// produce identical reports.
    ///
    /// The stream is validated up front: it must be sorted by arrival
    /// with strictly increasing ids, no request may ask for more than
    /// [`ServeConfig::MAX_REQUEST_ITERATIONS`], every request must name a tenant
    /// inside the tenant table and a kernel the cost book measured, and —
    /// when fault injection could fail a batch over to the host — every
    /// requested kernel must carry a host cost. A misconfiguration is
    /// reported before any virtual time elapses, so soak harnesses can
    /// attach the workload seed to the error.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unordered`], [`ServeError::TooManyIterations`],
    /// [`ServeError::UnknownTenant`], [`ServeError::UnknownKernel`], or
    /// [`ServeError::MissingHostCost`] on a request stream the pool was
    /// not configured for.
    pub fn run(&mut self, requests: &[ServeRequest]) -> Result<ServeReport, ServeError> {
        check_stream(requests)?;
        let need_host = self.chaos.is_active() && self.chaos.policy.fallback_to_host;
        for r in requests {
            if r.tenant >= self.tenants.len() {
                return Err(ServeError::UnknownTenant {
                    index: r.tenant,
                    tenants: self.tenants.len(),
                });
            }
            let kernel = r.benchmark.name();
            let bidx = self
                .book
                .index_of(r.benchmark)
                .ok_or(ServeError::UnknownKernel { kernel })?;
            if need_host && self.book.entries[bidx].host_est_ns == 0 {
                return Err(ServeError::MissingHostCost { kernel });
            }
        }

        self.workers.fill_with(Worker::default);
        let mut tenants: Vec<TenantState> = Vec::new();
        tenants.resize_with(self.tenants.len(), TenantState::default);
        let mut injectors: Vec<Option<FaultInjector>> = (0..self.workers.len())
            .map(|i| self.chaos.injector_for(i))
            .collect();
        let mut scaler = Scaler::new(self.cfg.autoscale, self.cfg.pool, self.workers.len());
        let mut governor = Governor::new(self.cfg.power, self.pricer.rungs());

        let max_batch = self.cfg.policy.max_batch();
        let mut batch: Vec<ServeRequest> = Vec::with_capacity(max_batch);
        let mut order: Vec<usize> = Vec::with_capacity(tenants.len());
        let mut next_arrival = 0usize;
        let mut now = 0u64;
        let mut vnow = 0u64; // fairness floor for newly-backlogged tenants
        let mut queued = 0usize;
        let mut batch_hist: Vec<u64> = Vec::new();
        let mut uploads = 0u64;
        let mut makespan = 0u64;
        let mut max_depth = 0usize;
        let mut flush_idx = 0usize;
        let mut admitted = 0u64;
        let mut completed = 0u64;
        let mut priced_out = 0u64;
        // Tracked whatever the governor does: it adds a report field
        // without perturbing any other figure.
        let mut energy_joules = 0.0f64;
        let mut stats = ChaosStats::default();
        let mut ledger = SloLedger::new(tenants.len());
        let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(requests.len());

        loop {
            // Apply residency-churn flushes that have come due: every
            // worker forgets its resident binary, so the next dispatch
            // pays the upload again.
            while flush_idx < self.timeline.flushes.len() && self.timeline.flushes[flush_idx] <= now
            {
                flush_idx += 1;
                stats.residency_flushes += 1;
                for w in &mut self.workers {
                    w.resident = None;
                }
            }

            scaler.decide(now, queued, &self.tracer);
            governor.decide(now);

            // Admit everything that has arrived by `now`.
            while next_arrival < requests.len() && requests[next_arrival].arrival_ns <= now {
                let r = requests[next_arrival];
                next_arrival += 1;
                let class = r.class.rank() as usize;
                let priced = self.cfg.admission_pricing && {
                    let target =
                        (scaler.active() as u64 * ServeConfig::PRICING_DEPTH_PER_WORKER).max(1);
                    queued as u64 * 100 / target >= ServeConfig::PRICING_CEILING_PCT[class]
                };
                let t = &mut tenants[r.tenant];
                if priced || t.queued >= self.tenants[r.tenant].queue_cap {
                    priced_out += u64::from(priced);
                    t.rejected += 1;
                    let o = outcome(&r, r.arrival_ns, OutcomeKind::Rejected);
                    ledger.post(&o);
                    outcomes.push(o);
                    continue;
                }
                admitted += 1;
                if t.queued == 0 {
                    // A tenant returning from idle starts at the current
                    // fairness floor instead of spending banked credit.
                    t.vtime = t.vtime.max(vnow);
                }
                t.queues[class].push_back(r);
                t.queued += 1;
                queued += 1;
            }
            max_depth = max_depth.max(queued);

            // Dispatch while an active worker is idle and work is queued.
            while let Some(head) = self.head(&tenants) {
                let kernel = head.benchmark;
                let Some(widx) = self.idle_worker(kernel, now, scaler.active()) else {
                    // Stalled purely by the timeline (an otherwise-idle
                    // worker exists but is blacked out)? Count it — the
                    // scheduler will wake at the blackout's end.
                    if self.workers[..scaler.active()]
                        .iter()
                        .enumerate()
                        .any(|(i, w)| w.free_at_ns <= now && self.timeline.blacked_out(i, now))
                    {
                        stats.blackout_windows += 1;
                    }
                    break;
                };
                let bidx = self.book.index_of(kernel).expect("stream validated");
                let est_ns = self.book.entries[bidx].est_ns;
                // The head's tenant leads its own batch; the others top it
                // up in the discipline's order.
                order.clear();
                order.extend(
                    (0..tenants.len()).filter(|&i| i != head.tenant && tenants[i].queued > 0),
                );
                if self.cfg.fair {
                    order.sort_by_key(|&i| (tenants[i].vtime, i));
                }
                batch.clear();
                for &i in std::iter::once(&head.tenant).chain(&order) {
                    let room = max_batch - batch.len();
                    if room == 0 {
                        break;
                    }
                    let weight = self.tenants[i].weight;
                    tenants[i].drain_into(&mut batch, kernel, room, est_ns, weight, &mut vnow);
                }
                queued -= batch.len();

                let ship = self.workers[widx].resident != Some(kernel);
                let iterations: usize = batch.iter().map(|r| r.iterations.max(1)).sum();
                let price = self
                    .pricer
                    .price(&self.book, governor.rung(), bidx, iterations, ship);
                energy_joules += price.energy_j;

                let (service_ns, fate) = match injectors[widx].as_mut() {
                    Some(inj) => {
                        let entry = &self.book.entries[bidx];
                        let d = degrade(
                            inj,
                            &self.chaos,
                            &self.timing,
                            &DispatchJob {
                                cost: &entry.cost,
                                iterations,
                                ship,
                                base_ns: price.base_ns,
                                compute_ns: price.compute_ns,
                                host_est_ns: entry.host_est_ns,
                            },
                        );
                        stats.retransmissions += d.retransmissions;
                        stats.watchdog_fires += d.watchdog_fires;
                        stats.late_events += d.late_events;
                        (d.service_ns, d.fate)
                    }
                    None => (price.base_ns, BatchFate::Served),
                };

                let w = &mut self.workers[widx];
                // A failed dispatch leaves the accelerator in an unknown
                // state; the watchdog restart wipes residency.
                w.resident = (fate == BatchFate::Served).then_some(kernel);
                w.free_at_ns = now + service_ns;
                w.busy_ns += service_ns;
                uploads += u64::from(ship && fate == BatchFate::Served);
                makespan = makespan.max(w.free_at_ns);
                governor.observe(now, service_ns, price.energy_j);

                if batch_hist.len() < batch.len() {
                    batch_hist.resize(batch.len(), 0);
                }
                batch_hist[batch.len() - 1] += 1;
                self.tracer.emit(
                    Component::Worker(widx as u8),
                    EventKind::Batch {
                        size: batch.len() as u32,
                    },
                    now,
                    service_ns,
                );
                self.tracer.emit(
                    Component::Worker(widx as u8),
                    EventKind::QueueDepth {
                        depth: queued as u32,
                    },
                    now,
                    0,
                );

                let done = now + service_ns;
                let kind = match fate {
                    BatchFate::Served => OutcomeKind::Completed,
                    BatchFate::FailedOver => OutcomeKind::FailedOver,
                    BatchFate::Failed => OutcomeKind::Failed,
                };
                for r in &batch {
                    let t = &mut tenants[r.tenant];
                    if fate == BatchFate::Failed {
                        t.failed += 1;
                    } else {
                        let latency = done - r.arrival_ns;
                        t.latencies.push(latency);
                        scaler.observe(latency);
                        t.deadline_misses += u64::from(latency > r.class.deadline_ns());
                        if fate == BatchFate::FailedOver {
                            t.failed_over += 1;
                        } else {
                            completed += 1;
                        }
                    }
                    let o = outcome(r, done, kind);
                    ledger.post(&o);
                    outcomes.push(o);
                }
                match fate {
                    BatchFate::FailedOver => {
                        stats.fallback_batches += 1;
                        stats.fallback_requests += batch.len() as u64;
                    }
                    BatchFate::Failed => stats.failed_requests += batch.len() as u64,
                    BatchFate::Served => {}
                }
            }

            // Advance the virtual clock to the next event. A scheduler
            // stalled by blackouts with work still queued must wake when
            // the earliest blackout lifts, or requests would strand. A
            // pending policy decision wakes the scheduler early, but never
            // keeps a drained run alive: with no other event left the run
            // ends and so does every policy.
            let next_event = [
                (next_arrival < requests.len()).then(|| requests[next_arrival].arrival_ns),
                self.workers
                    .iter()
                    .filter(|w| w.free_at_ns > now)
                    .map(|w| w.free_at_ns)
                    .min(),
                self.timeline.next_blackout_end(now).filter(|_| queued > 0),
            ]
            .into_iter()
            .flatten()
            .min();
            let Some(t) = next_event else { break };
            let t = [scaler.next_ns(), governor.next_ns()]
                .into_iter()
                .flatten()
                .fold(t, u64::min);
            scaler.advance(now, t);
            governor.advance(now, t);
            now = t;
        }

        let all: Vec<u64> = tenants.iter().flat_map(|t| &t.latencies).copied().collect();
        for (i, w) in self.workers.iter().enumerate() {
            self.tracer
                .set_counter(Component::Worker(i as u8), w.busy_ns, makespan);
        }
        for inj in injectors.iter().flatten() {
            stats.absorb(inj.stats());
        }
        Ok(ServeReport {
            admitted,
            completed,
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            failed_over: tenants.iter().map(|t| t.failed_over).sum(),
            failed: tenants.iter().map(|t| t.failed).sum(),
            stranded: queued as u64,
            deadline_misses: tenants.iter().map(|t| t.deadline_misses).sum(),
            makespan_ns: makespan,
            latency: LatencyStats::of(&all),
            tenants: tenants
                .iter()
                .zip(&self.tenants)
                .map(|(t, spec)| TenantReport {
                    name: spec.name.clone(),
                    weight: spec.weight,
                    latency: LatencyStats::of(&t.latencies),
                    rejected: t.rejected,
                    deadline_misses: t.deadline_misses,
                    failed_over: t.failed_over,
                    failed: t.failed,
                })
                .collect(),
            batch_hist,
            uploads,
            worker_busy_ns: self.workers.iter().map(|w| w.busy_ns).collect(),
            max_queue_depth: max_depth,
            chaos: stats,
            slo: ledger,
            outcomes,
            scale_events: scaler.events,
            capacity_ns: scaler.capacity_ns,
            priced_out,
            energy_joules,
            op_residency_ns: governor.residency_ns,
            power_events: governor.events,
        })
    }

    /// The request the next batch is built around: under weighted
    /// fairness the first class front of the tenant with the least
    /// virtual time (lowest index on ties), under FIFO the earliest
    /// front over all tenants. `None` when nothing is queued.
    fn head(&self, tenants: &[TenantState]) -> Option<ServeRequest> {
        if self.cfg.fair {
            tenants
                .iter()
                .filter(|t| t.queued > 0)
                .min_by_key(|t| t.vtime)?
                .queues
                .iter()
                .find_map(VecDeque::front)
                .copied()
        } else {
            tenants
                .iter()
                .flat_map(|t| t.queues.iter().filter_map(VecDeque::front))
                .min_by_key(|r| (r.arrival_ns, r.id))
                .copied()
        }
    }

    /// Picks an idle, non-blacked-out worker from the active prefix,
    /// preferring one that already holds `kernel` (lowest index wins
    /// ties for determinism). `None` when every active worker is busy or
    /// out.
    fn idle_worker(&self, kernel: Benchmark, now: u64, active: usize) -> Option<usize> {
        let mut first_idle = None;
        for (i, w) in self.workers[..active].iter().enumerate() {
            if w.free_at_ns > now || self.timeline.blacked_out(i, now) {
                continue;
            }
            if w.resident == Some(kernel) {
                return Some(i);
            }
            if first_idle.is_none() {
                first_idle = Some(i);
            }
        }
        first_idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Blackout, FaultProfile};
    use crate::loadgen::{TenantLoad, WorkloadSpec};
    use ulp_kernels::TargetEnv;

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

    fn host_book() -> CostBook {
        CostBook::measure_with_host(
            &TargetEnv::pulp_parallel(),
            &TargetEnv::host_m4(),
            &HetSystemConfig::default(),
            &kernels(),
        )
        .expect("kernel measurement must succeed")
    }

    fn workload(seed: u64, rate: f64) -> Vec<ServeRequest> {
        WorkloadSpec {
            seed,
            duration_ns: 1_000_000_000,
            tenants: vec![TenantLoad::uniform(TenantSpec::new("t"), rate, &kernels())],
        }
        .generate()
    }

    fn pool(policy: BatchPolicy, book: CostBook) -> ServePool {
        ServePool::new(
            &HetSystemConfig::default(),
            vec![TenantSpec::new("t")],
            book,
            ServeConfig {
                pool: 2,
                policy,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn batching_amortizes_uploads_and_lifts_throughput() {
        let book = book();
        let reqs = workload(3, 400.0);
        let serial = pool(BatchPolicy::Serial, book.clone()).run(&reqs).unwrap();
        let batched = pool(BatchPolicy::KernelAware { max_batch: 8 }, book)
            .run(&reqs)
            .unwrap();
        assert_eq!(serial.completed + serial.rejected, reqs.len() as u64);
        assert!(batched.completed >= serial.completed);
        assert!(
            batched.uploads < serial.uploads,
            "batching must amortize uploads: {} vs {}",
            batched.uploads,
            serial.uploads
        );
        assert!(batched.mean_batch() > 1.0);
        assert!(
            batched.throughput_rps() > serial.throughput_rps(),
            "batched {} rps vs serial {} rps",
            batched.throughput_rps(),
            serial.throughput_rps()
        );
    }

    #[test]
    fn runs_are_repeatable() {
        let reqs = workload(9, 300.0);
        let mut p = pool(BatchPolicy::KernelAware { max_batch: 8 }, book());
        let a = p.run(&reqs).unwrap();
        let b = p.run(&reqs).unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.latency.p99_ns, b.latency.p99_ns);
        assert_eq!(a.batch_hist, b.batch_hist);
        assert_eq!(a.uploads, b.uploads);
    }

    #[test]
    fn admission_control_rejects_over_cap() {
        let book = book();
        let mut spec = TenantSpec::new("t");
        spec.queue_cap = 2;
        let mut p = ServePool::new(
            &HetSystemConfig::default(),
            vec![spec],
            book,
            ServeConfig {
                pool: 1,
                ..ServeConfig::default()
            },
        );
        // Heavy overload on one worker: the bound must trip.
        let r = p.run(&workload(5, 5_000.0)).unwrap();
        assert!(r.rejected > 0, "queue cap 2 must reject under overload");
        assert!(r.max_queue_depth <= 2);
    }

    #[test]
    fn fair_scheduling_bounds_the_background_tenant() {
        let book = book();
        let bg = TenantSpec::new("bg");
        let hot = TenantSpec::new("hot");
        let mk = |fair: bool| {
            ServePool::new(
                &HetSystemConfig::default(),
                vec![bg.clone(), hot.clone()],
                book.clone(),
                ServeConfig {
                    pool: 2,
                    fair,
                    ..ServeConfig::default()
                },
            )
        };
        let reqs = WorkloadSpec {
            seed: 11,
            duration_ns: 1_000_000_000,
            tenants: vec![
                TenantLoad::uniform(bg.clone(), 30.0, &[Benchmark::MatMul]),
                TenantLoad::uniform(hot.clone(), 600.0, &kernels()),
            ],
        }
        .generate();
        let fair = mk(true).run(&reqs).unwrap();
        let fifo = mk(false).run(&reqs).unwrap();
        let bg_fair = fair.tenants[0].latency.p99_ns;
        let bg_fifo = fifo.tenants[0].latency.p99_ns;
        assert!(
            bg_fair <= bg_fifo,
            "fair p99 {bg_fair} must not exceed FIFO p99 {bg_fifo}"
        );
    }

    #[test]
    fn tracer_records_batches_and_utilization() {
        let tracer = Tracer::enabled();
        let reqs = workload(2, 200.0);
        let mut p = ServePool::new(
            &HetSystemConfig::default(),
            vec![TenantSpec::new("t")],
            book(),
            ServeConfig::default(),
        )
        .with_tracer(tracer.clone());
        let r = p.run(&reqs).unwrap();
        let events = tracer.events();
        let batches = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Batch { .. }))
            .count() as u64;
        assert_eq!(batches, r.batch_hist.iter().sum::<u64>());
        let counters = tracer.counters();
        assert!(counters
            .iter()
            .any(|(c, k)| *c == Component::Worker(0) && k.total == r.makespan_ns));
    }

    #[test]
    fn bad_requests_are_reported_not_panicked() {
        let mut p = pool(BatchPolicy::Serial, book());
        let mut r = workload(1, 50.0);
        r[0].tenant = 9;
        match p.run(&r) {
            Err(ServeError::UnknownTenant {
                index: 9,
                tenants: 1,
            }) => {}
            other => panic!("expected UnknownTenant, got {other:?}"),
        }

        // A chaos pool with host fallback demands host costs up front.
        let mut p = pool(BatchPolicy::Serial, book()).with_chaos(ChaosConfig::uniform(
            1,
            FaultProfile {
                drop_rate: 0.5,
                ..FaultProfile::default()
            },
        ));
        match p.run(&workload(1, 50.0)) {
            Err(ServeError::MissingHostCost { .. }) => {}
            other => panic!("expected MissingHostCost, got {other:?}"),
        }
    }

    #[test]
    fn chaos_conserves_every_request() {
        let reqs = workload(21, 500.0);
        let chaos = ChaosConfig::uniform(
            77,
            FaultProfile {
                bit_error_rate: 1e-5,
                drop_rate: 0.02,
                hang_rate: 0.01,
                ..FaultProfile::default()
            },
        );
        let mut p = pool(BatchPolicy::KernelAware { max_batch: 8 }, host_book()).with_chaos(chaos);
        let r = p.run(&reqs).unwrap();
        assert_eq!(
            r.completed + r.rejected + r.failed_over + r.failed,
            reqs.len() as u64,
            "every request must be accounted for exactly once"
        );
        assert_eq!(r.stranded, 0);
        assert_eq!(r.admitted + r.rejected, reqs.len() as u64);
        assert!(r.chaos.any(), "faults at these rates must leave a trace");
        assert_eq!(r.outcomes.len(), reqs.len());
        assert_eq!(r.slo, SloLedger::recompute(1, &r.outcomes));
    }

    #[test]
    fn certain_hang_fails_over_every_batch() {
        let reqs = workload(4, 100.0);
        let chaos = ChaosConfig::uniform(
            5,
            FaultProfile {
                hang_rate: 1.0,
                ..FaultProfile::default()
            },
        );
        let mut p = pool(BatchPolicy::Serial, host_book()).with_chaos(chaos);
        let r = p.run(&reqs).unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.failed_over + r.rejected, reqs.len() as u64);
        assert!(r.chaos.watchdog_fires > 0);
        assert!(r.chaos.fallback_requests > 0);
    }

    #[test]
    fn blackout_delays_but_strands_nothing() {
        let reqs = workload(6, 200.0);
        let clean = pool(BatchPolicy::Serial, book()).run(&reqs).unwrap();
        let mut p = pool(BatchPolicy::Serial, book()).with_timeline(Timeline {
            blackouts: vec![
                Blackout {
                    worker: 0,
                    start_ns: 0,
                    end_ns: 400_000_000,
                },
                Blackout {
                    worker: 1,
                    start_ns: 0,
                    end_ns: 400_000_000,
                },
            ],
            flushes: Vec::new(),
        });
        let r = p.run(&reqs).unwrap();
        assert_eq!(r.stranded, 0);
        assert_eq!(
            r.completed + r.rejected,
            reqs.len() as u64,
            "a lifted blackout must not lose requests"
        );
        assert!(
            r.latency.p99_ns >= clean.latency.p99_ns,
            "a pool-wide outage cannot make tails better"
        );
        assert!(r.chaos.blackout_windows > 0);
    }

    #[test]
    fn residency_churn_costs_uploads() {
        let reqs = workload(8, 300.0);
        let clean = pool(BatchPolicy::KernelAware { max_batch: 8 }, book())
            .run(&reqs)
            .unwrap();
        let flushes: Vec<u64> = (1..20).map(|i| i * 50_000_000).collect();
        let mut p =
            pool(BatchPolicy::KernelAware { max_batch: 8 }, book()).with_timeline(Timeline {
                blackouts: Vec::new(),
                flushes,
            });
        let churned = p.run(&reqs).unwrap();
        assert!(churned.chaos.residency_flushes > 0);
        assert!(
            churned.uploads > clean.uploads,
            "churn {} uploads must exceed clean {}",
            churned.uploads,
            clean.uploads
        );
    }

    #[test]
    fn inactive_chaos_is_bit_identical_to_none() {
        let reqs = workload(13, 350.0);
        let plain = pool(BatchPolicy::KernelAware { max_batch: 8 }, book())
            .run(&reqs)
            .unwrap();
        let mut p = pool(BatchPolicy::KernelAware { max_batch: 8 }, book())
            .with_chaos(ChaosConfig::uniform(9, FaultProfile::default()))
            .with_timeline(Timeline::default());
        let idle = p.run(&reqs).unwrap();
        assert_eq!(plain.completed, idle.completed);
        assert_eq!(plain.makespan_ns, idle.makespan_ns);
        assert_eq!(plain.batch_hist, idle.batch_hist);
        assert_eq!(plain.uploads, idle.uploads);
        assert_eq!(plain.latency.p99_ns, idle.latency.p99_ns);
        assert!(!idle.chaos.any());
    }

    #[test]
    fn fixed_pool_reports_no_scaling_artifacts() {
        let mut p = pool(BatchPolicy::KernelAware { max_batch: 8 }, book());
        let r = p.run(&workload(17, 300.0)).unwrap();
        assert!(r.scale_events.is_empty());
        assert_eq!(r.capacity_ns, 0);
        assert_eq!(r.priced_out, 0);
    }

    #[test]
    fn autoscaler_grows_under_pressure_and_releases_when_quiet() {
        let book = book();
        let policy = AutoscalePolicy {
            cooldown_ns: 40_000_000,
            ..AutoscalePolicy::new(1, 6)
        };
        let spec = TenantSpec::new("t");
        // A flash crowd in the first 300 ms, then a light tail: the pool
        // must grow into the crowd and hand workers back afterwards.
        let reqs = WorkloadSpec {
            seed: 31,
            duration_ns: 2_000_000_000,
            tenants: vec![TenantLoad::uniform(spec.clone(), 120.0, &kernels())],
        }
        .generate_with_bursts(&[crate::loadgen::Burst {
            tenant: 0,
            start_ns: 0,
            end_ns: 300_000_000,
            factor: 20.0,
        }]);
        let mut p = ServePool::new(
            &HetSystemConfig::default(),
            vec![spec.clone()],
            book.clone(),
            ServeConfig {
                pool: 1,
                autoscale: Some(policy),
                ..ServeConfig::default()
            },
        );
        let scaled = p.run(&reqs).unwrap();
        assert!(
            scaled.scale_events.iter().any(|e| e.to > e.from),
            "the flash crowd must trigger a scale-up: {:?}",
            scaled.scale_events
        );
        assert!(
            scaled.scale_events.iter().any(|e| e.to < e.from),
            "the quiet tail must release workers: {:?}",
            scaled.scale_events
        );
        assert!(scaled.capacity_ns > 0);
        // Cooldown: consecutive actions are at least cooldown_ns apart.
        for w in scaled.scale_events.windows(2) {
            assert!(w[1].at_ns >= w[0].at_ns + policy.cooldown_ns);
        }
        // Extra capacity cannot serve fewer requests than the pinned
        // single-worker pool.
        let pinned = ServePool::new(
            &HetSystemConfig::default(),
            vec![spec],
            book,
            ServeConfig {
                pool: 1,
                ..ServeConfig::default()
            },
        )
        .run(&reqs)
        .unwrap();
        assert!(scaled.completed >= pinned.completed);
    }

    #[test]
    fn admission_pricing_sheds_batch_class_first() {
        let book = book();
        let mut spec = TenantSpec::new("t");
        spec.queue_cap = 10_000; // pricing, not the per-tenant cap, must bind
        let load = TenantLoad {
            class_mix: [1.0, 1.0, 1.0],
            ..TenantLoad::uniform(spec.clone(), 3_000.0, &kernels())
        };
        let reqs = WorkloadSpec {
            seed: 41,
            duration_ns: 1_000_000_000,
            tenants: vec![load],
        }
        .generate();
        let mut p = ServePool::new(
            &HetSystemConfig::default(),
            vec![spec],
            book,
            ServeConfig {
                pool: 1,
                admission_pricing: true,
                ..ServeConfig::default()
            },
        );
        let r = p.run(&reqs).unwrap();
        assert!(r.priced_out > 0, "overload must price requests out");
        assert!(r.priced_out <= r.rejected);
        let by_class =
            |rank: usize| -> u64 { r.slo.cells.iter().map(|row| row[rank].rejected).sum() };
        let (interactive, batch) = (by_class(0), by_class(2));
        assert!(
            batch > interactive,
            "batch ({batch}) must shed before interactive ({interactive})"
        );
    }

    fn power_pool(power: Option<PowerPolicy>) -> ServePool {
        ServePool::new(
            &HetSystemConfig::default(),
            vec![TenantSpec::new("t")],
            book(),
            ServeConfig {
                pool: 2,
                power,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn disabled_governor_reports_energy_but_no_ladder_state() {
        let reqs = workload(11, 400.0);
        let r = power_pool(None).run(&reqs).unwrap();
        assert!(r.energy_joules > 0.0, "energy must be accounted even off");
        assert!(r.op_residency_ns.is_empty());
        assert!(r.power_events.is_empty());
        assert!(r.joules_per_request() > 0.0);
    }

    #[test]
    fn generous_budget_never_leaves_the_top_rung() {
        let reqs = workload(11, 400.0);
        let r = power_pool(Some(PowerPolicy { budget_w: 1.0 }))
            .run(&reqs)
            .unwrap();
        assert!(r.power_events.is_empty(), "1 W is never exceeded");
        assert_eq!(r.op_residency_ns.len(), 4);
        assert_eq!(r.op_residency_ns[1..], [0, 0, 0]);
        // Service times are untouched, so the off/on reports agree on
        // every scheduling figure.
        let off = power_pool(None).run(&reqs).unwrap();
        assert_eq!(r.completed, off.completed);
        assert_eq!(r.makespan_ns, off.makespan_ns);
        assert_eq!(r.batch_hist, off.batch_hist);
        assert!((r.energy_joules - off.energy_joules).abs() < 1e-12);
    }

    #[test]
    fn tight_budget_trades_throughput_for_joules_per_request() {
        // Saturating load so the pool dispatches back-to-back; the tight
        // budget must walk down the ladder and hold the low rungs.
        let reqs = workload(13, 2_000.0);
        let off = power_pool(None).run(&reqs).unwrap();
        let on = power_pool(Some(PowerPolicy { budget_w: 2.0e-4 }))
            .run(&reqs)
            .unwrap();
        assert!(!on.power_events.is_empty(), "budget must force rung moves");
        let low: u64 = on.op_residency_ns[1..].iter().sum();
        assert!(
            low > on.op_residency_ns[0],
            "most residency must sit below the top rung: {:?}",
            on.op_residency_ns
        );
        assert!(
            on.joules_per_request() < off.joules_per_request(),
            "governor must cut joules/request: {} vs {}",
            on.joules_per_request(),
            off.joules_per_request()
        );
        assert!(
            on.makespan_ns > off.makespan_ns,
            "slower rungs must stretch the run: {} vs {}",
            on.makespan_ns,
            off.makespan_ns
        );
        // Degrade before shed: the governor run still finishes everything
        // it admitted.
        assert_eq!(on.stranded, 0);
    }

    #[test]
    fn governor_runs_are_repeatable() {
        let reqs = workload(17, 1_500.0);
        let mut p = power_pool(Some(PowerPolicy { budget_w: 3.0e-4 }));
        let a = p.run(&reqs).unwrap();
        let b = p.run(&reqs).unwrap();
        assert_eq!(a.power_events, b.power_events);
        assert_eq!(a.op_residency_ns, b.op_residency_ns);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert!((a.energy_joules - b.energy_joules).abs() == 0.0);
    }
}
