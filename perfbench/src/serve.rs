//! `serve`: one overloaded serving pool, timed per window.
//!
//! A four-worker `ServePool` with kernel-aware batching serves two
//! weighted tenants under a mild per-worker fault profile. The offered
//! Poisson load is several times what the pool can serve, so the bounded
//! queues stay near their cap of about a thousand requests. The
//! virtual-clock stream is cut into seeded windows, recorded and encoded
//! with `TraceRecorder` during set-up. One operation takes one window
//! through three steps:
//!
//! 1. `TraceReplayer::decode` (the `het-sim --replay-trace` path);
//! 2. `ServePool::new` + `run`;
//! 3. `invariants::check`.
//!
//! Host time goes almost entirely to the dispatch loop, whose queue
//! scans grow with queue depth. Cluster simulation happens only in
//! set-up, inside `CostBook::measure_with_host`.

use ulp_kernels::Benchmark;
use ulp_offload::{cluster_env, host_env, HetSystem, HetSystemConfig, OffloadOptions, PlannedJob};
use ulp_serve::{
    invariants, BatchPolicy, ChaosConfig, CostBook, FaultProfile, ServeConfig, ServePool,
    ServeReport, ServeRequest, TenantLoad, TenantSpec, TraceRecorder, TraceReplayer, WorkloadSpec,
};

use crate::spans::Recorder;
use crate::{Digest, Metrics, OpOutcome, Size, Workload};

/// The paper's prototype platform, which `serve` and `fleet` run on.
pub const BASELINE: &str = "m4-pulp3.toml";
/// Workers in the pool.
pub const WORKERS: usize = 4;
/// Largest batch one dispatch may carry.
pub const MAX_BATCH: usize = 16;
/// Per-tenant queue cap; two tenants make the ~1k-deep pool backlog.
pub const QUEUE_CAP: usize = 512;
/// Offered load as a multiple of the pool's serial (one request per
/// dispatch) capacity.
const OVERLOAD: f64 = 4.0;

/// (windows per pass, offered requests per window).
fn shape(size: Size) -> (usize, f64) {
    match size {
        Size::Full => (120, 3000.0),
        Size::Tiny => (2, 300.0),
    }
}

/// The set-up `serve` workload.
pub struct Serve {
    config: HetSystemConfig,
    tenants: Vec<TenantSpec>,
    book: CostBook,
    cfg: ServeConfig,
    chaos: ChaosConfig,
    /// Encoded windows.
    windows: Vec<Vec<u8>>,
    /// Every kernel of the last operation crossed with every batch size
    /// it dispatched, as (kernel, batch size).
    last_shapes: Vec<(Benchmark, usize)>,
    planner: HetSystem,
    pass: usize,
    first: Counts,
    /// Requests and dispatches served in traced passes.
    traced_requests: u64,
    traced_dispatches: u64,
}

/// First-pass counts, summed over windows (maxima for depths).
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    offered: u64,
    dispatched_requests: u64,
    dispatches: u64,
    max_queue_depth: usize,
    rejected: u64,
    uploads: u64,
    retransmissions: u64,
    watchdog_fires: u64,
    fallback_batches: u64,
}

/// Kernel popularity: weights proportional to `1/rank` in Table I order.
/// The ranking is fixed so that every seed offers the same mix of work.
fn kernel_mix() -> Vec<(Benchmark, f64)> {
    Benchmark::ALL
        .iter()
        .enumerate()
        .map(|(r, &b)| (b, 1.0 / (r + 1) as f64))
        .collect()
}

impl Serve {
    /// Loads the baseline platform, measures the cost book, and records
    /// and encodes every window.
    ///
    /// # Errors
    ///
    /// A message when the platform file cannot be loaded or a kernel
    /// fails to measure.
    pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Result<Self, String> {
        let config = crate::load_platform(BASELINE, rec)?;
        let book = rec
            .span("costbook.measure", crate::SETUP_OP, || {
                CostBook::measure_with_host(
                    &cluster_env(&config),
                    &host_env(&config),
                    &config,
                    &Benchmark::ALL,
                )
            })
            .map_err(|e| format!("cost book: {e}"))?;
        Ok(Self::with_book(seed, size, config, book, rec))
    }

    /// Set-up after the cost book: windows are generated against `book`,
    /// which need not cover every kernel the windows name.
    #[must_use]
    pub fn with_book(
        seed: u64,
        size: Size,
        config: HetSystemConfig,
        book: CostBook,
        rec: &mut Recorder,
    ) -> Self {
        let (windows, per_window) = shape(size);
        let mix = kernel_mix();
        let priced: Vec<(Benchmark, f64)> = mix
            .iter()
            .copied()
            .filter(|&(b, _)| book.index_of(b).is_some())
            .collect();
        let total: f64 = priced.iter().map(|m| m.1).sum();
        let mean_ns: f64 = priced
            .iter()
            .map(|&(b, w)| w / total * book.est_ns(b, 1) as f64)
            .sum();
        let rate = OVERLOAD * WORKERS as f64 * 1e9 / mean_ns;

        let mut app = TenantSpec::weighted("app", 2);
        app.queue_cap = QUEUE_CAP;
        let mut bg = TenantSpec::new("bg");
        bg.queue_cap = QUEUE_CAP;
        let loads = vec![
            TenantLoad {
                spec: app.clone(),
                rate_rps: rate * 0.6,
                kernel_mix: mix.clone(),
                class_mix: [0.3, 0.6, 0.1],
                iterations: 1,
            },
            TenantLoad {
                spec: bg.clone(),
                rate_rps: rate * 0.4,
                kernel_mix: mix,
                class_mix: [0.0, 0.5, 0.5],
                iterations: 1,
            },
        ];
        let duration_ns = (per_window / rate * 1e9) as u64;
        let windows: Vec<Vec<u8>> = (0..windows)
            .map(|w| {
                let spec = WorkloadSpec {
                    seed: crate::sub_seed(seed, w as u64),
                    duration_ns,
                    tenants: loads.clone(),
                };
                let requests = rec.span("loadgen.generate", crate::SETUP_OP, || spec.generate());
                let mut recorder = TraceRecorder::new();
                recorder.record_all(&requests);
                recorder.encode()
            })
            .collect();
        let mild = FaultProfile {
            bit_error_rate: 1e-6,
            drop_rate: 0.002,
            hang_rate: 0.001,
            ..FaultProfile::default()
        };
        Serve {
            planner: HetSystem::new(config.clone()),
            config,
            tenants: vec![app, bg],
            book,
            cfg: ServeConfig {
                pool: WORKERS,
                policy: BatchPolicy::KernelAware {
                    max_batch: MAX_BATCH,
                },
                ..ServeConfig::default()
            },
            chaos: ChaosConfig::uniform(crate::sub_seed(seed, u64::MAX), mild),
            windows,
            last_shapes: Vec::new(),
            pass: 0,
            first: Counts::default(),
            traced_requests: 0,
            traced_dispatches: 0,
        }
    }
}

/// Hash of a report's simulated statistics.
pub(crate) fn report_digest(d: &mut Digest, r: &ServeReport) {
    d.push(r.admitted)
        .push(r.completed)
        .push(r.rejected)
        .push(r.failed_over)
        .push(r.failed)
        .push(r.priced_out)
        .push(r.deadline_misses)
        .push(r.makespan_ns)
        .push(r.latency.p50_ns)
        .push(r.latency.p99_ns)
        .push(r.latency.mean_ns)
        .push(r.uploads)
        .push(r.max_queue_depth as u64)
        .push(r.chaos.retransmissions)
        .push(r.chaos.watchdog_fires)
        .push(r.chaos.fallback_batches)
        .push(r.scale_events.len() as u64)
        .push_f64(r.energy_joules);
    for &n in &r.batch_hist {
        d.push(n);
    }
}

/// Dispatches and requests dispatched, from the batch-size histogram.
pub(crate) fn dispatches(r: &ServeReport) -> (u64, u64) {
    r.batch_hist
        .iter()
        .enumerate()
        .fold((0, 0), |(d, q), (i, &n)| (d + n, q + (i as u64 + 1) * n))
}

fn decode(bytes: &[u8]) -> Result<Vec<ServeRequest>, String> {
    TraceReplayer::decode(bytes)
        .map(TraceReplayer::into_requests)
        .map_err(|e| format!("decode: {e}"))
}

impl Workload for Serve {
    fn ops(&self) -> usize {
        self.windows.len()
    }

    fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    fn run_op(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<OpOutcome, String> {
        let bytes = &self.windows[i];
        let requests = rec.span("trace_replay.decode", op, || decode(bytes))?;
        let mut pool = rec.span("serve.pool_new", op, || {
            ServePool::new(
                &self.config,
                self.tenants.clone(),
                self.book.clone(),
                self.cfg,
            )
            .with_chaos(self.chaos.clone())
        });
        let report = rec
            .span("serve.run", op, || pool.run(&requests))
            .map_err(|e| format!("serve: {e}"))?;
        let offered = requests.len() as u64;
        let violations = rec.span("invariants.check", op, || {
            invariants::check(offered, &report)
        });
        if let Some(v) = violations.first() {
            return Err(format!("invariant: {v}"));
        }

        let (n_dispatch, n_dispatched) = dispatches(&report);
        if rec.is_active() {
            self.traced_requests += offered;
            self.traced_dispatches += n_dispatch;
            let mut kernels: Vec<Benchmark> = requests.iter().map(|r| r.benchmark).collect();
            kernels.sort_by_key(|b| Benchmark::ALL.iter().position(|x| x == b));
            kernels.dedup();
            self.last_shapes = kernels
                .into_iter()
                .flat_map(|b| {
                    let hist = &report.batch_hist;
                    (0..hist.len())
                        .filter(move |&s| hist[s] > 0)
                        .map(move |s| (b, s + 1))
                })
                .collect();
        }
        if self.pass == 0 {
            let c = &mut self.first;
            c.offered += offered;
            c.dispatches += n_dispatch;
            c.dispatched_requests += n_dispatched;
            c.max_queue_depth = c.max_queue_depth.max(report.max_queue_depth);
            c.rejected += report.rejected;
            c.uploads += report.uploads;
            c.retransmissions += report.chaos.retransmissions;
            c.watchdog_fires += report.chaos.watchdog_fires;
            c.fallback_batches += report.chaos.fallback_batches;
        }
        let mut d = Digest::default();
        report_digest(&mut d, &report);
        Ok(OpOutcome {
            requests: offered,
            digest: d.finish(),
        })
    }

    /// Prices every kernel of the window at every batch size the window
    /// dispatched, shipped and resident, one `plan_queue` call each. The
    /// report gives the batch sizes but not which kernel each batch
    /// carried, so this is the cross product of the two: a superset of
    /// the calls a cold price cache makes for the window.
    fn after_op(&mut self, _i: usize, op: u64, rec: &mut Recorder) -> Result<(), String> {
        for &(b, size) in &self.last_shapes {
            for ship in [true, false] {
                let job = PlannedJob {
                    cost: self.book.cost(b),
                    opts: OffloadOptions {
                        iterations: size,
                        ..OffloadOptions::default()
                    },
                    ship_binary: ship,
                };
                let plan = rec.span("offload.plan_queue", op, || {
                    self.planner.plan_queue(&[job], self.cfg.pipeline)
                });
                if plan.total_seconds <= 0.0 || plan.total_seconds.is_nan() {
                    return Err(format!("plan_queue priced {} x{size} at zero", b.name()));
                }
            }
        }
        Ok(())
    }

    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics) {
        let get = |name: &str| rec.layer(name);
        m.insert("platform.load_ms", get("platform.load").mean_ms());
        m.insert("costbook.measure_ms", get("costbook.measure").mean_ms());
        m.insert("loadgen.generate_ms", get("loadgen.generate").mean_ms());
        let decode = get("trace_replay.decode");
        m.insert("trace_replay.decode_ms", decode.mean_ms());
        m.insert(
            "trace_replay.decode_req_per_s",
            crate::ratio(self.traced_requests as f64, decode.seconds()),
        );
        m.insert("offload.plan_queue_us", get("offload.plan_queue").mean_us());
        m.insert("serve.pool_new_ms", get("serve.pool_new").mean_ms());
        let run = get("serve.run");
        m.insert("serve.run_ms", run.mean_ms());
        m.insert(
            "serve.run_us_per_req",
            crate::ratio(run.seconds() * 1e6, self.traced_requests as f64),
        );
        m.insert(
            "serve.us_per_dispatch",
            crate::ratio(run.seconds() * 1e6, self.traced_dispatches as f64),
        );
        m.insert("invariants.check_ms", get("invariants.check").mean_ms());
        let c = &self.first;
        m.insert("serve.dispatches", c.dispatches as f64);
        m.insert(
            "serve.mean_batch",
            crate::ratio(c.dispatched_requests as f64, c.dispatches as f64),
        );
        m.insert("serve.max_queue_depth", c.max_queue_depth as f64);
        m.insert(
            "serve.rejected_ratio",
            crate::ratio(c.rejected as f64, c.offered as f64),
        );
        m.insert("serve.uploads", c.uploads as f64);
        m.insert("serve.retransmissions", c.retransmissions as f64);
        m.insert("serve.watchdog_fires", c.watchdog_fires as f64);
        m.insert("serve.fallback_batches", c.fallback_batches as f64);
    }
}
