//! `fleet`: an autoscaled, admission-priced fleet, timed per `Fleet::run`.
//!
//! Sixteen node groups of two to eight workers serve 128 tenants sharded
//! by rendezvous hashing. Each seeded stream runs a light baseline, a
//! plateau that pushes offered load to the fleet's worker ceiling, and
//! the light tail again, so every group's autoscaler climbs and releases
//! and admission pricing sheds load while queues stay shallower than
//! `serve`'s: a group's deepest queue over a pass is about 200 requests,
//! against `serve`'s 1024. One operation is `Fleet::new`, one
//! `Fleet::run` of a stream fanned out over [`crate::jobs`] threads, and
//! `invariants::check_fleet`.
//!
//! This is the contrast to `serve`: host time goes to per-event work,
//! the per-worker scans (idle worker, next event), the autoscaler and
//! the `ulp_par` fan-out, and batch formation scans shorter queues. A
//! queue-structure change that helps deep queues but slows shallow ones
//! shows up here.
//!
//! Traced passes also re-run every group's slice serially through
//! `ServePool::run`, after the timed operation, to time the groups one
//! by one and measure how well the fan-out uses its threads.

use ulp_bench::fleet::{serve_config, CellSpec};
use ulp_kernels::Benchmark;
use ulp_offload::{cluster_env, HetSystemConfig};
use ulp_serve::{
    invariants, Burst, CostBook, FleetConfig, FleetReport, ServeConfig, ServePool, ServeRequest,
    TenantLoad, TenantSpec, WorkloadSpec,
};

use crate::spans::Recorder;
use crate::{Digest, Metrics, OpOutcome, Size, Workload};

/// Offered-rate multiplier of the plateau: baseline is half the worker
/// floor, so 8x reaches the ceiling of four times the floor.
const PLATEAU_FACTOR: f64 = 8.0;
/// The plateau covers `[0.3, 0.7)` of each stream.
const PLATEAU: (f64, f64) = (0.3, 0.7);
/// Virtual length of one stream.
const DURATION_NS: u64 = 1_000_000_000;
/// Autoscaler cooldown: a tenth of the stream, so groups commit to a
/// scale action instead of chasing every drained queue sample.
const COOLDOWN_NS: u64 = DURATION_NS / 10;

/// (fleet shape, streams per pass, stream length).
fn shape(size: Size) -> (CellSpec, usize, u64) {
    match size {
        Size::Full => (
            CellSpec {
                groups: 16,
                max_per_group: 8,
            },
            120,
            DURATION_NS,
        ),
        Size::Tiny => (
            CellSpec {
                groups: 4,
                max_per_group: 4,
            },
            2,
            DURATION_NS / 10,
        ),
    }
}

/// The set-up `fleet` workload.
pub struct Fleet {
    config: HetSystemConfig,
    tenants: Vec<TenantSpec>,
    book: CostBook,
    spec: CellSpec,
    serve: ServeConfig,
    streams: Vec<Vec<ServeRequest>>,
    /// Report of the last operation, for the serial group re-run.
    last: Option<FleetReport>,
    pass: usize,
    first: Counts,
    traced_dispatches: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    offered: u64,
    priced_out: u64,
    scale_events: u64,
    max_queue_depth: usize,
}

impl Fleet {
    /// Loads the baseline platform, measures the cost book and
    /// generates every stream.
    ///
    /// # Errors
    ///
    /// A message when the platform file cannot be loaded or a kernel
    /// fails to measure.
    pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Result<Self, String> {
        let config = crate::load_platform(crate::serve::BASELINE, rec)?;
        let book = rec
            .span("costbook.measure", crate::SETUP_OP, || {
                CostBook::measure(&cluster_env(&config), &config, &Benchmark::ALL)
            })
            .map_err(|e| format!("cost book: {e}"))?;
        let (spec, n_streams, duration_ns) = shape(size);

        let mix: Vec<(Benchmark, f64)> = Benchmark::ALL.iter().map(|&b| (b, 1.0)).collect();
        let mean_ns: f64 = Benchmark::ALL
            .iter()
            .map(|&b| book.est_ns(b, 1) as f64)
            .sum::<f64>()
            / Benchmark::ALL.len() as f64;
        let floor_workers = (spec.groups * spec.min_per_group()) as f64;
        let base_rate = 0.5 * floor_workers * 1e9 / mean_ns;
        let n = spec.tenants();
        let loads: Vec<TenantLoad> = (0..n)
            .map(|i| {
                let mut t = TenantSpec::new(&format!("tenant-{i}"));
                t.queue_cap = 512;
                TenantLoad {
                    spec: t,
                    rate_rps: base_rate / n as f64,
                    kernel_mix: mix.clone(),
                    class_mix: [0.3, 0.5, 0.2],
                    iterations: 1,
                }
            })
            .collect();
        let bursts: Vec<Burst> = (0..n)
            .map(|tenant| Burst {
                tenant,
                start_ns: (duration_ns as f64 * PLATEAU.0) as u64,
                end_ns: (duration_ns as f64 * PLATEAU.1) as u64,
                factor: PLATEAU_FACTOR,
            })
            .collect();
        let streams = (0..n_streams)
            .map(|s| {
                let w = WorkloadSpec {
                    seed: crate::sub_seed(seed, s as u64),
                    duration_ns,
                    tenants: loads.clone(),
                };
                rec.span("loadgen.generate", crate::SETUP_OP, || {
                    w.generate_with_bursts(&bursts)
                })
            })
            .collect();

        let mut serve = serve_config(&spec);
        if let Some(a) = serve.autoscale.as_mut() {
            a.cooldown_ns = COOLDOWN_NS * duration_ns / DURATION_NS;
        }
        Ok(Fleet {
            config,
            tenants: loads.into_iter().map(|l| l.spec).collect(),
            book,
            spec,
            serve,
            streams,
            last: None,
            pass: 0,
            first: Counts::default(),
            traced_dispatches: 0,
        })
    }

    fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            groups: self.spec.groups,
            serve: self.serve,
        }
    }
}

impl Workload for Fleet {
    fn ops(&self) -> usize {
        self.streams.len()
    }

    fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    fn run_op(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<OpOutcome, String> {
        let fleet = rec.span("fleet.new", op, || {
            ulp_serve::Fleet::new(
                &self.config,
                self.tenants.clone(),
                self.book.clone(),
                self.fleet_config(),
            )
        });
        let stream = &self.streams[i];
        let report = rec
            .span("fleet.run", op, || fleet.run(stream))
            .map_err(|e| format!("fleet: {e}"))?;
        let violations = rec.span("invariants.check_fleet", op, || {
            invariants::check_fleet(&report)
        });
        if let Some(v) = violations.first() {
            return Err(format!("invariant: {v}"));
        }

        let mut d = Digest::default();
        d.push(report.offered)
            .push(report.makespan_ns)
            .push(report.latency.p50_ns)
            .push(report.latency.p99_ns)
            .push(report.scale_ups())
            .push(report.scale_downs());
        let mut depth = 0usize;
        let mut n_dispatch = 0u64;
        for g in &report.groups {
            crate::serve::report_digest(&mut d, &g.report);
            depth = depth.max(g.report.max_queue_depth);
            n_dispatch += crate::serve::dispatches(&g.report).0;
        }
        if self.pass == 0 {
            let c = &mut self.first;
            c.offered += report.offered;
            c.priced_out += report.priced_out();
            c.scale_events += report.scale_events.len() as u64;
            c.max_queue_depth = c.max_queue_depth.max(depth);
        }
        if rec.is_active() {
            self.traced_dispatches += n_dispatch;
        }
        let requests = report.offered;
        self.last = Some(report);
        Ok(OpOutcome {
            requests,
            digest: d.finish(),
        })
    }

    /// Serves every group's slice of the last stream serially and checks
    /// it reproduces the fleet's group report.
    fn after_op(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<(), String> {
        let report = self.last.take().ok_or("no fleet report to re-run")?;
        let mut local = vec![0usize; self.tenants.len()];
        for g in &report.groups {
            for (l, &t) in g.tenants.iter().enumerate() {
                local[t] = l;
            }
        }
        let mut slices: Vec<Vec<ServeRequest>> = vec![Vec::new(); report.groups.len()];
        for r in &self.streams[i] {
            let mut l = *r;
            l.tenant = local[r.tenant];
            slices[report.placement[r.tenant]].push(l);
        }
        for (g, slice) in report.groups.iter().zip(&slices) {
            let specs: Vec<TenantSpec> =
                g.tenants.iter().map(|&t| self.tenants[t].clone()).collect();
            let solo = rec
                .span("fleet.group_run", op, || {
                    ServePool::new(&self.config, specs, self.book.clone(), self.serve).run(slice)
                })
                .map_err(|e| format!("group {}: {e}", g.group))?;
            let mut a = Digest::default();
            let mut b = Digest::default();
            crate::serve::report_digest(&mut a, &solo);
            crate::serve::report_digest(&mut b, &g.report);
            if a.finish() != b.finish() {
                return Err(format!(
                    "group {}: serial re-run differs from Fleet::run",
                    g.group
                ));
            }
        }
        Ok(())
    }

    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics) {
        let get = |name: &str| rec.layer(name);
        m.insert("platform.load_ms", get("platform.load").mean_ms());
        m.insert("costbook.measure_ms", get("costbook.measure").mean_ms());
        m.insert("loadgen.generate_ms", get("loadgen.generate").mean_ms());
        m.insert("fleet.new_ms", get("fleet.new").mean_ms());
        let run = get("fleet.run");
        m.insert("fleet.run_ms", run.mean_ms());
        let groups = get("fleet.group_run");
        m.insert("fleet.group_run_ms", groups.mean_ms());
        m.insert(
            "fleet.us_per_dispatch",
            crate::ratio(run.seconds() * 1e6, self.traced_dispatches as f64),
        );
        m.insert(
            "invariants.check_fleet_ms",
            get("invariants.check_fleet").mean_ms(),
        );
        m.insert(
            "fleet.fanout_efficiency",
            crate::ratio(groups.seconds(), crate::jobs() as f64 * run.seconds()),
        );
        let c = &self.first;
        m.insert("fleet.scale_events", c.scale_events as f64);
        m.insert(
            "fleet.priced_out_ratio",
            crate::ratio(c.priced_out as f64, c.offered as f64),
        );
        m.insert("fleet.max_queue_depth", c.max_queue_depth as f64);
    }
}
