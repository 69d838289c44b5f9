//! `offload`: the paper's own path, timed per request.
//!
//! One closed-loop caller issues a seeded stream of requests over the ten
//! Table I kernels. Kernel popularity is skewed and the caller sends
//! requests in runs of one to three identical ones, so both
//! resident-binary and cold-upload offloads occur. The multiset of
//! requests is fixed and the seed orders it, so every seed offers the
//! same work. Each request targets one of three committed platforms
//! (`m4-pulp3`, weighted highest, `m4-pulp3-single` and
//! `f407-pulp4-octa`) through `HetSystem::offload`, or the MCU alone
//! through `HetSystem::run_on_host`. About one offload in eight is the
//! `het-sim --trace` path: a fresh system with `Tracer::enabled()`, one
//! offload, and a `chrome_json()` export.
//!
//! Nearly all host time is cluster and ISA simulation. The 1-, 4- and
//! 8-core targets and the traced offloads use the cluster engine in
//! different ways (speculative epochs vs the exact micro-op fallback).
//!
//! In traced passes an offload is issued as its public parts:
//! `measure_cost` (the cluster simulation with its golden-output check),
//! then `predict` with the binary shipped exactly when `offload` would
//! ship it.

use ulp_kernels::{Benchmark, KernelBuild};
use ulp_offload::{
    cluster_env, host_env, HetSystem, HetSystemConfig, OffloadOptions, OffloadReport,
    PipelineConfig,
};
use ulp_rng::XorShiftRng;
use ulp_trace::Tracer;

use crate::spans::Recorder;
use crate::{Digest, Metrics, OpOutcome, Size, Workload};

/// Committed platform files the offloads target, with the span name of
/// their cluster simulation and their selection weight.
pub const PLATFORMS: [(&str, &str, f64); 3] = [
    ("m4-pulp3.toml", "cluster.quad", 0.50),
    ("m4-pulp3-single.toml", "cluster.single", 0.15),
    ("f407-pulp4-octa.toml", "cluster.octa", 0.20),
];

/// Share of requests that run on the MCU alone.
const HOST_WEIGHT: f64 = 0.15;
/// Every this-many-th accelerator request group is issued on the traced
/// `het-sim` path.
const TRACED_EVERY: usize = 8;
/// Zipf exponent of kernel popularity (Table I order).
const ZIPF_S: f64 = 1.1;
/// Seed of the request groups' attributes. It is fixed, so every
/// workload seed offers the same multiset of requests and only their
/// order (and with it binary residency) depends on `--seed`.
const DECK_SEED: u64 = 0x00FF_10AD;

/// Request groups per pass; a group is one to three identical requests
/// in a row, as a caller repeating itself makes.
fn groups(size: Size) -> usize {
    match size {
        Size::Full => 52,
        Size::Tiny => 0,
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Target {
    Accel(usize),
    Host,
}

#[derive(Clone, Copy, Debug)]
struct Request {
    target: Target,
    kernel: usize,
    opts: OffloadOptions,
    traced: bool,
}

struct Platform {
    config: HetSystemConfig,
    builds: Vec<KernelBuild>,
}

/// The set-up `offload` workload.
pub struct Offload {
    platforms: Vec<Platform>,
    host_builds: Vec<KernelBuild>,
    requests: Vec<Request>,
    /// One long-lived system per platform, built by `begin_pass`.
    systems: Vec<HetSystem>,
    /// Kernel whose binary is resident on each platform's accelerator.
    resident: Vec<Option<usize>>,
    pass: usize,
    /// First-pass counts. `retired` covers only the untraced offloads,
    /// whose cluster simulation the `cluster.*` spans time.
    retired: u64,
    offloads: u64,
    ships: u64,
    events: u64,
    /// Events exported in traced passes.
    traced_events: u64,
}

impl Offload {
    /// Loads the platforms, builds every kernel for each of them and for
    /// the host, and generates the request stream.
    ///
    /// # Errors
    ///
    /// A message when a platform file cannot be loaded.
    pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Result<Self, String> {
        let mut platforms = Vec::with_capacity(PLATFORMS.len());
        for (file, _, _) in PLATFORMS {
            let config = crate::load_platform(file, rec)?;
            let env = cluster_env(&config);
            let builds = Benchmark::ALL
                .iter()
                .map(|b| rec.span("kernels.build", crate::SETUP_OP, || b.build(&env)))
                .collect();
            platforms.push(Platform { config, builds });
        }
        let henv = host_env(&platforms[0].config);
        let host_builds = Benchmark::ALL
            .iter()
            .map(|b| rec.span("kernels.build", crate::SETUP_OP, || b.build(&henv)))
            .collect();
        Ok(Offload {
            resident: vec![None; platforms.len()],
            platforms,
            host_builds,
            requests: generate(seed, size),
            systems: Vec::new(),
            pass: 0,
            retired: 0,
            offloads: 0,
            ships: 0,
            events: 0,
            traced_events: 0,
        })
    }
}

#[derive(Clone, Copy, Debug)]
struct Group {
    request: Request,
    len: usize,
}

/// The seed-independent request groups: each (target, kernel) pair gets
/// a share of [`groups`] proportional to target weight times kernel
/// popularity. The tiny deck visits every target and the traced path
/// once.
fn deck(size: Size) -> Vec<Group> {
    let mut attrs = XorShiftRng::seed_from_u64(DECK_SEED);
    let mut group = |target: Target, kernel: usize, traced: bool| {
        let len = attrs.gen_range(1..=3usize);
        let opts = OffloadOptions {
            iterations: attrs.gen_range(1..=4usize),
            pipeline: if attrs.gen_bool(0.5) {
                PipelineConfig::enabled()
            } else {
                PipelineConfig::default()
            },
            ..OffloadOptions::default()
        };
        Group {
            request: Request {
                target,
                kernel,
                opts,
                traced,
            },
            len,
        }
    };
    if size == Size::Tiny {
        return vec![
            group(Target::Accel(0), 0, false),
            group(Target::Accel(1), 1, false),
            group(Target::Accel(2), 4, false),
            group(Target::Host, 3, false),
            group(Target::Accel(0), 4, true),
        ];
    }
    let zipf: Vec<f64> = (0..Benchmark::ALL.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let ztotal: f64 = zipf.iter().sum();
    let mut targets: Vec<(Target, f64)> = PLATFORMS
        .iter()
        .enumerate()
        .map(|(i, p)| (Target::Accel(i), p.2))
        .collect();
    targets.push((Target::Host, HOST_WEIGHT));
    let mut out = Vec::new();
    let mut accel = 0usize;
    for (target, weight) in targets {
        for (kernel, z) in zipf.iter().enumerate() {
            let count = (groups(size) as f64 * weight * z / ztotal).round() as usize;
            for _ in 0..count {
                let traced = matches!(target, Target::Accel(_)) && {
                    accel += 1;
                    accel.is_multiple_of(TRACED_EVERY)
                };
                out.push(group(target, kernel, traced));
            }
        }
    }
    out
}

/// The request stream of one pass: the deck's groups in seeded order.
fn generate(seed: u64, size: Size) -> Vec<Request> {
    let mut deck = deck(size);
    let mut rng = XorShiftRng::seed_from_u64(seed);
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.gen_range(0..=i));
    }
    deck.iter()
        .flat_map(|g| std::iter::repeat_n(g.request, g.len))
        .collect()
}

fn report_digest(r: &OffloadReport) -> Digest {
    let mut d = Digest::default();
    d.push(r.iterations as u64)
        .push(r.cycles_cold)
        .push(r.cycles_warm)
        .push_f64(r.total_seconds())
        .push_f64(r.overlapped_seconds)
        .push_f64(r.total_energy_joules());
    d
}

impl Workload for Offload {
    fn ops(&self) -> usize {
        self.requests.len()
    }

    fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
        self.systems = self
            .platforms
            .iter()
            .map(|p| HetSystem::new(p.config.clone()))
            .collect();
        self.resident.fill(None);
    }

    fn run_op(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<OpOutcome, String> {
        let req = self.requests[i];
        let mut digest = match req.target {
            Target::Host => {
                let build = &self.host_builds[req.kernel];
                let sys = &self.systems[0];
                let r = rec
                    .span("isa.host", op, || sys.run_on_host(build))
                    .map_err(|e| format!("run_on_host {}: {e}", build.name))?;
                let mut d = Digest::default();
                d.push(r.cycles)
                    .push_f64(r.seconds)
                    .push_f64(r.energy_joules);
                d
            }
            Target::Accel(p) if req.traced => {
                let build = &self.platforms[p].builds[req.kernel];
                let open = rec.open("trace.traced_offload", op);
                let mut sys = HetSystem::new(self.platforms[p].config.clone());
                let tracer = Tracer::enabled();
                sys.set_tracer(tracer.clone());
                let report = sys.offload(build, &req.opts);
                rec.close(open);
                let report = report.map_err(|e| format!("traced offload {}: {e}", build.name))?;
                let json = rec.span("trace.export", op, || tracer.chrome_json());
                let events = tracer.events().len() as u64;
                if self.pass == 0 {
                    self.events += events;
                }
                if rec.is_active() {
                    self.traced_events += events;
                }
                let mut d = report_digest(&report);
                d.push(events).push(json.len() as u64);
                d
            }
            Target::Accel(p) => {
                let build = &self.platforms[p].builds[req.kernel];
                let sys = &mut self.systems[p];
                let ship = self.resident[p] != Some(req.kernel);
                let retired_before = ulp_isa::perf::retired_total();
                let report = if rec.is_active() {
                    let cost = rec
                        .span(PLATFORMS[p].1, op, || sys.measure_cost(build))
                        .map_err(|e| format!("measure_cost {}: {e}", build.name))?;
                    rec.span("offload.predict", op, || {
                        sys.predict(&cost, &req.opts, ship)
                    })
                } else {
                    sys.offload(build, &req.opts)
                        .map_err(|e| format!("offload {}: {e}", build.name))?
                };
                self.resident[p] = Some(req.kernel);
                if self.pass == 0 {
                    self.offloads += 1;
                    self.ships += u64::from(ship);
                    self.retired += ulp_isa::perf::retired_total() - retired_before;
                }
                let mut d = report_digest(&report);
                d.push(u64::from(ship));
                d
            }
        };
        digest.push(i as u64);
        Ok(OpOutcome {
            requests: 1,
            digest: digest.finish(),
        })
    }

    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics) {
        let get = |name: &str| rec.layer(name);
        m.insert("platform.load_ms", get("platform.load").mean_ms());
        m.insert("kernels.build_ms", get("kernels.build").mean_ms());
        m.insert("cluster.quad_ms", get("cluster.quad").mean_ms());
        m.insert("cluster.single_ms", get("cluster.single").mean_ms());
        m.insert("cluster.octa_ms", get("cluster.octa").mean_ms());
        let (retired, secs) = PLATFORMS.iter().fold((0u64, 0.0f64), |(r, s), p| {
            let l = get(p.1);
            (r + l.retired, s + l.seconds())
        });
        m.insert("cluster.mips", crate::ratio(retired as f64, secs) / 1e6);
        let host = get("isa.host");
        m.insert("isa.host_ms", host.mean_ms());
        m.insert(
            "isa.host_mips",
            crate::ratio(host.retired as f64, host.seconds()) / 1e6,
        );
        m.insert("offload.predict_us", get("offload.predict").mean_us());
        m.insert(
            "trace.traced_offload_ms",
            get("trace.traced_offload").mean_ms(),
        );
        let export = get("trace.export");
        m.insert("trace.export_ms", export.mean_ms());
        m.insert(
            "trace.events_per_s",
            crate::ratio(self.traced_events as f64, export.seconds()),
        );
        m.insert("cluster.retired", self.retired as f64);
        m.insert(
            "offload.binary_ship_ratio",
            crate::ratio(self.ships as f64, self.offloads as f64),
        );
        m.insert("trace.events", self.events as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_orders_the_same_requests() {
        let key = |v: &[Request]| -> Vec<(Target, usize, bool, usize)> {
            v.iter()
                .map(|r| (r.target, r.kernel, r.traced, r.opts.iterations))
                .collect()
        };
        let a = key(&generate(5, Size::Full));
        assert_eq!(a, key(&generate(5, Size::Full)));
        let b = key(&generate(6, Size::Full));
        assert_ne!(a, b, "the seed must change the order");
        let sorted = |mut v: Vec<(Target, usize, bool, usize)>| {
            v.sort_by_key(|&(t, k, tr, it)| (format!("{t:?}"), k, tr, it));
            v
        };
        assert_eq!(
            sorted(a.clone()),
            sorted(b),
            "every seed offers the same requests"
        );
        for size in [Size::Full, Size::Tiny] {
            let reqs = generate(5, size);
            for t in [
                Target::Accel(0),
                Target::Accel(1),
                Target::Accel(2),
                Target::Host,
            ] {
                assert!(
                    reqs.iter().any(|r| r.target == t),
                    "{size:?}: {t:?} never drawn"
                );
            }
            let accel = reqs.iter().filter(|r| r.target != Target::Host).count();
            let traced = reqs.iter().filter(|r| r.traced).count();
            assert!(traced > 0, "{size:?}: no traced offload");
            if size == Size::Full {
                let share = traced as f64 / accel as f64;
                assert!((0.08..0.2).contains(&share), "traced share {share}");
            }
            assert!(reqs.iter().all(|r| !(r.traced && r.target == Target::Host)));
        }
    }
}
