//! Fleet-scale serving study: sharded node groups with per-group
//! autoscaling at 64, 256, and 1024 max workers, rendered as a table,
//! as `BENCH_fleet.json`, and as the pinned autoscaler decision log.
//!
//! Every cell runs the same three-phase workload shape, scaled to its
//! fleet: a light baseline (half the fleet's *minimum* capacity), an
//! 8× plateau covering the middle 40% of the run that pushes offered
//! load to the fleet's *maximum* capacity, and the light tail again.
//! The plateau forces every group to climb from its floor to its
//! ceiling; the tail makes it hand the workers back — so the study
//! exercises both autoscaler directions, admission pricing under real
//! pressure, and fleet-wide conservation, at ≥ 1 M offered requests
//! across the three cells.
//!
//! Everything runs on the virtual clock, so the study (and its JSON,
//! and the decision log) is a pure function of [`SEED`]: byte-identical
//! on every machine and under every `--jobs` setting. Group simulations
//! fan out with `ulp_par::par_map` inside [`Fleet::run`]; the cells
//! themselves run sequentially so the study never nests parallel maps.

use ulp_kernels::{Benchmark, TargetEnv};
use ulp_offload::HetSystemConfig;
use ulp_serve::{
    fmt_ms, invariants, render_scale_log, AutoscalePolicy, BatchPolicy, Burst, CostBook, Fleet,
    FleetConfig, FleetReport, ServeConfig, TenantLoad, TenantSpec, WorkloadSpec,
};

/// Workload seed (the study's identity).
pub const SEED: u64 = 20_260_810;
/// Largest batch a kernel-aware dispatch may carry.
pub const MAX_BATCH: usize = 16;
/// Offered-rate multiplier of the plateau phase.
const PLATEAU_FACTOR: f64 = 8.0;
/// The plateau covers `[0.3, 0.7)` of the run.
const PLATEAU_START: f64 = 0.3;
const PLATEAU_END: f64 = 0.7;
/// Every cell simulates the same 20 s of virtual time, so one
/// autoscaler timescale (decision interval, cooldown) fits all three
/// fleet sizes; offered load then scales with the fleet.
const DURATION_NS: u64 = 20_000_000_000;
/// Autoscaler cooldown: long relative to the 25 ms decision interval,
/// so a group commits to a scale action for 2 s of virtual time instead
/// of chasing every queue-depth sample. This is what keeps the pinned
/// decision log phased (climb, hold, release) rather than oscillating —
/// a big batch dispatch momentarily drains any queue, and without the
/// cooldown each drained sample reads as "idle".
const COOLDOWN_NS: u64 = 2_000_000_000;

/// Shape of one study cell: a fleet size and its offered-request
/// target.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// Node groups in the fleet.
    pub groups: usize,
    /// Workers per group at the autoscaler ceiling.
    pub max_per_group: usize,
}

impl CellSpec {
    /// Worker floor per group (the autoscaler's starting count).
    #[must_use]
    pub fn min_per_group(&self) -> usize {
        (self.max_per_group / 4).max(1)
    }

    /// Fleet-wide worker ceiling — the cell's label.
    #[must_use]
    pub fn max_workers(&self) -> usize {
        self.groups * self.max_per_group
    }

    /// Tenants sharded across the fleet (8 per group on average, so a
    /// rendezvous-hash shard is essentially never empty).
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.groups * 8
    }
}

/// The three fleet sizes the study sweeps: 64, 256, and 1024 max
/// workers. Offered load scales with each fleet's worker floor over the
/// shared 20 s window, so the sweep totals well past one million
/// requests (the largest cell alone offers more than a million).
#[must_use]
pub fn cells() -> Vec<CellSpec> {
    vec![
        CellSpec {
            groups: 8,
            max_per_group: 8,
        },
        CellSpec {
            groups: 16,
            max_per_group: 16,
        },
        CellSpec {
            groups: 32,
            max_per_group: 32,
        },
    ]
}

/// One finished cell of the study.
#[derive(Clone, Debug)]
pub struct FleetCell {
    /// The cell's shape.
    pub spec: CellSpec,
    /// The fleet's report.
    pub report: FleetReport,
    /// Fleet-wide invariant verdict (empty = clean).
    pub violations: Vec<String>,
}

/// Per-group serve configuration of one cell: kernel-aware batching,
/// the queue-depth/p99 autoscaler between the cell's floor and ceiling
/// (step = the floor, so three actions span the band), and
/// pressure-scaled admission pricing.
#[must_use]
pub fn serve_config(spec: &CellSpec) -> ServeConfig {
    ServeConfig {
        pool: spec.min_per_group(),
        policy: BatchPolicy::KernelAware {
            max_batch: MAX_BATCH,
        },
        autoscale: Some(AutoscalePolicy {
            step: spec.min_per_group(),
            cooldown_ns: COOLDOWN_NS,
            ..AutoscalePolicy::new(spec.min_per_group(), spec.max_per_group)
        }),
        admission_pricing: true,
        ..ServeConfig::default()
    }
}

/// The cell's workload: `tenants()` equal tenants mixing all paper
/// benchmarks, baseline rate at half the fleet's worker floor, and the
/// 8× plateau burst on every tenant across the middle of the run.
#[must_use]
pub fn workload(book: &CostBook, spec: &CellSpec) -> (WorkloadSpec, Vec<Burst>) {
    let mix: Vec<(Benchmark, f64)> = Benchmark::ALL.iter().map(|&b| (b, 1.0)).collect();
    let mean_ns: f64 = mix
        .iter()
        .map(|&(b, _)| book.est_ns(b, 1) as f64)
        .sum::<f64>()
        / mix.len() as f64;
    let floor_workers = (spec.groups * spec.min_per_group()) as f64;
    let base_rate = 0.5 * floor_workers * 1e9 / mean_ns;
    let duration_ns = DURATION_NS;

    let n = spec.tenants();
    let tenants: Vec<TenantLoad> = (0..n)
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
        .map(|i| Burst {
            tenant: i,
            start_ns: (duration_ns as f64 * PLATEAU_START) as u64,
            end_ns: (duration_ns as f64 * PLATEAU_END) as u64,
            factor: PLATEAU_FACTOR,
        })
        .collect();
    (
        WorkloadSpec {
            seed: SEED,
            duration_ns,
            tenants,
        },
        bursts,
    )
}

/// Runs one cell: generates its workload, shards it through the fleet,
/// and checks every invariant per group and fleet-wide.
///
/// # Panics
///
/// Panics if the fleet rejects its own request stream — a study
/// configuration bug, not a runtime condition.
#[must_use]
pub fn run_cell(config: &HetSystemConfig, book: &CostBook, spec: CellSpec) -> FleetCell {
    let (workload, bursts) = workload(book, &spec);
    let tenants: Vec<TenantSpec> = workload.tenants.iter().map(|t| t.spec.clone()).collect();
    let requests = workload.generate_with_bursts(&bursts);
    let fleet = Fleet::new(
        config,
        tenants,
        book.clone(),
        FleetConfig {
            groups: spec.groups,
            serve: serve_config(&spec),
        },
    );
    let report = fleet.run(&requests).expect("study workload fits the fleet");
    let violations = invariants::check_fleet(&report);
    FleetCell {
        spec,
        report,
        violations,
    }
}

/// Runs all three cells (sequentially — the parallelism lives inside
/// each [`Fleet::run`]'s per-group fan-out).
///
/// # Panics
///
/// Panics if kernel measurement fails.
#[must_use]
pub fn study() -> Vec<FleetCell> {
    let config = HetSystemConfig::default();
    let book = CostBook::measure(&TargetEnv::pulp_parallel(), &config, &Benchmark::ALL)
        .expect("cost measurement");
    cells()
        .into_iter()
        .map(|spec| run_cell(&config, &book, spec))
        .collect()
}

/// Plain-text study table (the golden `fleet_table.txt` snapshot).
#[must_use]
pub fn render_table(cells: &[FleetCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let r = &c.report;
            vec![
                format!("{}w", c.spec.max_workers()),
                c.spec.groups.to_string(),
                format!("{}-{}", c.spec.min_per_group(), c.spec.max_per_group),
                r.offered.to_string(),
                r.completed().to_string(),
                r.rejected().to_string(),
                r.priced_out().to_string(),
                format!("{:.1}", r.throughput_rps()),
                fmt_ms(r.latency.p99_ns),
                format!("{:.3}", r.utilization()),
                r.scale_ups().to_string(),
                r.scale_downs().to_string(),
                if c.violations.is_empty() {
                    "OK".to_owned()
                } else {
                    c.violations.len().to_string()
                },
            ]
        })
        .collect();
    let mut out = String::from("Fleet study: autoscaled node groups vs fleet size\n");
    out.push_str(&format!(
        "(seed {SEED}, max batch {MAX_BATCH}; per group: floor = ceiling/4, 8x plateau over \
         the middle 40% of the run, pressure-priced admission)\n\n"
    ));
    out.push_str(&crate::render_table(
        &[
            "cell",
            "groups",
            "workers/group",
            "offered",
            "completed",
            "rejected",
            "priced out",
            "rps",
            "p99",
            "util",
            "ups",
            "downs",
            "invariants",
        ],
        &rows,
    ));
    let offered: u64 = cells.iter().map(|c| c.report.offered).sum();
    let violations: usize = cells.iter().map(|c| c.violations.len()).sum();
    out.push_str(&format!(
        "\n{offered} requests conserved across {} fleets, {violations} invariant violations\n",
        cells.len(),
    ));
    out
}

/// The smallest cell's autoscaler decision log (the golden
/// `fleet_autoscale.txt` snapshot) — small enough to pin, and every
/// scaling mechanism appears in it.
#[must_use]
pub fn render_decision_log(cells: &[FleetCell]) -> String {
    let c = &cells[0];
    let mut out = format!(
        "autoscaler decisions, {}-worker cell (seed {SEED}, {} groups, {}-{} workers/group)\n",
        c.spec.max_workers(),
        c.spec.groups,
        c.spec.min_per_group(),
        c.spec.max_per_group
    );
    out.push_str(&render_scale_log(&c.report.scale_events));
    out
}

/// Renders the committed `BENCH_fleet.json`: per-cell conservation,
/// service, and autoscaler numbers. Deliberately excludes the `--jobs`
/// setting and every other machine fact — the file is a claim about the
/// *model*, and must be byte-identical however it was produced.
#[must_use]
pub fn render_json(cells: &[FleetCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"het-accel-fleet-v1\",\n");
    out.push_str("  \"time_basis\": \"virtual nanoseconds (seeded, machine-independent)\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"max_batch\": {MAX_BATCH},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.report;
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"cell\": \"{}w\",\n      \"groups\": {},\n      \
             \"workers_per_group\": {{\"min\": {}, \"max\": {}}},\n",
            c.spec.max_workers(),
            c.spec.groups,
            c.spec.min_per_group(),
            c.spec.max_per_group
        ));
        out.push_str(&format!(
            "      \"conservation\": {{\"offered\": {}, \"admitted\": {}, \"completed\": {}, \
             \"rejected\": {}, \"priced_out\": {}, \"failed_over\": {}, \"failed\": {}, \
             \"stranded\": {}}},\n",
            r.offered,
            r.admitted(),
            r.completed(),
            r.rejected(),
            r.priced_out(),
            r.failed_over(),
            r.failed(),
            r.stranded()
        ));
        out.push_str(&format!(
            "      \"service\": {{\"throughput_rps\": {:.3}, \"p50_ms\": \"{}\", \
             \"p99_ms\": \"{}\", \"utilization\": {:.3}, \"deadline_misses\": {}, \
             \"makespan_ns\": {}}},\n",
            r.throughput_rps(),
            fmt_ms(r.latency.p50_ns),
            fmt_ms(r.latency.p99_ns),
            r.utilization(),
            r.deadline_misses(),
            r.makespan_ns
        ));
        out.push_str(&format!(
            "      \"autoscaler\": {{\"scale_ups\": {}, \"scale_downs\": {}, \
             \"events\": {}}},\n",
            r.scale_ups(),
            r.scale_downs(),
            r.scale_events.len()
        ));
        out.push_str(&format!(
            "      \"invariant_violations\": {}\n",
            c.violations.len()
        ));
        out.push_str(if i + 1 == cells.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    let offered: u64 = cells.iter().map(|c| c.report.offered).sum();
    out.push_str(&format!("  \"total_offered\": {offered}\n"));
    out.push_str("}\n");
    out
}

/// Runs the full study and returns the table (the `fleet` binary's
/// stdout).
#[must_use]
pub fn run() -> String {
    render_table(&study())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_specs_cover_the_mandated_sweep() {
        let cs = cells();
        assert_eq!(
            cs.iter().map(CellSpec::max_workers).collect::<Vec<_>>(),
            vec![64, 256, 1024]
        );
        for c in &cs {
            assert!(c.min_per_group() * 4 == c.max_per_group);
            assert!(c.tenants() >= 8 * c.groups);
        }
    }

    #[test]
    fn workload_shape_scales_with_the_cell() {
        let config = HetSystemConfig::default();
        // workload() averages est_ns over every benchmark, so the book
        // must cover Benchmark::ALL, as the study's own book does.
        let book = CostBook::measure(&TargetEnv::pulp_parallel(), &config, &Benchmark::ALL)
            .expect("cost measurement");
        let spec = cells()[0];
        let (w, bursts) = workload(&book, &spec);
        assert_eq!(w.tenants.len(), spec.tenants());
        assert_eq!(bursts.len(), spec.tenants());
        for b in &bursts {
            assert!(b.start_ns < b.end_ns && b.end_ns <= w.duration_ns);
            assert!((b.factor - PLATEAU_FACTOR).abs() < f64::EPSILON);
        }
        let cfg = serve_config(&spec);
        assert_eq!(cfg.pool, spec.min_per_group());
        let policy = cfg.autoscale.expect("study cells autoscale");
        assert_eq!(policy.max_workers, spec.max_per_group);
        assert!(cfg.admission_pricing);
    }
}
