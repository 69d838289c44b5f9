//! Platform-matrix study: the committed platform files, the analytic
//! cost model, and the power-envelope governor, in one table.
//!
//! **Phase A — cost-model validation.** Every kernel model is fitted
//! once on the paper's reference platform (two cluster simulations and
//! one host run, exactly as `ulp_offload::KernelCostModel` documents),
//! then asked to predict warm cycles and whole-offload energy on every
//! committed platform — including cluster shapes (1 and 8 cores) the
//! fit never saw. Each prediction is checked against a full simulation
//! of that platform, and the per-cell relative error is part of the
//! committed artifact, so a model regression shows up as a diff. The
//! backend selector's verdict (offload vs host, per objective) is
//! recorded per cell.
//!
//! **Phase B — power-envelope serving.** The baseline platform serves
//! the same seeded workload twice: once unconstrained, once under a
//! tight platform-power budget. The governor must cut joules per
//! request by walking the DVFS ladder down, paying with makespan — the
//! study quantifies both sides of that trade and pins the operating
//! point residency.
//!
//! Everything runs on the virtual clock from [`SEED`], so the table and
//! `BENCH_platforms.json` are byte-identical on every machine and under
//! every `--jobs` setting (the platform cells fan out over
//! `ulp_par::par_map`, which preserves order).

use ulp_kernels::Benchmark;
use ulp_offload::{
    cluster_env, config_from_platform, host_env, relative_error, Backend, HetSystem,
    HetSystemConfig, KernelCostModel, OffloadOptions,
};
use ulp_platform::PlatformSpec;
use ulp_serve::{
    fmt_ms, BatchPolicy, CostBook, PowerPolicy, ServeConfig, ServePool, ServeReport, TenantLoad,
    TenantSpec, WorkloadSpec,
};

/// Workload seed of the serving phase (the study's identity).
pub const SEED: u64 = 20_260_810;
/// Offload iterations per predicted/simulated invocation in Phase A.
pub const ITERATIONS: usize = 4;
/// Platform-power budget of the constrained serving run, watts.
pub const BUDGET_W: f64 = 2.0e-4;
/// Virtual duration of each serving run, nanoseconds.
const SERVE_DURATION_NS: u64 = 400_000_000;
/// Workers in each serving pool.
const SERVE_POOL: usize = 2;

/// The kernels Phase A validates per platform: every compute field of
/// Table I is represented (linear algebra, SVM, CNN, HOG).
pub const KERNELS: [Benchmark; 5] = [
    Benchmark::MatMul,
    Benchmark::SvmLinear,
    Benchmark::SvmRbf,
    Benchmark::Cnn,
    Benchmark::Hog,
];

/// The committed platform files, embedded so the study cannot drift
/// from the repository copies.
#[must_use]
pub fn platform_set() -> Vec<(&'static str, &'static str)> {
    vec![
        ("m4-pulp3", include_str!("../../../platforms/m4-pulp3.toml")),
        (
            "m4-pulp3-single",
            include_str!("../../../platforms/m4-pulp3-single.toml"),
        ),
        (
            "f407-pulp4-octa",
            include_str!("../../../platforms/f407-pulp4-octa.toml"),
        ),
        (
            "f446-pulp5-turbo",
            include_str!("../../../platforms/f446-pulp5-turbo.toml"),
        ),
    ]
}

/// One kernel's prediction-vs-simulation cell on one platform.
#[derive(Clone, Debug)]
pub struct KernelCell {
    /// Kernel name.
    pub kernel: &'static str,
    /// Model-predicted warm cluster cycles.
    pub predicted_cycles: u64,
    /// Fully simulated warm cluster cycles.
    pub simulated_cycles: u64,
    /// Model-predicted whole-offload energy, joules.
    pub predicted_joules: f64,
    /// Fully simulated whole-offload energy, joules.
    pub simulated_joules: f64,
    /// Backend minimizing wall-clock time, per the selector.
    pub fastest: Backend,
    /// Backend minimizing energy, per the selector.
    pub most_efficient: Backend,
}

impl KernelCell {
    /// Relative cycle-prediction error.
    #[must_use]
    pub fn cycle_error(&self) -> f64 {
        relative_error(self.predicted_cycles as f64, self.simulated_cycles as f64)
    }

    /// Relative energy-prediction error.
    #[must_use]
    pub fn energy_error(&self) -> f64 {
        relative_error(self.predicted_joules, self.simulated_joules)
    }
}

/// One platform's row group: its shape and every kernel cell.
#[derive(Clone, Debug)]
pub struct PlatformCell {
    /// Platform file stem.
    pub name: &'static str,
    /// Host device display name.
    pub host: String,
    /// Host clock, MHz.
    pub mcu_mhz: f64,
    /// Cluster core count.
    pub cores: usize,
    /// Default operating point supply, volts.
    pub vdd: f64,
    /// Cluster clock at the default operating point, MHz.
    pub pulp_mhz: f64,
    /// Per-kernel validation cells.
    pub kernels: Vec<KernelCell>,
    /// Simulated CNN offload speedup over the platform's own host
    /// (the headline each successor must beat — and the regression
    /// gate's subject).
    pub cnn_speedup: f64,
}

/// Phase B: one serving run's headline figures.
#[derive(Clone, Copy, Debug)]
pub struct ServeFigures {
    /// Completed requests.
    pub completed: u64,
    /// Rejected (shed) requests.
    pub rejected: u64,
    /// Total platform energy, joules.
    pub energy_joules: f64,
    /// Energy per completed request, joules.
    pub joules_per_request: f64,
    /// Completed-request throughput.
    pub throughput_rps: f64,
    /// p99 latency, nanoseconds.
    pub p99_ns: u64,
    /// Makespan, nanoseconds.
    pub makespan_ns: u64,
}

impl ServeFigures {
    fn from_report(r: &ServeReport) -> Self {
        ServeFigures {
            completed: r.completed,
            rejected: r.rejected,
            energy_joules: r.energy_joules,
            joules_per_request: r.joules_per_request(),
            throughput_rps: r.throughput_rps(),
            p99_ns: r.latency.p99_ns,
            makespan_ns: r.makespan_ns,
        }
    }
}

/// Phase B: the unconstrained-vs-budgeted comparison on the baseline
/// platform.
#[derive(Clone, Debug)]
pub struct PowerStudy {
    /// The armed budget, watts.
    pub budget_w: f64,
    /// Governor off.
    pub off: ServeFigures,
    /// Governor on, under [`PowerStudy::budget_w`].
    pub on: ServeFigures,
    /// The budgeted run's DVFS ladder (descending volts).
    pub ladder: Vec<f64>,
    /// Virtual nanoseconds spent at each ladder rung.
    pub residency_ns: Vec<u64>,
    /// Governor rung transitions.
    pub transitions: usize,
}

impl PowerStudy {
    /// Fractional joules-per-request saving of the budgeted run.
    #[must_use]
    pub fn joules_per_request_reduction(&self) -> f64 {
        1.0 - self.on.joules_per_request / self.off.joules_per_request
    }

    /// Fractional throughput given up for that saving.
    #[must_use]
    pub fn throughput_cost(&self) -> f64 {
        1.0 - self.on.throughput_rps / self.off.throughput_rps
    }
}

/// The whole study.
#[derive(Clone, Debug)]
pub struct PlatformStudy {
    /// Phase A cells, in [`platform_set`] order.
    pub platforms: Vec<PlatformCell>,
    /// Phase B comparison.
    pub power: PowerStudy,
}

/// Fits every [`KERNELS`] model on the reference platform: single-core
/// and default-cluster simulations plus one host run each.
///
/// # Panics
///
/// Panics if a reference simulation fails — the kernels are verified
/// against golden references, so that is a bug, not a condition.
#[must_use]
pub fn fit_models() -> Vec<KernelCostModel> {
    let cfg = HetSystemConfig::default();
    ulp_par::par_map(&KERNELS, |_, &b| {
        let single_cfg = HetSystemConfig {
            cluster: ulp_cluster::ClusterConfig {
                num_cores: 1,
                ..cfg.cluster
            },
            ..cfg.clone()
        };
        let single_env = cluster_env(&single_cfg);
        let c1 = HetSystem::new(single_cfg)
            .measure_cost(&b.build(&single_env))
            .expect("single-core reference measure");
        let cn = HetSystem::new(cfg.clone())
            .measure_cost(&b.build(&cluster_env(&cfg)))
            .expect("reference measure");
        let host = HetSystem::new(cfg.clone())
            .run_on_host(&b.build(&host_env(&cfg)))
            .expect("host reference run");
        KernelCostModel::fit(&c1, &cn, cfg.cluster.num_cores, host.cycles)
    })
}

/// Runs Phase A for one platform file: per kernel, one predicted and
/// one simulated offload, plus the backend selector's verdict.
///
/// # Panics
///
/// Panics if the embedded platform file fails to parse or a simulation
/// fails.
#[must_use]
pub fn run_platform(name: &'static str, text: &str, models: &[KernelCostModel]) -> PlatformCell {
    let spec =
        PlatformSpec::parse(&format!("{name}.toml"), text).expect("committed platform parses");
    let cfg = config_from_platform(&spec);
    let opts = OffloadOptions {
        iterations: ITERATIONS,
        ..OffloadOptions::default()
    };
    let kernels: Vec<KernelCell> = KERNELS
        .iter()
        .zip(models)
        .map(|(&b, model)| {
            let mut sys = HetSystem::new(cfg.clone());
            let actual = sys
                .offload(&b.build(&cluster_env(&cfg)), &opts)
                .expect("platform simulation");
            let predicted = model.predict(&cfg, &opts, true);
            let choice = model.choose(&cfg, &opts, true);
            KernelCell {
                kernel: b.name(),
                predicted_cycles: model.predict_cycles(cfg.cluster.num_cores),
                simulated_cycles: actual.cycles_warm,
                predicted_joules: predicted.joules,
                simulated_joules: actual.total_energy_joules(),
                fastest: choice.fastest,
                most_efficient: choice.most_efficient,
            }
        })
        .collect();

    // Headline: simulated CNN offload vs the platform's own host.
    let mut sys = HetSystem::new(cfg.clone());
    let cnn = Benchmark::Cnn;
    let offload = sys
        .offload(&cnn.build(&cluster_env(&cfg)), &opts)
        .expect("CNN offload");
    let host = sys
        .run_on_host(&cnn.build(&host_env(&cfg)))
        .expect("CNN host run");
    let cnn_speedup = host.seconds * ITERATIONS as f64 / offload.total_seconds();

    PlatformCell {
        name,
        host: spec.host.name.to_string(),
        mcu_mhz: spec.mcu_freq_hz / 1e6,
        cores: cfg.cluster.num_cores,
        vdd: spec.default_vdd,
        pulp_mhz: cfg.pulp_freq_hz / 1e6,
        kernels,
        cnn_speedup,
    }
}

/// Builds the Phase B serving workload on the baseline platform: two
/// tenants mixing the [`KERNELS`] set, offered at 1.5× pool capacity.
fn serve_inputs(cfg: &HetSystemConfig) -> (Vec<TenantSpec>, CostBook, WorkloadSpec) {
    let book = CostBook::measure(&cluster_env(cfg), cfg, &KERNELS).expect("cost book");
    let mix: Vec<(Benchmark, f64)> = KERNELS.iter().map(|&b| (b, 1.0)).collect();
    let mean_ns: f64 = mix
        .iter()
        .map(|&(b, _)| book.est_ns(b, 1) as f64)
        .sum::<f64>()
        / mix.len() as f64;
    let rate = 1.5 * SERVE_POOL as f64 * 1e9 / mean_ns;
    let tenants: Vec<TenantSpec> = (0..2)
        .map(|i| {
            let mut t = TenantSpec::new(&format!("tenant-{i}"));
            t.queue_cap = 256;
            t
        })
        .collect();
    let workload = WorkloadSpec {
        seed: SEED,
        duration_ns: SERVE_DURATION_NS,
        tenants: tenants
            .iter()
            .map(|spec| TenantLoad {
                spec: spec.clone(),
                rate_rps: rate / tenants.len() as f64,
                kernel_mix: mix.clone(),
                class_mix: [0.3, 0.5, 0.2],
                iterations: 1,
            })
            .collect(),
    };
    (tenants, book, workload)
}

/// Runs Phase B: the same seeded stream, governor off then on.
///
/// # Panics
///
/// Panics if either serving run fails.
#[must_use]
pub fn run_power_study() -> PowerStudy {
    let spec = PlatformSpec::parse("m4-pulp3.toml", platform_set()[0].1)
        .expect("baseline platform parses");
    let cfg = config_from_platform(&spec);
    let (tenants, book, workload) = serve_inputs(&cfg);
    let requests = workload.generate();

    let run = |power: Option<PowerPolicy>| -> ServeReport {
        let serve_cfg = ServeConfig {
            pool: SERVE_POOL,
            policy: BatchPolicy::KernelAware { max_batch: 8 },
            power,
            ..ServeConfig::default()
        };
        ServePool::new(&cfg, tenants.clone(), book.clone(), serve_cfg)
            .run(&requests)
            .expect("serving run")
    };
    let off = run(None);
    let on = run(Some(PowerPolicy { budget_w: BUDGET_W }));

    PowerStudy {
        budget_w: BUDGET_W,
        off: ServeFigures::from_report(&off),
        on: ServeFigures::from_report(&on),
        ladder: PowerPolicy::ladder(cfg.pulp_vdd),
        residency_ns: on.op_residency_ns.clone(),
        transitions: on.power_events.len(),
    }
}

/// Runs the whole study: model fits, the platform matrix (fanned out
/// over `ulp_par::par_map`), and the power comparison.
///
/// # Panics
///
/// Panics if any simulation fails.
#[must_use]
pub fn study() -> PlatformStudy {
    let models = fit_models();
    let set = platform_set();
    let platforms = ulp_par::par_map(&set, |_, &(name, text)| run_platform(name, text, &models));
    PlatformStudy {
        platforms,
        power: run_power_study(),
    }
}

/// Plain-text study table (the golden `platform_table.txt` snapshot).
#[must_use]
pub fn render_table(s: &PlatformStudy) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for p in &s.platforms {
        for k in &p.kernels {
            rows.push(vec![
                p.name.to_owned(),
                k.kernel.to_owned(),
                p.cores.to_string(),
                k.predicted_cycles.to_string(),
                k.simulated_cycles.to_string(),
                format!("{:.1}%", k.cycle_error() * 100.0),
                format!("{:.1}", k.predicted_joules * 1e6),
                format!("{:.1}", k.simulated_joules * 1e6),
                format!("{:.1}%", k.energy_error() * 100.0),
                k.fastest.to_string(),
                k.most_efficient.to_string(),
            ]);
        }
    }
    let mut out = String::from("Platform matrix: cost-model predictions vs full simulation\n");
    out.push_str(&format!(
        "({ITERATIONS} iterations per offload; models fitted on the reference platform only)\n\n"
    ));
    out.push_str(&crate::render_table(
        &[
            "platform",
            "kernel",
            "cores",
            "pred cyc",
            "sim cyc",
            "err",
            "pred uJ",
            "sim uJ",
            "err",
            "fastest",
            "efficient",
        ],
        &rows,
    ));

    out.push_str("\nplatform headlines (simulated CNN offload vs own host):\n");
    for p in &s.platforms {
        out.push_str(&format!(
            "  {:<18} {} @{:.0} MHz + {} cores @{:.0} MHz ({:.2} V): {:.1}x\n",
            p.name, p.host, p.mcu_mhz, p.cores, p.pulp_mhz, p.vdd, p.cnn_speedup
        ));
    }

    let pw = &s.power;
    out.push_str(&format!(
        "\npower envelope (baseline platform, seed {SEED}, budget {:.1} mW):\n",
        pw.budget_w * 1e3
    ));
    let line = |label: &str, f: &ServeFigures| {
        format!(
            "  {label:<9} {} completed, {} rejected, {:.2} uJ/req, {:.1} rps, p99 {} ms, \
             makespan {} ms\n",
            f.completed,
            f.rejected,
            f.joules_per_request * 1e6,
            f.throughput_rps,
            fmt_ms(f.p99_ns),
            fmt_ms(f.makespan_ns)
        )
    };
    out.push_str(&line("governed", &pw.on));
    out.push_str(&line("baseline", &pw.off));
    let residency: Vec<String> = pw
        .ladder
        .iter()
        .zip(&pw.residency_ns)
        .map(|(vdd, &ns)| format!("{vdd:.2} V {} ms", fmt_ms(ns)))
        .collect();
    out.push_str(&format!(
        "  governor  {} transitions; residency: {}\n",
        pw.transitions,
        residency.join(", ")
    ));
    out.push_str(&format!(
        "  verdict   {:.1}% fewer joules/request for {:.1}% throughput\n",
        pw.joules_per_request_reduction() * 100.0,
        pw.throughput_cost() * 100.0
    ));
    out
}

/// Renders the committed `BENCH_platforms.json`. Deliberately excludes
/// `--jobs` and every other machine fact — the file is a claim about
/// the model and must be byte-identical however it was produced.
#[must_use]
pub fn render_json(s: &PlatformStudy) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"het-accel-platforms-v1\",\n");
    out.push_str("  \"time_basis\": \"virtual nanoseconds (seeded, machine-independent)\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"iterations\": {ITERATIONS},\n"));
    out.push_str(&format!(
        "  \"error_bounds\": {{\"cycles\": {:.2}, \"energy\": {:.2}}},\n",
        ulp_offload::CYCLE_ERROR_BOUND,
        ulp_offload::ENERGY_ERROR_BOUND
    ));
    out.push_str("  \"platforms\": [\n");
    for (i, p) in s.platforms.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n      \"host\": \"{}\",\n      \"mcu_mhz\": {:.1},\n      \
             \"cores\": {},\n      \"vdd\": {:.2},\n      \"pulp_mhz\": {:.1},\n",
            p.name, p.host, p.mcu_mhz, p.cores, p.vdd, p.pulp_mhz
        ));
        out.push_str("      \"kernels\": [\n");
        for (j, k) in p.kernels.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"kernel\": \"{}\", \"predicted_cycles\": {}, \
                 \"simulated_cycles\": {}, \"cycle_error\": {:.4}, \
                 \"predicted_uj\": {:.3}, \"simulated_uj\": {:.3}, \
                 \"energy_error\": {:.4}, \"fastest\": \"{}\", \"most_efficient\": \"{}\"}}{}\n",
                k.kernel,
                k.predicted_cycles,
                k.simulated_cycles,
                k.cycle_error(),
                k.predicted_joules * 1e6,
                k.simulated_joules * 1e6,
                k.energy_error(),
                k.fastest,
                k.most_efficient,
                if j + 1 == p.kernels.len() { "" } else { "," }
            ));
        }
        out.push_str("      ],\n");
        out.push_str(&format!("      \"cnn_speedup\": {:.3}\n", p.cnn_speedup));
        out.push_str(if i + 1 == s.platforms.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"platform_speedup\": {");
    for (i, p) in s.platforms.iter().enumerate() {
        out.push_str(&format!(
            "{}\"{}\": {:.3}",
            if i == 0 { "" } else { ", " },
            p.name,
            p.cnn_speedup
        ));
    }
    out.push_str("},\n");
    let pw = &s.power;
    let figures = |f: &ServeFigures| {
        format!(
            "{{\"completed\": {}, \"rejected\": {}, \"energy_mj\": {:.4}, \
             \"joules_per_request_uj\": {:.3}, \"throughput_rps\": {:.3}, \
             \"p99_ms\": \"{}\", \"makespan_ns\": {}}}",
            f.completed,
            f.rejected,
            f.energy_joules * 1e3,
            f.joules_per_request * 1e6,
            f.throughput_rps,
            fmt_ms(f.p99_ns),
            f.makespan_ns
        )
    };
    out.push_str("  \"power_budget\": {\n");
    out.push_str(&format!("    \"budget_mw\": {:.3},\n", pw.budget_w * 1e3));
    out.push_str(&format!("    \"off\": {},\n", figures(&pw.off)));
    out.push_str(&format!("    \"on\": {},\n", figures(&pw.on)));
    out.push_str(&format!(
        "    \"transitions\": {},\n    \"residency_ns\": [{}],\n",
        pw.transitions,
        pw.residency_ns
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "    \"joules_per_request_reduction\": {:.4},\n    \"throughput_cost\": {:.4}\n",
        pw.joules_per_request_reduction(),
        pw.throughput_cost()
    ));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Runs the full study and returns the table (the `platforms` binary's
/// stdout).
#[must_use]
pub fn run() -> String {
    render_table(&study())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_set_covers_the_committed_files() {
        let set = platform_set();
        assert_eq!(set.len(), 4, "four platform files are committed");
        let names: Vec<&str> = set.iter().map(|(n, _)| *n).collect();
        assert!(
            names.contains(&"m4-pulp3"),
            "the paper baseline is in the set"
        );
        for (name, text) in set {
            let spec = PlatformSpec::parse(&format!("{name}.toml"), text)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!spec.operating_points().is_empty());
        }
    }

    #[test]
    fn power_study_trades_throughput_for_energy() {
        let pw = run_power_study();
        assert!(
            pw.joules_per_request_reduction() > 0.0,
            "the governed run must cut joules per request \
             (off {:.3} uJ, on {:.3} uJ)",
            pw.off.joules_per_request * 1e6,
            pw.on.joules_per_request * 1e6
        );
        assert!(pw.transitions > 0, "a tight budget must move the ladder");
        assert_eq!(pw.ladder.len(), pw.residency_ns.len());
    }
}
