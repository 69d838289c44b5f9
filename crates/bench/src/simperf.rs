//! Simulator wall-clock performance tracking — the source of
//! `BENCH_simulator.json`.
//!
//! Unlike every other module in this crate, the quantity under test here is
//! not a *simulated* number but the cost of producing it: host seconds per
//! evaluation suite and *simulated MIPS* (retired target instructions per
//! host second). Two caveats shape the design:
//!
//! * **Host noise.** The CI and evaluation hosts are shared, so wall-clock
//!   readings swing by tens of percent run-to-run. We therefore measure
//!   **process CPU time** (user + sys, immune to steal and scheduling) and
//!   take the minimum of several repetitions, interleaving the engines
//!   being compared so slow drift hits both equally.
//! * **Apples to apples.** The only comparison made in-process — and thus
//!   the only defensible ratio — is engine vs engine (reference vs epoch)
//!   on the same build and the same host state.

use ulp_cluster::{Cluster, ClusterConfig, EpochAbort, EpochStats, TOPUP_ROUND_LABELS};

/// Process CPU seconds (user + sys) consumed so far. On Linux this reads
/// `/proc/self/stat` (steal-immune); elsewhere it falls back to wall time
/// since first call, which still yields valid deltas.
#[must_use]
pub fn cpu_seconds() -> f64 {
    if let Some(s) = proc_stat_cpu_seconds() {
        return s;
    }
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn proc_stat_cpu_seconds() -> Option<f64> {
    // Fields after the ")" comm terminator: state ppid pgrp session tty_nr
    // tpgid flags minflt cminflt majflt cmajflt utime stime ... — so utime
    // and stime are at indices 11 and 12, in clock ticks (100 Hz).
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after = stat.rsplit(") ").next()?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// One timed evaluation suite.
#[derive(Clone, Debug)]
pub struct SuitePerf {
    /// Suite name (matches the binary that normally renders it).
    pub name: &'static str,
    /// Process CPU seconds consumed by one run of the suite.
    pub host_cpu_seconds: f64,
    /// Target instructions retired during the run.
    pub retired: u64,
    /// Simulated MIPS: retired target instructions per host CPU second.
    pub simulated_mips: f64,
}

/// Runs `suite` once, metering CPU seconds and the retired-instruction
/// delta from [`ulp_isa::perf`]. The rendered output is discarded (its
/// length is black-boxed so the render cannot be optimised away).
pub fn time_suite(name: &'static str, suite: impl FnOnce() -> String) -> SuitePerf {
    let retired_before = ulp_isa::perf::retired_total();
    let t0 = cpu_seconds();
    let output = suite();
    let host_cpu_seconds = cpu_seconds() - t0;
    let retired = ulp_isa::perf::retired_total() - retired_before;
    std::hint::black_box(output.len());
    SuitePerf {
        name,
        host_cpu_seconds,
        retired,
        simulated_mips: retired as f64 / host_cpu_seconds.max(1e-9) / 1e6,
    }
}

/// In-process engine comparison: a fixed workload under both cluster
/// engines (reference and epoch), interleaved, min-of-`reps` CPU seconds
/// each. This is the defensible speedup number — same build, same host
/// state, only the engine differs.
#[derive(Clone, Debug)]
pub struct EngineComparison {
    /// Human description of the timed workload (rendered in the report).
    pub workload: &'static str,
    /// Repetitions per engine (minimum is reported).
    pub reps: usize,
    /// Best-of-reps CPU seconds for the reference engine.
    pub reference_cpu_seconds: f64,
    /// Best-of-reps CPU seconds for the speculative epoch engine.
    pub epoch_cpu_seconds: f64,
    /// The epoch engine's decision counters over one measurement, for
    /// cells that collect them.
    pub epoch_stats: Option<EpochStats>,
}

impl EngineComparison {
    /// Reference time over epoch time (> 1 means epoch is faster).
    #[must_use]
    pub fn epoch_speedup(&self) -> f64 {
        self.reference_cpu_seconds / self.epoch_cpu_seconds.max(1e-9)
    }
}

/// The full engine-comparison workload: every benchmark on the M4 flat
/// host and the two cluster targets — the same flat/cluster mix `table1`
/// itself simulates. Flat hosts are engine-dependent too (the reference
/// engine steps the decoder, epoch replays micro-op blocks through
/// [`ulp_isa::Core::run`]), so the sweep covers both paths.
fn engine_sweep(engine: ulp_cluster::Engine) {
    use ulp_kernels::TargetEnv;
    for env in [
        TargetEnv::host_m4(),
        TargetEnv::pulp_single(),
        TargetEnv::pulp_parallel(),
    ] {
        env_sweep(&env, engine);
    }
}

/// The quad-core cell: every benchmark on `pulp_parallel` only, three
/// passes per timed measurement — one pass is ~0.2 CPU-seconds, short
/// enough that the 10 ms granularity of the process CPU clock moves the
/// engine ratio by several percent. Tracked as its own pinned number
/// because the full sweep averages the multi-core floor away behind the
/// single-core targets.
fn engine_sweep_quad(engine: ulp_cluster::Engine) {
    for _ in 0..3 {
        env_sweep(&ulp_kernels::TargetEnv::pulp_parallel(), engine);
    }
}

/// The eight-core cell: every benchmark built for, and run on, the
/// committed `f407-pulp4-octa` platform's cluster (8 cores, 128 kB TCDM
/// in 16 banks), each run cold on a fresh cluster, two passes per timed
/// measurement. The shape whose epochs the boundary top-ups used to end,
/// tracked on its own so the CI gate sees the widest cluster. Adds every
/// run's epoch decision counters to `stats`.
fn engine_sweep_octa(
    cfg: &ulp_offload::HetSystemConfig,
    engine: ulp_cluster::Engine,
    stats: &mut EpochStats,
) {
    use ulp_kernels::{runner, Benchmark};
    let env = ulp_offload::cluster_env(cfg);
    for _ in 0..2 {
        for b in Benchmark::ALL {
            let build = b.build(&env);
            let mut cluster = Cluster::new(ClusterConfig {
                engine,
                ..cfg.cluster
            });
            let r = runner::run_on_existing_cluster(&build, &mut cluster)
                .unwrap_or_else(|e| panic!("{} failed: {e}", build.name));
            std::hint::black_box(r.cycles);
            stats.merge(cluster.epoch_stats());
        }
    }
}

fn env_sweep(env: &ulp_kernels::TargetEnv, engine: ulp_cluster::Engine) {
    use ulp_kernels::{runner, Benchmark};
    for b in Benchmark::ALL {
        let build = b.build(env);
        let r = runner::run_with_engine(&build, env, engine)
            .unwrap_or_else(|e| panic!("{} failed: {e}", build.name));
        std::hint::black_box(r.cycles);
    }
}

fn compare_engines_on(
    workload: &'static str,
    sweep: impl Fn(ulp_cluster::Engine),
    reps: usize,
) -> EngineComparison {
    // Interleave the engines so slow host drift biases neither of them.
    let mut best = [f64::INFINITY; 2];
    for _ in 0..reps.max(1) {
        for (slot, engine) in ulp_cluster::Engine::ALL.into_iter().enumerate() {
            let t0 = cpu_seconds();
            sweep(engine);
            best[slot] = best[slot].min(cpu_seconds() - t0);
        }
    }
    EngineComparison {
        workload,
        reps: reps.max(1),
        reference_cpu_seconds: best[0],
        epoch_cpu_seconds: best[1],
        epoch_stats: None,
    }
}

/// Runs the full-sweep engine comparison.
#[must_use]
pub fn compare_engines(reps: usize) -> EngineComparison {
    compare_engines_on(
        "engine sweep (10 benchmarks x host_m4+pulp_single+pulp_parallel)",
        engine_sweep,
        reps,
    )
}

/// Runs the quad-core `pulp_parallel`-only engine comparison — the cell
/// the epoch engine exists to lift.
#[must_use]
pub fn compare_engines_quad(reps: usize) -> EngineComparison {
    compare_engines_on(
        "quad-core cell (10 benchmarks x pulp_parallel)",
        engine_sweep_quad,
        reps,
    )
}

/// Runs the eight-core `f407-pulp4-octa` engine comparison, with the
/// epoch side's decision counters. Simulated state alone drives the
/// counters, so every timed epoch rep repeats them exactly; one untimed
/// epoch pass after the timed ones collects them.
#[must_use]
pub fn compare_engines_octa(reps: usize) -> EngineComparison {
    let (_, text) = crate::platforms::platform_set()
        .into_iter()
        .find(|(name, _)| *name == "f407-pulp4-octa")
        .expect("the octa platform is committed");
    let spec = ulp_platform::PlatformSpec::parse("f407-pulp4-octa.toml", text)
        .unwrap_or_else(|e| panic!("{e}"));
    let cfg = ulp_offload::config_from_platform(&spec);
    let mut cell = compare_engines_on(
        "eight-core cell (10 benchmarks x f407-pulp4-octa, cold runs)",
        |engine| engine_sweep_octa(&cfg, engine, &mut EpochStats::default()),
        reps,
    );
    let mut stats = EpochStats::default();
    engine_sweep_octa(&cfg, ulp_cluster::Engine::Epoch, &mut stats);
    cell.epoch_stats = Some(stats);
    cell
}

/// Peak interpreter throughput per engine: simulated MIPS on a dense
/// arithmetic/memory loop run on a flat M4 core. This isolates the
/// engine's own hot loop from kernel build/verify overhead and from
/// cluster-parallel arbitration (whose exact (time, index) interleaving
/// bounds batch sizes regardless of engine), both of which dilute the
/// end-to-end sweep ratio in [`EngineComparison`].
#[derive(Clone, Debug)]
pub struct CorePeak {
    /// Best-of-reps simulated MIPS through the reference step loop.
    pub reference_mips: f64,
    /// Best-of-reps simulated MIPS through the micro-op block engine.
    pub microop_mips: f64,
}

impl CorePeak {
    /// Micro-op MIPS over reference MIPS (> 1 means micro-op is faster).
    #[must_use]
    pub fn microop_speedup(&self) -> f64 {
        self.microop_mips / self.reference_mips.max(1e-9)
    }
}

/// Measures [`CorePeak`]: a 20M-instruction dense ALU loop on a flat M4
/// core, best-of-`reps` per engine, interleaved like
/// [`compare_engines`]. Timed with the wall clock rather than CPU ticks:
/// one run is tens of milliseconds, below the 10 ms granularity of
/// `/proc/self/stat`, and taking the best of several reps sheds
/// scheduling noise the same way the minimum CPU time does.
#[must_use]
pub fn core_peak(reps: usize) -> CorePeak {
    use std::time::Instant;
    use ulp_isa::prelude::*;
    use ulp_isa::{Core, CoreModel, FlatMemory};

    // 2M iterations x 10 instructions of straight-line ALU work plus the
    // loop branch: no data memory traffic, so the engines' own dispatch
    // and retire paths are all that is being timed — the load/store and
    // arbitration models are shared between engines and would only add a
    // common constant.
    let mut a = Asm::new();
    a.li(R9, 2_000_000);
    let top = a.new_label();
    a.bind(top);
    a.add(R1, R2, R3);
    a.sub(R4, R4, R3);
    a.sub(R5, R5, R1);
    a.add(R6, R1, R4);
    a.slli(R7, R6, 1);
    a.srli(R8, R6, 2);
    a.add(R11, R7, R8);
    a.sub(R12, R11, R1);
    a.addi(R9, R9, -1);
    a.bne(R9, R0, top);
    a.halt();
    let prog = a.finish().expect("core_peak loop assembles");

    let mut best = [0.0f64; 2];
    for _ in 0..reps.max(1) {
        for (slot, microop) in [false, true].into_iter().enumerate() {
            let mut mem = FlatMemory::new(0, 1 << 16);
            mem.load_program(&prog, 0).expect("program fits");
            let mut core = Core::new(0, CoreModel::cortex_m4());
            core.set_microop(microop);
            core.reset(0);
            let retired_before = ulp_isa::perf::retired_total();
            let t0 = Instant::now();
            core.run(&mut mem, u64::MAX).expect("loop halts");
            let secs = t0.elapsed().as_secs_f64();
            let retired = ulp_isa::perf::retired_total() - retired_before;
            let mips = retired as f64 / secs.max(1e-9) / 1e6;
            best[slot] = best[slot].max(mips);
        }
    }
    CorePeak {
        reference_mips: best[0],
        microop_mips: best[1],
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_comparison(out: &mut String, c: &EngineComparison) {
    out.push_str(&format!(
        "    \"workload\": \"{}\",\n",
        json_escape(c.workload)
    ));
    out.push_str(&format!("    \"reps\": {},\n", c.reps));
    out.push_str(&format!(
        "    \"reference_cpu_seconds\": {:.4},\n",
        c.reference_cpu_seconds
    ));
    out.push_str(&format!(
        "    \"epoch_cpu_seconds\": {:.4},\n",
        c.epoch_cpu_seconds
    ));
    out.push_str(&format!("    \"epoch_speedup\": {:.3}", c.epoch_speedup()));
    if let Some(s) = &c.epoch_stats {
        out.push_str(",\n    \"epoch_stats\": {\n");
        for (key, n) in [
            ("attempted", s.attempted),
            ("committed", s.committed),
            ("salvaged", s.salvaged),
            ("rolled_back", s.rolled_back),
        ] {
            out.push_str(&format!("      \"{key}\": {n},\n"));
        }
        let aborts: Vec<String> = EpochAbort::ALL
            .iter()
            .map(|&a| format!("\"{}\": {}", a.name(), s.aborts_of(a)))
            .collect();
        out.push_str(&format!("      \"aborts\": {{{}}},\n", aborts.join(", ")));
        let rounds: Vec<String> = TOPUP_ROUND_LABELS
            .iter()
            .zip(&s.topup_rounds)
            .map(|(label, n)| format!("\"{label}\": {n}"))
            .collect();
        out.push_str(&format!(
            "      \"topup_rounds\": {{{}}},\n",
            rounds.join(", ")
        ));
        out.push_str(&format!("      \"retired_epoch\": {},\n", s.retired_epoch));
        out.push_str(&format!("      \"retired_exact\": {}\n", s.retired_exact));
        out.push_str("    }");
    }
    out.push('\n');
}

/// Renders the full report as pretty-printed JSON (hand-rolled; the
/// workspace has no serde). Stable key order, two-space indent. The
/// suites run under the default engine, named in the `engine` field.
#[must_use]
pub fn render_json(
    suites: &[SuitePerf],
    comparison: Option<&EngineComparison>,
    quad: Option<&EngineComparison>,
    octa: Option<&EngineComparison>,
    peak: Option<&CorePeak>,
    jobs: usize,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"het-accel-simperf-v2\",\n");
    out.push_str("  \"time_basis\": \"process CPU seconds (user+sys)\",\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!(
        "  \"engine\": \"{}\",\n",
        ulp_cluster::Engine::default().name()
    ));
    out.push_str("  \"suites\": [\n");
    for (i, s) in suites.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"name\": \"{}\", \"host_cpu_seconds\": {:.4}, \
             \"retired_instructions\": {}, \"simulated_mips\": {:.2}",
            json_escape(s.name),
            s.host_cpu_seconds,
            s.retired,
            s.simulated_mips
        ));
        out.push('}');
        if i + 1 < suites.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    let total_secs: f64 = suites.iter().map(|s| s.host_cpu_seconds).sum();
    let total_retired: u64 = suites.iter().map(|s| s.retired).sum();
    out.push_str(&format!("  \"total_cpu_seconds\": {total_secs:.4},\n"));
    out.push_str(&format!(
        "  \"total_retired_instructions\": {total_retired},\n"
    ));
    for (key, cell) in [
        ("engine_comparison", comparison),
        ("engine_comparison_quad", quad),
        ("engine_comparison_octa", octa),
    ] {
        match cell {
            Some(c) => {
                out.push_str(&format!("  \"{key}\": {{\n"));
                render_comparison(&mut out, c);
                out.push_str("  },\n");
            }
            None => out.push_str(&format!("  \"{key}\": null,\n")),
        }
    }
    match peak {
        Some(p) => {
            out.push_str("  \"core_peak\": {\n");
            out.push_str(
                "    \"workload\": \"20M-instruction dense ALU loop, \
                 flat M4 core, best-of-reps wall clock\",\n",
            );
            out.push_str(&format!(
                "    \"reference_mips\": {:.2},\n",
                p.reference_mips
            ));
            out.push_str(&format!("    \"microop_mips\": {:.2},\n", p.microop_mips));
            out.push_str(&format!(
                "    \"microop_speedup\": {:.3}\n",
                p.microop_speedup()
            ));
            out.push_str("  }\n");
        }
        None => out.push_str("  \"core_peak\": null\n"),
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_is_monotonic() {
        let a = cpu_seconds();
        // Burn a little CPU so the clock-tick counter has a chance to move.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(x);
        let b = cpu_seconds();
        assert!(b >= a, "CPU clock went backwards: {a} -> {b}");
    }

    #[test]
    fn time_suite_meters_retired_instructions() {
        let perf = time_suite("probe", || {
            // Any simulation works; SvmLinear is small.
            let m = crate::measure::measure(ulp_kernels::Benchmark::SvmLinear);
            format!("{}", m.risc_ops)
        });
        assert!(perf.retired > 0, "simulation must retire instructions");
        assert!(perf.host_cpu_seconds >= 0.0);
        assert!(perf.simulated_mips >= 0.0);
    }

    #[test]
    fn report_is_valid_json_shape() {
        let suites = vec![SuitePerf {
            name: "table1",
            host_cpu_seconds: 1.25,
            retired: 42_000_000,
            simulated_mips: 33.6,
        }];
        let cmp = EngineComparison {
            workload: "full sweep",
            reps: 3,
            reference_cpu_seconds: 2.0,
            epoch_cpu_seconds: 0.125,
            epoch_stats: None,
        };
        let quad = EngineComparison {
            workload: "quad cell",
            reps: 3,
            reference_cpu_seconds: 4.0,
            epoch_cpu_seconds: 2.0,
            epoch_stats: None,
        };
        let mut stats = EpochStats {
            attempted: 12,
            committed: 9,
            salvaged: 1,
            rolled_back: 2,
            retired_epoch: 900,
            retired_exact: 100,
            ..EpochStats::default()
        };
        stats.aborts[EpochAbort::Barrier as usize] = 3;
        stats.topup_rounds[3] = 5;
        let octa = EngineComparison {
            workload: "octa cell",
            reps: 3,
            reference_cpu_seconds: 3.0,
            epoch_cpu_seconds: 2.0,
            epoch_stats: Some(stats),
        };
        let peak = CorePeak {
            reference_mips: 50.0,
            microop_mips: 250.0,
        };
        let json = render_json(
            &suites,
            Some(&cmp),
            Some(&quad),
            Some(&octa),
            Some(&peak),
            4,
        );
        // Structural smoke checks (no JSON parser in the workspace).
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"engine\": \"epoch\""));
        assert!(json.contains("\"simulated_mips\": 33.60"));
        assert!(json.contains("\"epoch_speedup\": 16.000"));
        assert!(json.contains("\"epoch_speedup\": 2.000"));
        assert!(json.contains("\"workload\": \"quad cell\""));
        assert!(json.contains("\"engine_comparison_octa\": {"));
        assert!(json.contains("\"epoch_speedup\": 1.500,\n    \"epoch_stats\": {"));
        assert!(json.contains("\"rolled_back\": 2,"));
        assert!(json.contains("\"barrier\": 3, \"event\": 0,"));
        assert!(json.contains("\"topup_budget\": 0,"));
        assert!(json.contains("\"topup_rounds\": {\"0\": 0, \"1\": 0, \"2\": 0, \"3-4\": 5,"));
        assert!(json.contains("\">64\": 0}"));
        assert!(json.contains("\"retired_exact\": 100\n    }\n  },"));
        assert_eq!(json.matches("\"epoch_stats\"").count(), 1);
        assert!(json.contains("\"reference_mips\": 50.00"));
        assert!(json.contains("\"microop_speedup\": 5.000"));
        for gone in ["turbo", "pre_pr", "epoch_over_microop"] {
            assert!(!json.contains(gone), "unexpected field `{gone}` rendered");
        }
        let no_cmp = render_json(&suites, None, None, None, None, 1);
        assert!(no_cmp.contains("\"engine_comparison\": null"));
        assert!(no_cmp.contains("\"engine_comparison_quad\": null"));
        assert!(no_cmp.contains("\"engine_comparison_octa\": null"));
        assert!(no_cmp.contains("\"core_peak\": null"));
    }
}
