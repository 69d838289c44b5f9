//! `het-sim` — simulate a benchmark offload on the coupled platform.
//!
//! ```sh
//! het-sim --benchmark cnn
//! het-sim --benchmark hog --mcu-mhz 8 --iterations 32 --double-buffer
//! het-sim --benchmark matmul --link spi --sensor-direct --host-task
//! het-sim --benchmark svm-rbf --link-clock 25   # independent 25 MHz link
//! het-sim --benchmark strassen --budget-mw 10   # auto op point in budget
//! het-sim --benchmark cnn --platform platforms/f407-pulp4-octa.toml
//! het-sim --benchmark matmul --serve --power-budget 4   # 4 mW envelope
//! het-sim --benchmark matmul --ber 1e-6 --fault-seed 7   # noisy link
//! het-sim --benchmark cnn --stuck-eoc            # hang → watchdog → host
//! het-sim --benchmark cnn --trace cnn.json --counters   # cycle timeline
//! ```
//!
//! Prints the offload report (time/energy breakdown, efficiency), the
//! host-only comparison, and the compute-phase platform power. With any
//! fault knob set, a resilience section reports recovery activity and its
//! cost. `--trace FILE` records a cycle-level timeline of every component
//! and writes Chrome `trace_event` JSON (open in `chrome://tracing` or
//! Perfetto); `--counters` prints per-component busy/idle counters and the
//! per-phase breakdown.

use std::process::ExitCode;

use ulp_link::SpiWidth;
use ulp_offload::{
    FaultConfig, HetSystem, HetSystemConfig, LinkClocking, OffloadOptions, OffloadPolicy,
    PipelineConfig, TargetRegion, DEFAULT_CHUNK_BYTES, DEFAULT_WINDOW,
};
use ulp_power::busy_activity;
use ulp_tools::{parse_benchmark, Args};
use ulp_trace::Tracer;

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &[
            "double-buffer",
            "pipeline",
            "sensor-direct",
            "host-task",
            "stuck-eoc",
            "stuck-fetch-enable",
            "no-fallback",
            "counters",
            "perf",
            "serve",
            "soak",
            "serial",
            "no-fair",
            "fleet",
            "autoscale",
            "help",
        ],
    );
    if args.has("help") || !args.has("benchmark") {
        return Err(
            "usage: het-sim --benchmark NAME [--platform FILE] [--mcu-mhz F] \
             [--iterations N] \
             [--double-buffer] [--pipeline] [--chunk-bytes N] [--window N] \
             [--sensor-direct] [--host-task] [--link spi|qspi] \
             [--link-clock SPI_MHZ] [--boost-mhz F] [--budget-mw P] \
             [--ber RATE] [--drop-rate R] [--truncate-rate R] [--hang-rate R] \
             [--late-eoc-rate R] [--late-eoc-cycles N] [--stuck-eoc] \
             [--stuck-fetch-enable] [--fault-seed N] [--max-retries N] \
             [--backoff-cycles HOST_CYCLES] [--watchdog-cycles HOST_CYCLES] \
             [--no-fallback] \
             [--trace FILE] [--trace-cap N] [--counters] \
             [--perf] [--engine reference|epoch] [--jobs N] \
             [--serve] [--pool N] [--max-batch N] [--serial] [--no-fair] \
             [--serve-seed N] [--duration-ms N] [--tenants N] \
             [--power-budget MW] \
             [--soak] [--burst-factor F] [--blackout-ms N] [--churn-ms N] \
             [--fleet] [--groups N] [--autoscale] [--max-pool N] \
             [--record-trace FILE] [--replay-trace FILE]"
                .to_owned(),
        );
    }
    let benchmark = parse_benchmark(args.get("benchmark").unwrap_or(""))?;
    let iterations = args.get_usize("iterations", 16)?;
    if args.has("jobs") {
        let jobs = args.get_usize("jobs", 1)?;
        if jobs == 0 {
            return Err("--jobs requires a positive integer".to_owned());
        }
        ulp_par::set_jobs(Some(jobs));
    }

    // `--platform FILE` swaps the whole machine description: host device
    // and clock, link wiring, cluster shape, ISA gates, power scaling and
    // the default DVFS point all come from the file. Explicit flags given
    // alongside it (`--mcu-mhz`, `--link`, `--link-clock`, …) still win,
    // so a committed platform can be probed with one-off deviations. Each
    // clock flag passes the check the platform parser applies to its key.
    let mut cfg = if let Some(path) = args.get("platform") {
        let spec = ulp_platform::PlatformSpec::load(path).map_err(|e| e.to_string())?;
        ulp_offload::config_from_platform(&spec)
    } else {
        HetSystemConfig::default()
    };
    let clock = |flag: &str, hz: Result<f64, String>| hz.map_err(|e| format!("--{flag}: {e}"));
    if args.has("mcu-mhz") {
        let mhz = args.get_f64("mcu-mhz", 16.0)?;
        cfg.mcu_freq_hz = clock("mcu-mhz", ulp_platform::host_clock_hz(&cfg.mcu, mhz))?;
    }
    // `--engine` picks one of the bit-identical engines.
    if let Some(name) = args.get("engine") {
        cfg.cluster.engine = ulp_cluster::Engine::from_name(name).ok_or_else(|| {
            let valid = ulp_cluster::Engine::ALL
                .iter()
                .map(|e| e.name())
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "--engine: `{name}` is not a known engine (valid engines, \
                 all bit-identical: {valid})"
            )
        })?;
    }
    if let Some(link) = args.get("link") {
        cfg.link_width = match link {
            "spi" => SpiWidth::Single,
            "qspi" => SpiWidth::Quad,
            other => return Err(format!("--link: `{other}` is not spi or qspi")),
        };
    }
    if args.has("link-clock") {
        let mhz = args.get_f64("link-clock", 25.0)?;
        cfg.link_clocking = LinkClocking::Independent {
            spi_hz: clock("link-clock", ulp_platform::clock_hz("link clock", mhz))?,
        };
    } else if args.has("boost-mhz") {
        let mhz = args.get_f64("boost-mhz", 32.0)?;
        cfg.link_clocking = LinkClocking::BoostedMcu {
            mcu_hz: clock("boost-mhz", ulp_platform::clock_hz("boosted clock", mhz))?,
        };
    }
    cfg.fault = FaultConfig {
        seed: args.get_usize("fault-seed", 1)? as u64,
        bit_error_rate: args.get_f64("ber", 0.0)?,
        drop_rate: args.get_f64("drop-rate", 0.0)?,
        truncate_rate: args.get_f64("truncate-rate", 0.0)?,
        hang_rate: args.get_f64("hang-rate", 0.0)?,
        late_eoc_rate: args.get_f64("late-eoc-rate", 0.0)?,
        late_eoc_cycles: args.get_usize("late-eoc-cycles", 10_000)? as u64,
        stuck_fetch_enable: args.has("stuck-fetch-enable"),
        stuck_eoc: args.has("stuck-eoc"),
    };
    // One recovery policy for every mode; `--backoff-cycles` and
    // `--watchdog-cycles` count host cycles.
    let policy = OffloadPolicy {
        max_retries: u32::try_from(args.get_usize("max-retries", 3)?)
            .map_err(|_| "--max-retries out of range".to_owned())?,
        backoff_cycles: args.get_usize("backoff-cycles", 64)? as u64,
        watchdog_cycles: args.get_usize("watchdog-cycles", 0)? as u64,
        fallback_to_host: !args.has("no-fallback"),
    };
    if args.has("budget-mw") {
        let budget = args.get_f64("budget-mw", 10.0)? * 1e-3;
        let residual = budget - cfg.mcu.run_power_w(cfg.mcu_freq_hz) - 20.0e-6;
        let activity = busy_activity(cfg.cluster.num_cores, cfg.cluster.tcdm_banks);
        let op = cfg
            .power
            .max_freq_under_power(residual, &activity)
            .ok_or_else(|| format!("the MCU alone exceeds the {:.1} mW budget", budget * 1e3))?;
        cfg.pulp_vdd = op.vdd;
        cfg.pulp_freq_hz = op.freq_hz;
    }

    if args.has("fleet") {
        return run_fleet(&args, benchmark, &cfg);
    }
    if args.has("serve") || args.has("soak") {
        return run_serve(&args, benchmark, &cfg, policy, args.has("soak"));
    }

    let mut sys = HetSystem::new(cfg);
    let (trace_file, tracer) = trace_setup(&args)?;
    sys.set_tracer(tracer.clone());
    let build = benchmark.build(&ulp_offload::cluster_env(sys.config()));
    println!(
        "benchmark : {} — {}",
        benchmark.name(),
        benchmark.description()
    );
    println!("region    : {}", TargetRegion::from_kernel(&build));
    println!(
        "platform  : {} @{:.0} MHz + PULP @{:.0} MHz ({:.2} V) over {} ({:?})",
        sys.config().mcu.name,
        sys.config().mcu_freq_hz / 1e6,
        sys.config().pulp_freq_hz / 1e6,
        sys.config().pulp_vdd,
        sys.config().link_width,
        sys.config().link_clocking,
    );

    let pipeline = PipelineConfig {
        enabled: args.has("pipeline"),
        chunk_bytes: args.get_usize("chunk-bytes", DEFAULT_CHUNK_BYTES)?,
        window: args.get_usize("window", DEFAULT_WINDOW)?,
    }
    .normalized();
    let opts = OffloadOptions {
        iterations,
        double_buffer: args.has("double-buffer"),
        sensor_direct: args.has("sensor-direct"),
        host_task: args.has("host-task"),
        force_reload: false,
        pipeline,
        policy,
    };
    let host_build = benchmark.build(&ulp_offload::host_env(sys.config()));
    let perf_retired_before = ulp_isa::perf::retired_total();
    let perf_clock = std::time::Instant::now();
    let report = sys
        .offload_with_fallback(&build, &host_build, &opts)
        .map_err(|e| e.to_string())?;
    let perf_host_seconds = perf_clock.elapsed().as_secs_f64();
    let perf_retired = ulp_isa::perf::retired_total() - perf_retired_before;

    println!("\noffload ({iterations} iterations):");
    println!("  binary    {:>10.3} ms", report.binary_seconds * 1e3);
    println!("  inputs    {:>10.3} ms", report.input_seconds * 1e3);
    println!(
        "  compute   {:>10.3} ms   ({} cycles cold / {} warm)",
        report.compute_seconds * 1e3,
        report.cycles_cold,
        report.cycles_warm
    );
    println!("  outputs   {:>10.3} ms", report.output_seconds * 1e3);
    println!(
        "  overlap   {:>10.3} ms hidden",
        report.overlapped_seconds * 1e3
    );
    println!(
        "  total     {:>10.3} ms   efficiency {:.1}%",
        report.total_seconds() * 1e3,
        report.efficiency() * 100.0
    );
    println!(
        "  energy    mcu {:.1} µJ + pulp {:.1} µJ + link {:.2} µJ = {:.1} µJ",
        report.mcu_energy_joules * 1e6,
        report.pulp_energy_joules * 1e6,
        report.link_energy_joules * 1e6,
        report.total_energy_joules() * 1e6
    );
    if pipeline.enabled {
        let serialized = report.total_seconds() + report.overlapped_seconds;
        println!(
            "  pipeline  chunk {} B, window {}: serialized {:.3} ms -> pipelined {:.3} ms \
             ({:.1}% of modeled cycles hidden{})",
            pipeline.chunk_bytes,
            pipeline.window,
            serialized * 1e3,
            report.total_seconds() * 1e3,
            report.overlapped_seconds / serialized.max(f64::MIN_POSITIVE) * 100.0,
            if report.overlap.engaged {
                ""
            } else {
                "; legacy double-buffer bound won"
            }
        );
    }
    if report.host_task_cycles > 0 {
        println!(
            "  host task {:.2} M cycles gained",
            report.host_task_cycles as f64 / 1e6
        );
    }
    println!(
        "  compute-phase platform power {:.2} mW",
        sys.compute_phase_power_watts(&report.activity) * 1e3
    );
    if args.has("perf") {
        println!(
            "\nsimulator perf ({} engine):",
            sys.config().cluster.engine.name()
        );
        println!("  host wall-clock  {perf_host_seconds:>10.4} s");
        println!("  target retired   {perf_retired:>10} insns");
        println!(
            "  simulated MIPS   {:>10.2}",
            perf_retired as f64 / perf_host_seconds.max(f64::MIN_POSITIVE) / 1e6
        );
    }

    if sys.config().fault.is_active() {
        let r = &report.resilience;
        println!("\nresilience (seed {}):", sys.config().fault.seed);
        println!(
            "  crc errors {} detected / {} escaped, {} dropped frames",
            r.crc_errors_detected, r.crc_errors_escaped, r.frames_dropped
        );
        println!(
            "  {} retransmissions, {} watchdog trips, {} backoff cycles",
            r.retransmissions, r.watchdog_trips, r.backoff_cycles
        );
        println!(
            "  recovery cost {:.3} ms, {:.2} µJ",
            r.extra_seconds * 1e3,
            r.extra_energy_joules * 1e6
        );
        if r.fell_back_to_host {
            println!(
                "  FELL BACK TO HOST for {} iterations: +{:.3} ms, +{:.1} µJ",
                r.fallback_iterations,
                r.fallback_seconds * 1e3,
                r.fallback_energy_joules * 1e6
            );
        }
    }

    let host = sys.run_on_host(&host_build).map_err(|e| e.to_string())?;
    let per_iter = report.total_seconds() / iterations as f64;
    println!(
        "\nhost only : {:.3} ms, {:.1} µJ",
        host.seconds * 1e3,
        host.energy_joules * 1e6
    );
    println!(
        "speedup   : {:.1}×   energy gain {:.1}×",
        host.seconds / per_iter,
        host.energy_joules / (report.total_energy_joules() / iterations as f64)
    );

    if args.has("counters") {
        println!("\nper-component utilization (warm run, cluster cycles):");
        print!("{}", tracer.counters_table());
        println!("\nphase breakdown (host timeline):");
        print!("{}", tracer.phase_table());
        if pipeline.enabled {
            println!("\npipeline overlap (engine schedule):");
            print!("{}", tracer.overlap_table());
        }
    }
    if let Some(path) = trace_file {
        let json = tracer.chrome_json();
        std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        let dropped = tracer.dropped();
        println!(
            "\ntrace     : {} events → {path}{}",
            tracer.events().len(),
            if dropped > 0 {
                format!(" ({dropped} oldest events dropped; raise --trace-cap)")
            } else {
                String::new()
            }
        );
    }
    Ok(())
}

/// `--serve` / `--soak`: run the multi-tenant serving layer over a pool
/// of simulated workers, with the selected benchmark as the hot kernel.
/// The single-offload fault knobs (`--ber`, `--drop-rate`, `--hang-rate`,
/// …) arm per-worker chaos injection; `--soak` adds scripted disruption
/// phases (tenant bursts, a worker blackout, residency churn) and
/// cross-checks every accounting invariant of the resulting report.
#[allow(clippy::too_many_lines)]
fn run_serve(
    args: &Args,
    hot: ulp_kernels::Benchmark,
    cfg: &HetSystemConfig,
    policy: OffloadPolicy,
    soak: bool,
) -> Result<(), String> {
    use ulp_kernels::Benchmark;
    use ulp_serve::{
        fmt_ms, BatchPolicy, Blackout, Burst, ChaosConfig, CostBook, FaultProfile, PowerPolicy,
        ServePool, SoakSpec, TenantLoad, TenantSpec, WorkloadSpec,
    };

    let mode = if soak { "--soak" } else { "--serve" };
    if cfg.fault.stuck_eoc || cfg.fault.stuck_fetch_enable {
        return Err(format!(
            "--stuck-eoc / --stuck-fetch-enable model a permanently wedged wire and cannot \
             apply to {mode}: the pool would simply never schedule that worker. Script a \
             finite outage with {mode}'s --blackout-ms instead."
        ));
    }

    let serve_cfg = pool_config(args)?;
    let pool = serve_cfg.pool;
    let seed = args.get_usize("serve-seed", 42)? as u64;
    let duration_ms = args.get_usize("duration-ms", 1000)?.max(1);
    let n_tenants = args.get_usize("tenants", 2)?.max(1);

    // The single-offload fault knobs translate directly into a uniform
    // per-worker chaos profile on the pool's virtual clock.
    let profile = FaultProfile {
        bit_error_rate: cfg.fault.bit_error_rate,
        drop_rate: cfg.fault.drop_rate,
        truncate_rate: cfg.fault.truncate_rate,
        hang_rate: cfg.fault.hang_rate,
        late_eoc_rate: cfg.fault.late_eoc_rate,
        late_eoc_cycles: cfg.fault.late_eoc_cycles,
    };
    let chaos = ChaosConfig {
        seed: cfg.fault.seed,
        profiles: vec![profile],
        policy,
    };

    let (trace_file, tracer) = trace_setup(args)?;

    let env = ulp_offload::cluster_env(cfg);
    let book = if chaos.is_active() && policy.fallback_to_host {
        CostBook::measure_with_host(&env, &ulp_offload::host_env(cfg), cfg, &Benchmark::ALL)
    } else {
        CostBook::measure(&env, cfg, &Benchmark::ALL)
    }
    .map_err(|e| format!("cost book: {e}"))?;
    let (mix, mean_ns) = hot_mix(hot, &book);
    // Offered load sized to keep the pool saturated, split evenly.
    let rate = 1.5 * pool as f64 * 1e9 / mean_ns;

    let tenants: Vec<TenantSpec> = (0..n_tenants)
        .map(|i| {
            let mut t = if i == 0 {
                TenantSpec::weighted("app", 2)
            } else {
                TenantSpec::new(&format!("bg{i}"))
            };
            t.queue_cap = 256;
            t
        })
        .collect();
    let workload = WorkloadSpec {
        seed,
        duration_ns: duration_ms as u64 * 1_000_000,
        tenants: tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| TenantLoad {
                spec: spec.clone(),
                rate_rps: rate / n_tenants as f64,
                kernel_mix: mix.clone(),
                class_mix: if i == 0 {
                    [0.3, 0.6, 0.1]
                } else {
                    [0.0, 0.6, 0.4]
                },
                iterations: 1,
            })
            .collect(),
    };

    let duration_ns = duration_ms as u64 * 1_000_000;
    let (report, offered, violations) = if soak {
        // Scripted disruption phases: a flash crowd on the app tenant, a
        // mid-run blackout of worker 0, and periodic residency churn.
        let burst_factor = args.get_f64("burst-factor", 100.0)?;
        let blackout_ms = args.get_usize("blackout-ms", duration_ms / 10)? as u64;
        let churn_ms = args.get_usize("churn-ms", duration_ms / 4)? as u64;
        let spec = SoakSpec {
            workload,
            bursts: vec![Burst {
                tenant: 0,
                start_ns: duration_ns * 2 / 5,
                end_ns: duration_ns * 9 / 20,
                factor: burst_factor,
            }],
            blackouts: if blackout_ms > 0 {
                vec![Blackout {
                    worker: 0,
                    start_ns: duration_ns / 2,
                    end_ns: duration_ns / 2 + blackout_ms * 1_000_000,
                }]
            } else {
                Vec::new()
            },
            churn_period_ns: churn_ms * 1_000_000,
            chaos,
            serve: serve_cfg,
        };
        let out = ulp_serve::run_soak(cfg, book, &spec)?;
        (out.report, out.requests, out.violations)
    } else {
        let requests = workload.generate();
        let mut serve_pool = ServePool::new(cfg, tenants, book, serve_cfg)
            .with_chaos(chaos)
            .with_tracer(tracer.clone());
        let report = serve_pool.run(&requests).map_err(|e| e.to_string())?;
        (report, requests.len() as u64, Vec::new())
    };

    println!(
        "{}     : hot kernel {}, pool {pool}, {} dispatch{}, {} tenants, seed {seed}",
        if soak { "soak " } else { "serve" },
        hot.name(),
        match serve_cfg.policy {
            BatchPolicy::Serial => "serial".to_owned(),
            BatchPolicy::KernelAware { max_batch } => format!("batched (max {max_batch})"),
        },
        if serve_cfg.fair {
            ", weighted-fair"
        } else {
            ", FIFO"
        },
        n_tenants,
    );
    println!(
        "load      : {offered} requests over {duration_ms} ms of virtual time ({rate:.1} rps base)"
    );
    println!(
        "\nserved    : {} completed, {} rejected, {} failed over, {} failed, {} deadline misses",
        report.completed,
        report.rejected,
        report.failed_over,
        report.failed,
        report.deadline_misses
    );
    println!(
        "throughput: {:.1} rps over {} ms makespan",
        report.throughput_rps(),
        fmt_ms(report.makespan_ns)
    );
    println!(
        "batching  : mean batch {:.2}, {} binary uploads, max queue depth {}",
        report.mean_batch(),
        report.uploads,
        report.max_queue_depth
    );
    println!(
        "latency   : p50 {} ms, p95 {} ms, p99 {} ms",
        fmt_ms(report.latency.p50_ns),
        fmt_ms(report.latency.p95_ns),
        fmt_ms(report.latency.p99_ns)
    );
    println!(
        "pool      : utilization {:.1}%  busy ms per worker: {}",
        report.utilization() * 100.0,
        report
            .worker_busy_ns
            .iter()
            .map(|&ns| fmt_ms(ns))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "energy    : {:.3} mJ total, {:.2} uJ per completed request",
        report.energy_joules * 1e3,
        report.joules_per_request() * 1e6
    );
    if let Some(power) = serve_cfg.power {
        let residency: Vec<String> = PowerPolicy::ladder(cfg.pulp_vdd)
            .iter()
            .zip(report.op_residency_ns.iter())
            .map(|(vdd, &ns)| format!("{vdd:.2} V {} ms", fmt_ms(ns)))
            .collect();
        println!(
            "governor  : budget {:.1} mW, {} transitions, residency: {}",
            power.budget_w * 1e3,
            report.power_events.len(),
            residency.join(", ")
        );
    }
    println!("\nper tenant:");
    println!(
        "  {:<8} {:>6} {:>9} {:>10} {:>10} {:>10} {:>8} {:>7}",
        "name", "weight", "completed", "p50 ms", "p95 ms", "p99 ms", "rejected", "misses"
    );
    for t in &report.tenants {
        println!(
            "  {:<8} {:>6} {:>9} {:>10} {:>10} {:>10} {:>8} {:>7}",
            t.name,
            t.weight,
            t.latency.count,
            fmt_ms(t.latency.p50_ns),
            fmt_ms(t.latency.p95_ns),
            fmt_ms(t.latency.p99_ns),
            t.rejected,
            t.deadline_misses
        );
    }

    if report.chaos.any() {
        let c = &report.chaos;
        println!("\nchaos (seed {}):", cfg.fault.seed);
        println!(
            "  link      : {} frames, {} damaged, {} bits flipped, {} crc escapes",
            c.frames, c.frames_damaged, c.bits_flipped, c.crc_escapes
        );
        println!(
            "  recovery  : {} retransmissions, {} watchdog fires, {} late events",
            c.retransmissions, c.watchdog_fires, c.late_events
        );
        println!(
            "  fallback  : {} batches / {} requests to host, {} requests failed",
            c.fallback_batches, c.fallback_requests, c.failed_requests
        );
        println!(
            "  timeline  : {} residency flushes, {} blackout stalls",
            c.residency_flushes, c.blackout_windows
        );
        println!("\nSLO ledger (tenant x class: finished/missed):");
        for (ti, row) in report.slo.cells.iter().enumerate() {
            let cells: Vec<String> = ulp_serve::DeadlineClass::ALL
                .iter()
                .zip(row.iter())
                .map(|(cl, cell)| {
                    format!(
                        "{} {}/{}",
                        cl.name(),
                        cell.completed + cell.failed_over,
                        cell.missed
                    )
                })
                .collect();
            println!("  {:<8} {}", report.tenants[ti].name, cells.join("  "));
        }
    }

    if soak {
        if violations.is_empty() {
            println!(
                "\ninvariants: OK — {} requests conserved, ledger exact, no queue leaks",
                offered
            );
        } else {
            for v in &violations {
                eprintln!("invariant VIOLATION: {v}");
            }
            return Err(format!(
                "{} invariant violation(s) in soak seed {seed}",
                violations.len()
            ));
        }
    }

    if args.has("counters") {
        println!("\nper-worker utilization counters:");
        print!("{}", tracer.counters_table());
    }
    if let Some(path) = trace_file {
        let json = tracer.chrome_json();
        std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\ntrace     : {} events → {path}", tracer.events().len());
    }
    Ok(())
}

/// `--fleet`: shard tenants across node groups and serve the stream
/// through per-group pools, optionally autoscaled (`--autoscale` grows
/// and shrinks each group between `--pool` and `--max-pool` workers
/// against queue depth and tail latency). `--record-trace` captures the
/// offered request stream to the versioned trace format (`.json` for
/// the JSON encoding, anything else binary); `--replay-trace` serves a
/// previously recorded trace instead of generating a workload, so two
/// fleet configurations can be compared on a byte-identical stream.
#[allow(clippy::too_many_lines)]
fn run_fleet(
    args: &Args,
    hot: ulp_kernels::Benchmark,
    cfg: &HetSystemConfig,
) -> Result<(), String> {
    use ulp_kernels::Benchmark;
    use ulp_serve::{
        fmt_ms, render_scale_log, AutoscalePolicy, CostBook, Fleet, FleetConfig, ServeConfig,
        TenantLoad, TenantSpec, TraceRecorder, TraceReplayer, WorkloadSpec,
    };

    if cfg.fault.is_active() {
        return Err(
            "--fleet shards tenants across independent node groups and does not arm \
             chaos injection; use --serve/--soak for fault studies"
                .to_owned(),
        );
    }

    let groups = args.get_usize("groups", 2)?.max(1);
    let base_cfg = pool_config(args)?;
    let pool = base_cfg.pool;
    let max_pool = args.get_usize("max-pool", pool * 4)?.max(pool);
    let seed = args.get_usize("serve-seed", 42)? as u64;
    let duration_ms = args.get_usize("duration-ms", 1000)?.max(1);
    let n_tenants = args.get_usize("tenants", groups * 4)?.max(1);
    let autoscale = args.has("autoscale");

    let env = ulp_offload::cluster_env(cfg);
    let book =
        CostBook::measure(&env, cfg, &Benchmark::ALL).map_err(|e| format!("cost book: {e}"))?;

    let tenants: Vec<TenantSpec> = (0..n_tenants)
        .map(|i| {
            let mut t = TenantSpec::new(&format!("tenant-{i}"));
            t.queue_cap = 256;
            t
        })
        .collect();

    let requests = if let Some(path) = args.get("replay-trace") {
        let bytes =
            std::fs::read(path).map_err(|e| format!("--replay-trace: cannot read {path}: {e}"))?;
        let replay =
            TraceReplayer::decode(&bytes).map_err(|e| format!("--replay-trace: {path}: {e}"))?;
        let max_tenant = replay.requests().iter().map(|r| r.tenant).max();
        if let Some(m) = max_tenant {
            if m >= tenants.len() {
                return Err(format!(
                    "--replay-trace: trace names tenant {m} but only {} tenants are \
                     configured; raise --tenants above {m}",
                    tenants.len(),
                ));
            }
        }
        println!(
            "replay    : {} requests from {path}",
            replay.requests().len()
        );
        replay.into_requests()
    } else {
        let (mix, mean_ns) = hot_mix(hot, &book);
        // Offered load sized against the configured per-group floor.
        let rate = 1.5 * (groups * pool) as f64 * 1e9 / mean_ns;
        let workload = WorkloadSpec {
            seed,
            duration_ns: duration_ms as u64 * 1_000_000,
            tenants: tenants
                .iter()
                .map(|spec| TenantLoad {
                    spec: spec.clone(),
                    rate_rps: rate / n_tenants as f64,
                    kernel_mix: mix.clone(),
                    class_mix: [0.3, 0.5, 0.2],
                    iterations: 1,
                })
                .collect(),
        };
        workload.generate()
    };

    if let Some(path) = args.get("record-trace") {
        let mut rec = TraceRecorder::new();
        rec.record_all(&requests);
        let bytes = if path.ends_with(".json") {
            rec.encode_json().into_bytes()
        } else {
            rec.encode()
        };
        std::fs::write(path, &bytes)
            .map_err(|e| format!("--record-trace: cannot write {path}: {e}"))?;
        println!(
            "trace     : recorded {} requests ({} bytes) -> {path}",
            requests.len(),
            bytes.len()
        );
    }

    let serve_cfg = ServeConfig {
        autoscale: autoscale.then(|| AutoscalePolicy::new(pool, max_pool)),
        admission_pricing: autoscale,
        ..base_cfg
    };
    let fleet = Fleet::new(
        cfg,
        tenants.clone(),
        book,
        FleetConfig {
            groups,
            serve: serve_cfg,
        },
    );
    let report = fleet.run(&requests).map_err(|e| e.to_string())?;

    println!(
        "fleet     : hot kernel {}, {groups} groups x {} workers, {} tenants, seed {seed}",
        hot.name(),
        if autoscale {
            format!("{pool}-{max_pool} (autoscaled)")
        } else {
            format!("{pool}")
        },
        n_tenants,
    );
    println!("load      : {} requests offered", report.offered);
    println!(
        "served    : {} completed, {} rejected ({} priced out), {} failed, {} deadline misses",
        report.completed(),
        report.rejected(),
        report.priced_out(),
        report.failed(),
        report.deadline_misses()
    );
    println!(
        "throughput: {:.1} rps over {} ms makespan, utilization {:.1}%",
        report.throughput_rps(),
        fmt_ms(report.makespan_ns),
        report.utilization() * 100.0
    );
    println!(
        "latency   : p50 {} ms, p95 {} ms, p99 {} ms",
        fmt_ms(report.latency.p50_ns),
        fmt_ms(report.latency.p95_ns),
        fmt_ms(report.latency.p99_ns)
    );
    let fleet_energy: f64 = report.groups.iter().map(|g| g.report.energy_joules).sum();
    println!(
        "energy    : {:.3} mJ across {groups} groups{}",
        fleet_energy * 1e3,
        if serve_cfg.power.is_some() {
            let transitions: usize = report
                .groups
                .iter()
                .map(|g| g.report.power_events.len())
                .sum();
            format!(" ({transitions} governor transitions)")
        } else {
            String::new()
        }
    );
    println!("\nper group:");
    println!(
        "  {:<6} {:>7} {:>9} {:>9} {:>8} {:>10}",
        "group", "tenants", "offered", "completed", "rejected", "p99 ms"
    );
    for g in &report.groups {
        println!(
            "  {:<6} {:>7} {:>9} {:>9} {:>8} {:>10}",
            g.group,
            g.tenants.len(),
            g.offered,
            g.report.completed,
            g.report.rejected,
            fmt_ms(g.report.latency.p99_ns)
        );
    }
    if autoscale {
        println!(
            "\nautoscaler: {} ups, {} downs",
            report.scale_ups(),
            report.scale_downs()
        );
        print!("{}", render_scale_log(&report.scale_events));
    }

    let violations = ulp_serve::invariants::check_fleet(&report);
    if violations.is_empty() {
        println!(
            "\ninvariants: OK — {} requests conserved across {groups} groups",
            report.offered
        );
        Ok(())
    } else {
        for v in &violations {
            eprintln!("invariant VIOLATION: {v}");
        }
        Err(format!(
            "{} fleet invariant violation(s) at seed {seed}",
            violations.len()
        ))
    }
}

/// The pool flags `--serve`, `--soak` and `--fleet` share: `--pool`,
/// `--max-batch`, `--serial`, `--no-fair`, and `--power-budget MW`. The
/// budget arms the DVFS governor: the pool steps the cluster supply down
/// the operating-point ladder whenever a window's platform power exceeds
/// the budget, and back up when there is headroom, degrading service
/// speed before shedding load. In a fleet each node group runs its own
/// governor against the same per-cluster envelope.
fn pool_config(args: &Args) -> Result<ulp_serve::ServeConfig, String> {
    use ulp_serve::{BatchPolicy, PowerPolicy, ServeConfig};
    let max_batch = args.get_usize("max-batch", 8)?.max(1);
    Ok(ServeConfig {
        pool: args.get_usize("pool", 2)?.max(1),
        policy: if args.has("serial") {
            BatchPolicy::Serial
        } else {
            BatchPolicy::KernelAware { max_batch }
        },
        fair: !args.has("no-fair"),
        power: if args.has("power-budget") {
            Some(PowerPolicy {
                budget_w: args.get_f64("power-budget", 5.0)? * 1e-3,
            })
        } else {
            None
        },
        ..ServeConfig::default()
    })
}

/// The `--serve`/`--fleet` kernel mix — `hot` at weight 9, every other
/// paper kernel at 1 — and its mean serialized one-iteration cost, ns.
fn hot_mix(
    hot: ulp_kernels::Benchmark,
    book: &ulp_serve::CostBook,
) -> (Vec<(ulp_kernels::Benchmark, f64)>, f64) {
    let mix: Vec<_> = ulp_kernels::Benchmark::ALL
        .iter()
        .map(|&b| (b, if b == hot { 9.0 } else { 1.0 }))
        .collect();
    let mix_total: f64 = mix.iter().map(|(_, w)| *w).sum();
    let mean_ns = mix
        .iter()
        .map(|&(b, w)| book.est_ns(b, 1) as f64 * w / mix_total)
        .sum();
    (mix, mean_ns)
}

/// The `--trace FILE` / `--counters` set-up the offload and serving modes
/// share: a tracer keeping `--trace-cap` events per component (at least
/// one) when either flag asks for one, and the trace path probed up front.
fn trace_setup(args: &Args) -> Result<(Option<String>, Tracer), String> {
    let trace_file = args.get("trace").map(str::to_owned);
    let tracer = if trace_file.is_some() || args.has("counters") {
        match args.get_usize("trace-cap", ulp_trace::DEFAULT_RING_CAP)? {
            0 => return Err("--trace-cap: must be at least 1 event".into()),
            cap => Tracer::with_capacity(cap),
        }
    } else {
        Tracer::disabled()
    };
    if let Some(path) = &trace_file {
        probe_trace_path(path)?;
    }
    Ok((trace_file, tracer))
}

/// Probes a `--trace` output path up front, before any simulation runs: a
/// long run whose trace cannot be written at the very end is pure waste.
/// On success an empty placeholder file is left behind; the real trace
/// overwrites it. On failure the error carries the path and the OS cause.
fn probe_trace_path(path: &str) -> Result<(), String> {
    std::fs::write(path, b"").map_err(|e| {
        format!("--trace: cannot write {path}: {e} (checked before simulating, nothing was run)")
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("het-sim: {e}");
            ExitCode::FAILURE
        }
    }
}
