//! Differential battery for the pipelined offload engine: across >1k
//! seeded random configurations, the pipelined prediction must be
//! **bit-identical** to the serialized one in every phase and energy
//! field, never slower end to end, internally consistent in its overlap
//! accounting, and deterministic run to run. A smaller set of *full*
//! offloads (cluster simulation, real link bytes) rides along: the
//! runtime verifies every output buffer against the golden reference, so
//! a passing offload **is** the bit-identical-results proof.
//!
//! The dispatch price (`HetSystem::price_job`) rides along too: on every
//! battery draw and on a deterministic sweep of the serving layer's
//! dispatch shapes it must equal the one-job `plan_queue` bit for bit.

use het_accel::prelude::*;
use ulp_offload::{LinkClocking, OffloadCost, PlannedJob};
use ulp_rng::XorShiftRng;

/// Kernels the battery samples from: three matmul sizes plus two
/// shaped-differently benchmarks (SVM: big read-mostly model; CNN:
/// image in, small maps out). Costs are measured once on the default
/// platform — the cycle counts and byte totals they carry do not depend
/// on the host/link parameters the battery varies.
fn kernel_costs() -> Vec<(String, OffloadCost)> {
    let env = TargetEnv::pulp_parallel();
    let mut builds: Vec<ulp_kernels::KernelBuild> = [8usize, 16, 32]
        .iter()
        .map(|&n| ulp_kernels::matmul::build_sized(ulp_kernels::matmul::MatVariant::Char, &env, n))
        .collect();
    builds.push(Benchmark::SvmLinear.build(&env));
    builds.push(Benchmark::CnnApprox.build(&env));
    let mut sys = HetSystem::new(HetSystemConfig::default());
    builds
        .into_iter()
        .map(|b| {
            let cost = sys
                .measure_cost(&b)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            (b.name, cost)
        })
        .collect()
}

/// One random platform + offload-options draw.
fn sample(rng: &mut XorShiftRng) -> (HetSystemConfig, OffloadOptions, OffloadOptions) {
    let mcu_freq_hz = [8.0e6, 16.0e6, 32.0e6, 48.0e6][rng.gen_range(0usize..4)];
    let cfg = HetSystemConfig {
        mcu_freq_hz,
        link_width: if rng.gen_bool(0.5) {
            SpiWidth::Quad
        } else {
            SpiWidth::Single
        },
        link_prescaler: [2u32, 4, 8][rng.gen_range(0usize..3)],
        link_clocking: match rng.gen_range(0u32..3) {
            0 => LinkClocking::McuDivided,
            1 => LinkClocking::BoostedMcu { mcu_hz: 48.0e6 },
            _ => LinkClocking::Independent { spi_hz: 25.0e6 },
        },
        ..HetSystemConfig::default()
    };
    let serialized = OffloadOptions {
        iterations: rng.gen_range(1usize..=8),
        double_buffer: rng.gen_bool(0.5),
        sensor_direct: rng.gen_bool(0.2),
        ..OffloadOptions::default()
    };
    // log-uniform chunk size in [32, 4096]
    let chunk_bytes = 1usize << rng.gen_range(5u32..=12);
    let pipelined = OffloadOptions {
        pipeline: PipelineConfig {
            enabled: true,
            chunk_bytes: chunk_bytes + rng.gen_range(0usize..chunk_bytes),
            window: rng.gen_range(1usize..=8),
        },
        ..serialized
    };
    (cfg, serialized, pipelined)
}

fn assert_phases_bit_identical(s: &OffloadReport, p: &OffloadReport, ctx: &str) {
    for (name, a, b) in [
        ("binary_seconds", s.binary_seconds, p.binary_seconds),
        ("input_seconds", s.input_seconds, p.input_seconds),
        ("output_seconds", s.output_seconds, p.output_seconds),
        ("compute_seconds", s.compute_seconds, p.compute_seconds),
        ("sync_seconds", s.sync_seconds, p.sync_seconds),
        (
            "mcu_energy_joules",
            s.mcu_energy_joules,
            p.mcu_energy_joules,
        ),
        (
            "pulp_energy_joules",
            s.pulp_energy_joules,
            p.pulp_energy_joules,
        ),
        (
            "link_energy_joules",
            s.link_energy_joules,
            p.link_energy_joules,
        ),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: {name} drifted ({a} vs {b})"
        );
    }
    assert_eq!(s.iterations, p.iterations, "{ctx}");
    assert_eq!(s.cycles_cold, p.cycles_cold, "{ctx}");
    assert_eq!(s.cycles_warm, p.cycles_warm, "{ctx}");
}

/// `price_job` reports exactly what a one-job `plan_queue` does: the
/// queue total, the job's compute seconds and its total energy.
fn assert_price_is_the_plan(
    sys: &HetSystem,
    cost: &OffloadCost,
    opts: &OffloadOptions,
    ship_binary: bool,
    ctx: &str,
) {
    let job = PlannedJob {
        cost,
        opts: *opts,
        ship_binary,
    };
    let plan = sys.plan_queue(&[job], opts.pipeline);
    let price = sys.price_job(&job, opts.pipeline);
    for (name, a, b) in [
        ("total_seconds", plan.total_seconds, price.total_seconds),
        (
            "compute_seconds",
            plan.reports[0].compute_seconds,
            price.compute_seconds,
        ),
        (
            "energy_joules",
            plan.reports[0].total_energy_joules(),
            price.energy_joules,
        ),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: price_job {name} drifted from plan_queue ({a} vs {b})"
        );
    }
}

/// Seed of the prediction battery stream.
const BATTERY_SEED: u64 = 0x00D1_FFE6;

/// The battery: 1200 seeded configurations per unit of
/// `ULP_BATTERY_SCALE` (default 1; the nightly CI job raises it) through
/// `predict`, serialized vs pipelined. A failing case appends its
/// reproduction line to `target/battery-failures/` before panicking.
#[test]
fn pipelined_predictions_differ_only_in_overlap_across_1200_configs() {
    let scale = ulp_par::battery_scale();
    let cases = 1200 * scale;
    let costs = kernel_costs();
    let mut rng = XorShiftRng::seed_from_u64(BATTERY_SEED);
    let mut engaged = 0usize;
    for case in 0..cases {
        let (name, cost) = &costs[rng.gen_range(0..costs.len())];
        let (cfg, opts_s, opts_p) = sample(&mut rng);
        let include_binary = rng.gen_bool(0.8);
        let sys = HetSystem::new(cfg);
        let s = sys.predict(cost, &opts_s, include_binary);
        let p = sys.predict(cost, &opts_p, include_binary);
        let ctx = format!(
            "case {case} ({name}, chunk {} B, window {}, iters {})",
            opts_p.pipeline.chunk_bytes, opts_p.pipeline.window, opts_p.iterations
        );
        let repro = format!(
            "pipelined_predictions_differ_only_in_overlap_across_1200_configs: \
             seed={BATTERY_SEED:#x} case={case} ULP_BATTERY_SCALE={scale}"
        );

        ulp_par::battery_case("pipeline_differential", &repro, || {
            // Identical ledger, modulo the one field pipelining may grow.
            assert_phases_bit_identical(&s, &p, &ctx);
            assert!(
                p.overlapped_seconds >= s.overlapped_seconds,
                "{ctx}: pipelining shrank the hidden time ({} < {})",
                p.overlapped_seconds,
                s.overlapped_seconds
            );
            // Modeled cycles never exceed the serialized schedule.
            assert!(
                p.total_seconds() <= s.total_seconds() * (1.0 + 1e-12),
                "{ctx}: pipelined {} > serialized {}",
                p.total_seconds(),
                s.total_seconds()
            );
            // The engine's own concurrency ledger reconciles.
            p.overlap.check().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(
                s.overlap == Overlap::default(),
                "{ctx}: serialized run grew overlap counters"
            );
            if p.overlap.engaged {
                assert!(p.overlap.chunks > 0, "{ctx}: engaged without chunks");
                assert!(
                    p.overlap.hidden_ns() > 0,
                    "{ctx}: engaged without concurrency"
                );
            }

            // Determinism: the same prediction twice is bit-identical.
            let p2 = sys.predict(cost, &opts_p, include_binary);
            assert_eq!(
                p.total_seconds().to_bits(),
                p2.total_seconds().to_bits(),
                "{ctx}"
            );
            assert_eq!(
                p.overlapped_seconds.to_bits(),
                p2.overlapped_seconds.to_bits(),
                "{ctx}"
            );
            assert!(
                p.overlap == p2.overlap,
                "{ctx}: overlap counters nondeterministic"
            );

            // The dispatch price is the one-job queue plan, bit for bit.
            for opts in [&opts_s, &opts_p] {
                assert_price_is_the_plan(&sys, cost, opts, include_binary, &ctx);
            }
        });
        if p.overlap.engaged {
            engaged += 1;
        }
    }
    // The battery must actually exercise the engine, not trivially pass
    // with every schedule rejected.
    assert!(
        engaged * 4 > cases,
        "engine engaged in only {engaged}/{cases} configs"
    );
}

/// The serving layer's dispatch shapes, past the battery's 8 iterations:
/// every Table I kernel, fused iterations 1..=64, binary shipped or
/// resident, default pipeline, default platform. Then every option flag
/// `plan_queue` honours (legacy double buffering, sensor-direct inputs,
/// a host task) with the pipeline on and off, so `price_job` is pinned
/// on every job shape `plan_queue` takes.
#[test]
fn price_job_equals_plan_queue_over_table1_kernels_and_64_iterations() {
    let env = TargetEnv::pulp_parallel();
    let mut sys = HetSystem::new(HetSystemConfig::default());
    for b in Benchmark::ALL {
        let cost = sys
            .measure_cost(&b.build(&env))
            .unwrap_or_else(|e| panic!("{b}: {e}"));
        for iterations in 1..=64 {
            for ship in [true, false] {
                let opts = OffloadOptions {
                    iterations,
                    pipeline: PipelineConfig::enabled(),
                    ..OffloadOptions::default()
                };
                let ctx = format!("{b} x{iterations} ship={ship}");
                assert_price_is_the_plan(&sys, &cost, &opts, ship, &ctx);
            }
        }
        for flags in 0..16u32 {
            let opts = OffloadOptions {
                iterations: 5,
                double_buffer: flags & 1 != 0,
                sensor_direct: flags & 2 != 0,
                host_task: flags & 4 != 0,
                pipeline: PipelineConfig {
                    enabled: flags & 8 != 0,
                    ..PipelineConfig::default()
                },
                ..OffloadOptions::default()
            };
            let ctx = format!("{b} flags={flags:#06b}");
            assert_price_is_the_plan(&sys, &cost, &opts, true, &ctx);
        }
    }
}

/// The whole battery replays bit-identically from its seed: running it
/// twice produces the same totals, so any failure above reproduces.
#[test]
fn the_battery_itself_is_deterministic() {
    let costs = kernel_costs();
    let run = || {
        let mut rng = XorShiftRng::seed_from_u64(0x5EED);
        let mut acc: u64 = 0;
        for _ in 0..64 {
            let (_, cost) = &costs[rng.gen_range(0..costs.len())];
            let (cfg, _, opts_p) = sample(&mut rng);
            let p = HetSystem::new(cfg).predict(cost, &opts_p, true);
            acc = acc
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(p.total_seconds().to_bits())
                .wrapping_add(p.overlap.hidden_ns());
        }
        acc
    };
    assert_eq!(run(), run(), "battery digest diverged between runs");
}

/// Full offloads with pipelining on: the cluster really executes, real
/// frames cross the link, and the runtime verifies every output buffer
/// against the golden reference — so success here proves the pipelined
/// path produces bit-identical results, not just bit-identical ledgers.
#[test]
fn full_offloads_stay_bit_identical_with_pipelining_on() {
    for b in [
        Benchmark::MatMulFixed,
        Benchmark::SvmRbf,
        Benchmark::CnnApprox,
    ] {
        let build = b.build(&TargetEnv::pulp_parallel());
        let mut serial_sys = HetSystem::new(HetSystemConfig::default());
        let serial = serial_sys
            .offload(
                &build,
                &OffloadOptions {
                    iterations: 4,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{b}: {e}"));
        let mut pipe_sys = HetSystem::new(HetSystemConfig::default());
        let pipelined = pipe_sys
            .offload(
                &build,
                &OffloadOptions {
                    iterations: 4,
                    pipeline: PipelineConfig::enabled(),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{b} (pipelined): {e}"));

        let ctx = format!("{b}");
        assert_phases_bit_identical(&serial, &pipelined, &ctx);
        assert!(
            pipelined.total_seconds() <= serial.total_seconds() * (1.0 + 1e-12),
            "{ctx}"
        );
        pipelined
            .overlap
            .check()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        // The chunked transfer moves the same payload bytes; only frame
        // headers multiply (one per chunk instead of one per buffer).
        let (s_stats, p_stats) = (serial_sys.link_stats(), pipe_sys.link_stats());
        assert!(
            p_stats.bytes_tx >= s_stats.bytes_tx,
            "{ctx}: chunking lost payload bytes"
        );
        assert!(p_stats.bytes_rx >= s_stats.bytes_rx, "{ctx}");
    }
}
