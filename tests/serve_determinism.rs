//! Seeded-determinism and fairness regressions for the serving layer.
//!
//! The serving layer's claim is that everything it reports is a pure
//! function of the workload seed: the committed `BENCH_serve.json` must
//! re-render byte-identically on any machine and under any `--jobs`
//! setting, and the weighted-fair scheduler must protect a background
//! tenant from a hot tenant at 10× its offered load.

use ulp_kernels::Benchmark;
use ulp_offload::{HetSystemConfig, OffloadPolicy, PipelineConfig};
use ulp_serve::{
    BatchPolicy, CostBook, ServeConfig, ServePool, TenantLoad, TenantSpec, WorkloadSpec,
};

/// The committed artifact and the golden table must both re-render
/// byte-identically whether the study simulates serially (`--jobs 1`)
/// or in parallel (`--jobs 4`): `par_map` is order-preserving and every
/// scheduling decision lives on the virtual clock.
#[test]
fn bench_serve_json_is_byte_identical_across_jobs() {
    ulp_par::set_jobs(Some(1));
    let serial_cells = ulp_bench::serve::study();
    ulp_par::set_jobs(Some(4));
    let parallel_cells = ulp_bench::serve::study();
    ulp_par::set_jobs(None);

    let json_1 = ulp_bench::serve::render_json(&serial_cells);
    let json_4 = ulp_bench::serve::render_json(&parallel_cells);
    assert_eq!(json_1, json_4, "BENCH_serve.json must not depend on --jobs");
    assert_eq!(
        json_1,
        include_str!("../BENCH_serve.json"),
        "committed BENCH_serve.json is stale; regenerate with \
         `cargo run --release -p ulp-bench --bin serve -- --json BENCH_serve.json`"
    );
    assert_eq!(
        ulp_bench::serve::render_table(&serial_cells),
        include_str!("golden/serve_table.txt"),
        "golden serve table is stale; regenerate with \
         `cargo run --release -p ulp-bench --bin serve > tests/golden/serve_table.txt`"
    );
}

/// The acceptance claim of the study itself: at the largest pool size,
/// kernel-aware batching beats serial per-request dispatch by ≥ 1.5×
/// throughput on at least half the paper benchmarks.
#[test]
fn batching_beats_serial_on_at_least_five_benchmarks() {
    let cells = ulp_bench::serve::study();
    let top = *ulp_bench::serve::POOLS.last().unwrap();
    let wins = cells
        .iter()
        .filter(|c| c.pool == top && c.speedup() >= 1.5)
        .count();
    assert!(
        wins >= 5,
        "only {wins}/10 benchmarks at >= 1.5x, pool {top}"
    );
}

/// Fairness regression: a hot tenant offering 10× the background
/// tenant's load must not push the background tenant's p99 past what
/// the pre-serving-layer runtime — serial per-request FIFO dispatch
/// with no tenant isolation — would have given it under the identical
/// request stream.
#[test]
fn hot_tenant_cannot_starve_background_past_serial_baseline() {
    let kernels = [Benchmark::MatMul, Benchmark::Cnn, Benchmark::SvmLinear];
    let config = HetSystemConfig::default();
    let book = CostBook::measure(&ulp_kernels::TargetEnv::pulp_parallel(), &config, &kernels)
        .expect("cost book");

    let mut bg = TenantSpec::new("bg");
    bg.queue_cap = 1024;
    let mut hot = TenantSpec::new("hot");
    hot.queue_cap = 1024;

    // Saturating mix: hot at 10× the background's offered load, enough
    // combined to overload the 2-worker pool so queueing discipline is
    // what decides the background tenant's latency.
    let mean_ns: f64 = kernels
        .iter()
        .map(|&b| book.est_ns(b, 1) as f64)
        .sum::<f64>()
        / kernels.len() as f64;
    let capacity_rps = 2.0 * 1e9 / mean_ns;
    let bg_rate = capacity_rps * 0.15;
    let workload = WorkloadSpec {
        seed: 77,
        duration_ns: 2_000_000_000,
        tenants: vec![
            TenantLoad::uniform(bg.clone(), bg_rate, &kernels),
            TenantLoad::uniform(hot.clone(), bg_rate * 10.0, &kernels),
        ],
    };
    let requests = workload.generate();
    let tenants = vec![bg, hot];

    let mut serving = ServePool::new(
        &config,
        tenants.clone(),
        book.clone(),
        ServeConfig {
            pool: 2,
            ..ServeConfig::default()
        },
    );
    let mut legacy = ServePool::new(
        &config,
        tenants,
        book,
        ServeConfig {
            pool: 2,
            policy: BatchPolicy::Serial,
            fair: false,
            pipeline: PipelineConfig::default(),
            ..ServeConfig::default()
        },
    );
    let fair = serving.run(&requests).expect("serving pool must run");
    let fifo = legacy.run(&requests).expect("legacy pool must run");

    let bg_fair = &fair.tenants[0];
    let bg_fifo = &fifo.tenants[0];
    assert!(bg_fair.latency.count > 0 && bg_fifo.latency.count > 0);
    assert!(
        bg_fair.latency.p99_ns <= bg_fifo.latency.p99_ns,
        "background p99 under the serving layer ({} ns) exceeds its \
         serial-FIFO baseline ({} ns) despite the 10x hot tenant",
        bg_fair.latency.p99_ns,
        bg_fifo.latency.p99_ns
    );
    // The hot tenant is throttled to its share, not starved out.
    assert!(fair.tenants[1].latency.count > 0);
}

/// FNV-1a over a sequence of `u64` words (little-endian bytes).
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Plain-text summary of one run: conservation counts, makespan,
/// uploads, the batch histogram, per-tenant figures, and a hash of
/// every outcome record in outcome order.
fn fifo_summary(label: &str, offered: usize, r: &ulp_serve::ServeReport) -> String {
    use ulp_serve::OutcomeKind;
    let mut out = format!(
        "{label}: offered {offered} admitted {} completed {} rejected {} failed_over {} \
         failed {} stranded {} misses {}\n  makespan_ns {} uploads {} batch_hist {:?}\n",
        r.admitted,
        r.completed,
        r.rejected,
        r.failed_over,
        r.failed,
        r.stranded,
        r.deadline_misses,
        r.makespan_ns,
        r.uploads,
        r.batch_hist,
    );
    for t in &r.tenants {
        out.push_str(&format!(
            "  {} w{}: count {} p50 {} p95 {} p99 {} mean {} rejected {} misses {} \
             failed_over {} failed {}\n",
            t.name,
            t.weight,
            t.latency.count,
            t.latency.p50_ns,
            t.latency.p95_ns,
            t.latency.p99_ns,
            t.latency.mean_ns,
            t.rejected,
            t.deadline_misses,
            t.failed_over,
            t.failed,
        ));
    }
    let words = r.outcomes.iter().flat_map(|o| {
        let kernel = Benchmark::ALL
            .iter()
            .position(|&b| b == o.benchmark)
            .expect("paper kernel") as u64;
        let kind = match o.kind {
            OutcomeKind::Completed => 0,
            OutcomeKind::Rejected => 1,
            OutcomeKind::FailedOver => 2,
            OutcomeKind::Failed => 3,
        };
        [
            o.id,
            o.tenant as u64,
            u64::from(o.class.rank()),
            kernel,
            o.arrival_ns,
            o.done_ns,
            kind,
        ]
    });
    out.push_str(&format!(
        "  outcomes {} fnv1a {:016x}\n",
        r.outcomes.len(),
        fnv1a_words(words)
    ));
    out
}

/// Pins the global-FIFO discipline (`fair: false`), which no study
/// golden covers: one seeded three-tenant stream (weights 1/2/1, mixed
/// classes, four kernels, queue caps tight enough to reject) served by
/// a kernel-aware pool, a serial pool, and a kernel-aware pool under
/// fault injection must keep reproducing `tests/golden/serve_fifo.txt`.
#[test]
fn fifo_discipline_matches_golden() {
    use ulp_serve::{ChaosConfig, FaultProfile};

    let kernels = [
        Benchmark::MatMul,
        Benchmark::Cnn,
        Benchmark::SvmLinear,
        Benchmark::Strassen,
    ];
    let config = HetSystemConfig::default();
    let book = CostBook::measure_with_host(
        &ulp_kernels::TargetEnv::pulp_parallel(),
        &ulp_kernels::TargetEnv::host_m4(),
        &config,
        &kernels,
    )
    .expect("cost book");
    let mean_ns: f64 = kernels
        .iter()
        .map(|&b| book.est_ns(b, 1) as f64)
        .sum::<f64>()
        / kernels.len() as f64;
    let capacity_rps = 2.0 * 1e9 / mean_ns;

    let specs: Vec<TenantSpec> = [("a", 1, 12), ("b", 2, 24), ("c", 1, 8)]
        .iter()
        .map(|&(name, weight, cap)| {
            let mut t = TenantSpec::weighted(name, weight);
            t.queue_cap = cap;
            t
        })
        .collect();
    let class_mixes = [[0.3, 0.5, 0.2], [0.1, 0.6, 0.3], [0.5, 0.2, 0.3]];
    let workload = WorkloadSpec {
        seed: 0xF1F0,
        duration_ns: 400_000_000,
        tenants: specs
            .iter()
            .zip(class_mixes)
            .enumerate()
            .map(|(i, (spec, class_mix))| TenantLoad {
                spec: spec.clone(),
                rate_rps: capacity_rps * [0.6, 1.0, 0.5][i],
                kernel_mix: kernels.iter().map(|&b| (b, 1.0 + i as f64)).collect(),
                class_mix,
                iterations: 1,
            })
            .collect(),
    };
    let requests = workload.generate();

    let fifo = |policy: BatchPolicy| ServeConfig {
        pool: 2,
        policy,
        fair: false,
        ..ServeConfig::default()
    };
    let run = |cfg: ServeConfig, chaos: ChaosConfig| {
        ServePool::new(&config, specs.clone(), book.clone(), cfg)
            .with_chaos(chaos)
            .run(&requests)
            .expect("FIFO pool must run")
    };
    let chaos = ChaosConfig {
        policy: OffloadPolicy {
            max_retries: 1,
            ..OffloadPolicy::default()
        },
        ..ChaosConfig::uniform(
            0xC4A0,
            FaultProfile {
                bit_error_rate: 1e-6,
                drop_rate: 0.02,
                hang_rate: 0.02,
                ..FaultProfile::default()
            },
        )
    };
    let batched = run(
        fifo(BatchPolicy::KernelAware { max_batch: 8 }),
        ChaosConfig::default(),
    );
    let serial = run(fifo(BatchPolicy::Serial), ChaosConfig::default());
    let chaotic = run(fifo(BatchPolicy::KernelAware { max_batch: 8 }), chaos);
    assert!(
        batched.rejected > 0 && serial.rejected > 0,
        "caps must bind"
    );
    assert!(
        chaotic.chaos.any(),
        "faults at these rates must leave a trace"
    );

    let summary = [
        fifo_summary("fifo kernel-aware max 8", requests.len(), &batched),
        fifo_summary("fifo serial", requests.len(), &serial),
        fifo_summary("fifo kernel-aware max 8, chaos", requests.len(), &chaotic),
    ]
    .concat();
    assert_eq!(
        summary,
        include_str!("golden/serve_fifo.txt"),
        "the FIFO dispatch discipline changed; the golden pins the \
         scheduler's behaviour and must not move under refactors"
    );
}
