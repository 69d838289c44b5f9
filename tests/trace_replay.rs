//! Trace record/replay round trips: a recorded request stream replays
//! byte-identically through any scheduler configuration, so scheduler
//! A/B comparisons are exact, and replaying the same trace twice yields
//! identical outcome ledgers.

use ulp_kernels::{Benchmark, TargetEnv};
use ulp_offload::HetSystemConfig;
use ulp_serve::trace_replay::TraceError;
use ulp_serve::{
    BatchPolicy, CostBook, DeadlineClass, Fleet, FleetConfig, ServeConfig, ServeError, ServePool,
    ServeRequest, TenantLoad, TenantSpec, TraceRecorder, TraceReplayer, WorkloadSpec,
};

fn book(config: &HetSystemConfig) -> CostBook {
    CostBook::measure(&TargetEnv::pulp_parallel(), config, &Benchmark::ALL).expect("cost book")
}

/// A mixed-class, all-kernel stream of at least 10 000 requests.
fn ten_k_stream(book: &CostBook) -> (Vec<TenantSpec>, Vec<ServeRequest>) {
    let mean_ns: f64 = Benchmark::ALL
        .iter()
        .map(|&b| book.est_ns(b, 1) as f64)
        .sum::<f64>()
        / Benchmark::ALL.len() as f64;
    let capacity_rps = 4.0 * 1e9 / mean_ns;
    let tenants: Vec<TenantSpec> = (0..4)
        .map(|i| {
            let mut t = TenantSpec::new(&format!("t{i}"));
            t.queue_cap = 256;
            t
        })
        .collect();
    let duration_ns = (10_500.0 / capacity_rps * 1e9) as u64;
    let workload = WorkloadSpec {
        seed: 0x7ACE_2026,
        duration_ns,
        tenants: tenants
            .iter()
            .map(|spec| TenantLoad {
                spec: spec.clone(),
                rate_rps: capacity_rps / 4.0,
                kernel_mix: Benchmark::ALL.iter().map(|&b| (b, 1.0)).collect(),
                class_mix: [0.25, 0.5, 0.25],
                iterations: 1,
            })
            .collect(),
    };
    let requests = workload.generate();
    assert!(
        requests.len() >= 10_000,
        "stream too small: {}",
        requests.len()
    );
    (tenants, requests)
}

fn assert_same_stream(a: &[ServeRequest], b: &[ServeRequest]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.tenant, y.tenant);
        assert_eq!(x.benchmark, y.benchmark);
        assert_eq!(x.class, y.class);
        assert_eq!(x.arrival_ns, y.arrival_ns);
        assert_eq!(x.iterations, y.iterations);
    }
}

/// Recording a 10 k-request stream and replaying it through a batched
/// and a serial scheduler must (a) hand each scheduler the identical
/// stream — re-encoding what each one consumed reproduces the recorded
/// bytes exactly, in both encodings — (b) yield zero invariant
/// violations under either scheduler, and (c) make every report
/// difference attributable to the scheduler alone.
#[test]
fn recorded_stream_replays_byte_identically_through_both_schedulers() {
    let config = HetSystemConfig::default();
    let book = book(&config);
    let (tenants, requests) = ten_k_stream(&book);

    let mut rec = TraceRecorder::new();
    rec.record_all(&requests);
    let bytes = rec.encode();
    let json = rec.encode_json();

    // Both encodings decode to the identical stream.
    let bin_replay = TraceReplayer::decode(&bytes).expect("binary decode");
    let json_replay = TraceReplayer::decode(json.as_bytes()).expect("json decode");
    assert_same_stream(bin_replay.requests(), &requests);
    assert_same_stream(json_replay.requests(), bin_replay.requests());

    let schedulers = [
        ("batched", BatchPolicy::KernelAware { max_batch: 8 }),
        ("serial", BatchPolicy::Serial),
    ];
    for (label, policy) in schedulers {
        let replay = TraceReplayer::decode(&bytes).expect("decode");

        // The stream the scheduler consumes re-encodes to the recorded
        // bytes exactly: the replayed admission sequence is
        // byte-identical to the recording.
        let mut reenc = TraceRecorder::new();
        reenc.record_all(replay.requests());
        assert_eq!(reenc.encode(), bytes, "{label}: binary round trip");
        assert_eq!(reenc.encode_json(), json, "{label}: json round trip");

        let mut pool = ServePool::new(
            &config,
            tenants.clone(),
            book.clone(),
            ServeConfig {
                pool: 2,
                policy,
                ..ServeConfig::default()
            },
        );
        let report = pool
            .run(replay.requests())
            .expect("replayed stream must serve");
        let violations = ulp_serve::invariants::check(requests.len() as u64, &report);
        assert!(violations.is_empty(), "{label}: {violations:?}");
        assert!(report.completed > 0, "{label}: nothing completed");
    }
}

/// Replaying the same trace twice through the same configuration must
/// yield identical outcome ledgers — same per-request outcome sequence,
/// same SLO ledger, same aggregates.
#[test]
fn replaying_twice_yields_identical_outcome_ledgers() {
    let config = HetSystemConfig::default();
    let book = book(&config);
    let (tenants, requests) = ten_k_stream(&book);

    let mut rec = TraceRecorder::new();
    rec.record_all(&requests);
    let bytes = rec.encode();

    let run = || {
        let replay = TraceReplayer::decode(&bytes).expect("decode");
        let mut pool = ServePool::new(
            &config,
            tenants.clone(),
            book.clone(),
            ServeConfig {
                pool: 3,
                policy: BatchPolicy::KernelAware { max_batch: 8 },
                ..ServeConfig::default()
            },
        );
        pool.run(replay.requests()).expect("replay must serve")
    };
    let a = run();
    let b = run();

    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.kind, y.kind);
    }
    assert_eq!(a.slo, b.slo, "SLO ledgers must match bit-for-bit");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.latency.p99_ns, b.latency.p99_ns);
}

/// The same recorded trace fed through two *fleet* configurations (2
/// vs 4 node groups) must conserve every request fleet-wide in both —
/// an exact A/B of the sharding layer on an identical workload.
#[test]
fn fleet_replay_ab_conserves_requests_under_both_shardings() {
    let config = HetSystemConfig::default();
    let book = book(&config);
    let (tenants, requests) = ten_k_stream(&book);

    let mut rec = TraceRecorder::new();
    rec.record_all(&requests);
    let bytes = rec.encode();

    for groups in [2usize, 4] {
        let replay = TraceReplayer::decode(&bytes).expect("decode");
        let fleet = Fleet::new(
            &config,
            tenants.clone(),
            book.clone(),
            FleetConfig {
                groups,
                serve: ServeConfig {
                    pool: 2,
                    policy: BatchPolicy::KernelAware { max_batch: 8 },
                    ..ServeConfig::default()
                },
            },
        );
        let report = fleet.run(replay.requests()).expect("fleet replay");
        assert_eq!(report.offered, requests.len() as u64);
        let violations = ulp_serve::invariants::check_fleet(&report);
        assert!(violations.is_empty(), "{groups} groups: {violations:?}");
        assert!(report.completed() > 0);
    }
}

/// Regression: hostile record counts (reachable from `het-sim
/// --replay-trace FILE`) fail with a typed error instead of panicking or
/// reserving more than the input holds. A JSON header promising
/// `u64::MAX` records used to overflow `Vec::with_capacity`; a binary
/// count of `u64::MAX / 28 + 1` used to wrap the body-size arithmetic.
#[test]
fn hostile_record_counts_are_typed_errors() {
    let mut recorder = TraceRecorder::new();
    for (id, benchmark) in Benchmark::ALL.into_iter().take(3).enumerate() {
        recorder.record(&ServeRequest {
            id: id as u64,
            tenant: 0,
            benchmark,
            iterations: 1,
            class: ulp_serve::DeadlineClass::ALL[0],
            arrival_ns: 1_000 * id as u64,
        });
    }

    let json = recorder.encode_json();
    let hostile = json.replacen("\"count\":3", "\"count\":18446744073709551615", 1);
    assert_ne!(hostile, json, "the header must carry the count");
    match TraceReplayer::decode(hostile.as_bytes()) {
        Err(TraceError::Json(msg)) => assert!(msg.contains("promises"), "{msg}"),
        other => panic!("expected a JSON count error, got {other:?}"),
    }

    let mut binary = recorder.encode();
    let wrapping = u64::MAX / 28 + 1;
    binary[8..16].copy_from_slice(&wrapping.to_le_bytes());
    assert_eq!(
        TraceReplayer::decode(&binary).unwrap_err(),
        TraceError::Truncated
    );
}

/// Regression: one JSON record asking for 4294967295 iterations aborted
/// a fleet replay on a 34 GB allocation inside the pipeline schedule.
/// The pool's validation now bounds iterations per request, so the
/// record earns a typed error from a `ServePool` and from `Fleet::run`,
/// and a record at the bound is still served.
#[test]
fn hostile_iteration_count_is_a_typed_error() {
    let config = HetSystemConfig::default();
    let book = CostBook::measure(&TargetEnv::pulp_parallel(), &config, &[Benchmark::MatMul])
        .expect("cost book");
    let tenants = vec![TenantSpec::new("t")];
    let serve = ServeConfig::default();
    let max = ServeConfig::MAX_REQUEST_ITERATIONS;
    let replay = |iterations: usize| {
        let mut recorder = TraceRecorder::new();
        recorder.record(&ServeRequest {
            id: 0,
            tenant: 0,
            benchmark: Benchmark::MatMul,
            iterations,
            class: DeadlineClass::Interactive,
            arrival_ns: 0,
        });
        TraceReplayer::decode(recorder.encode_json().as_bytes()).expect("decodes")
    };
    let rejects = |e: Option<ServeError>, iterations: usize| {
        matches!(
            e,
            Some(ServeError::TooManyIterations { index: 0, id: 0, iterations: i }) if i == iterations
        )
    };

    let hostile = replay(4_294_967_295);
    let mut pool = ServePool::new(&config, tenants.clone(), book.clone(), serve);
    assert!(rejects(pool.run(hostile.requests()).err(), 4_294_967_295));
    let fleet = Fleet::new(&config, tenants, book, FleetConfig { groups: 1, serve });
    assert!(rejects(fleet.run(hostile.requests()).err(), 4_294_967_295));

    assert!(rejects(pool.run(replay(max + 1).requests()).err(), max + 1));
    let at_bound = pool.run(replay(max).requests()).expect("served");
    assert_eq!(at_bound.completed, 1);
}

/// Regression: the JSON decoder range-checks kernel and class values as
/// written instead of narrowing them to a byte first — `"class":257`
/// used to decode as `Standard`, and kernel 256 was reported as 0.
#[test]
fn json_kernel_and_class_are_range_checked_before_narrowing() {
    let mut recorder = TraceRecorder::new();
    recorder.record(&ServeRequest {
        id: 0,
        tenant: 0,
        benchmark: Benchmark::MatMul,
        iterations: 1,
        class: DeadlineClass::Interactive,
        arrival_ns: 0,
    });
    let json = recorder.encode_json();
    for (field, wide, expected) in [
        ("\"kernel\":0", "\"kernel\":256", TraceError::BadKernel(256)),
        ("\"class\":0", "\"class\":257", TraceError::BadClass(257)),
    ] {
        let hostile = json.replacen(field, wide, 1);
        assert_ne!(hostile, json, "the record must carry {field}");
        assert_eq!(
            TraceReplayer::decode(hostile.as_bytes()).unwrap_err(),
            expected
        );
    }
}

/// Regression: a replayed stream that repeats an id or steps back in
/// time is rejected by both schedulers with the offending record named.
/// Fed ids 0 (matmul), 1 (matmul), 1 (cnn), a serial pool used to
/// dispatch one 2-request batch mixing both kernels, priced as matmul.
#[test]
fn out_of_order_streams_are_rejected_not_served() {
    let config = HetSystemConfig::default();
    let kernels = [Benchmark::MatMul, Benchmark::Cnn];
    let book =
        CostBook::measure(&TargetEnv::pulp_parallel(), &config, &kernels).expect("cost book");
    let tenants = vec![TenantSpec::new("t")];
    let request = |id: u64, benchmark: Benchmark, arrival_ns: u64| ServeRequest {
        id,
        tenant: 0,
        benchmark,
        iterations: 1,
        class: DeadlineClass::Standard,
        arrival_ns,
    };
    let serial = ServeConfig {
        pool: 1,
        policy: BatchPolicy::Serial,
        ..ServeConfig::default()
    };
    let cases = [
        (
            vec![
                request(0, Benchmark::MatMul, 0),
                request(1, Benchmark::MatMul, 0),
                request(1, Benchmark::Cnn, 0),
            ],
            2,
            1,
        ),
        (
            vec![
                request(0, Benchmark::MatMul, 1_000),
                request(1, Benchmark::Cnn, 500),
            ],
            1,
            1,
        ),
    ];
    for (stream, index, id) in cases {
        let mut recorder = TraceRecorder::new();
        recorder.record_all(&stream);
        let replay = TraceReplayer::decode(&recorder.encode()).expect("decode passes it through");
        let mut pool = ServePool::new(&config, tenants.clone(), book.clone(), serial);
        match pool.run(replay.requests()) {
            Err(ServeError::Unordered { index: i, id: d }) if (i, d) == (index, id) => {}
            other => panic!("pool: expected Unordered at #{index} (id {id}), got {other:?}"),
        }
        let fleet = Fleet::new(
            &config,
            tenants.clone(),
            book.clone(),
            FleetConfig {
                groups: 1,
                serve: serial,
            },
        );
        match fleet.run(replay.requests()) {
            Err(ServeError::Unordered { index: i, id: d }) if (i, d) == (index, id) => {}
            other => panic!("fleet: expected Unordered at #{index} (id {id}), got {other:?}"),
        }
    }
}
