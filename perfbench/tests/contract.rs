//! The benchmark's own checks: metric names and units match
//! `BENCHMARK.json`, a tiny run of every workload is correct in both
//! modes, and bad input is counted as failed, not panicked on.

use perfbench::serve::Serve;
use perfbench::spans::Recorder;
use perfbench::{result_json, run, run_workload, Kind, Settings, Size, END_TO_END, PER_LAYER};
use ulp_kernels::{Benchmark, TargetEnv};
use ulp_offload::HetSystemConfig;
use ulp_serve::CostBook;

fn tiny(kind: Kind, trace: bool) -> Settings {
    Settings {
        kind,
        seed: 11,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    }
}

/// `(name, unit)` of every metric in one array of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("{section} missing"));
    let body = &text[start..start + text[start..].find(']').expect("array closes")];
    let field = |line: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        let from = line.find(&tag).expect("field present") + tag.len();
        line[from..from + line[from..].find('"').expect("string closes")].to_owned()
    };
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(name), "bad metric name {name}");
        assert!(unit_ok(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(name), "{name} declared twice");
    }
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
}

#[test]
fn tiny_runs_of_every_workload_are_correct_in_both_modes() {
    for kind in Kind::ALL {
        let plain = run(&tiny(kind, false)).expect("set-up succeeds");
        let traced = run(&tiny(kind, true)).expect("set-up succeeds");
        for (o, table) in [(&plain, END_TO_END), (&traced, PER_LAYER)] {
            assert!(o.correct, "{kind:?}: {:?}", o.errors);
            assert_eq!(o.failed, 0);
            assert!(o.attempted >= o.ops_per_pass as u64);
            let line = result_json(o);
            for &(name, unit) in table {
                let printed = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&printed)
                    .unwrap_or_else(|| panic!("{name} not printed"));
                let rest = &line[at..];
                let end = rest.find('}').expect("metric object closes");
                assert!(
                    rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{name} printed without unit {unit}"
                );
            }
            assert!(o.metrics.iter().all(|m| m.2.is_finite()));
        }
        assert!(
            plain.metrics.iter().all(|m| m.2 > 0.0),
            "{kind:?}: an end-to-end metric read 0: {:?}",
            plain.metrics
        );
        assert_eq!(
            plain.sim_digest, traced.sim_digest,
            "{kind:?}: tracing changed the simulated results"
        );
        assert!(traced.passes >= 3, "a traced run alternates pass kinds");
        assert!(!traced.spans_json.is_empty() && !traced.layer_table.is_empty());
    }
}

#[test]
fn digest_depends_on_the_seed_only() {
    let a = run(&tiny(Kind::Offload, false)).expect("set-up succeeds");
    let b = run(&tiny(Kind::Offload, false)).expect("set-up succeeds");
    let c = run(&Settings {
        seed: 12,
        ..tiny(Kind::Offload, false)
    })
    .expect("set-up succeeds");
    assert_eq!(a.sim_digest, b.sim_digest);
    assert_ne!(a.sim_digest, c.sim_digest);
}

#[test]
fn a_stream_naming_unmeasured_kernels_is_counted_as_failed() {
    let config = HetSystemConfig::default();
    let book = CostBook::measure(
        &TargetEnv::pulp_parallel(),
        &config,
        &[Benchmark::MatMul, Benchmark::Cnn],
    )
    .expect("kernels measure");
    let mut rec = Recorder::new(false);
    let mut w = Serve::with_book(11, Size::Tiny, config, book, &mut rec);
    let o = run_workload(&mut w, rec, &tiny(Kind::Serve, false), &[0.1]);
    assert!(!o.correct);
    assert!(o.failed > 0 && o.failed == o.attempted, "{o:?}");
    assert!(
        o.errors.iter().all(|e| e.contains("serve:")),
        "{:?}",
        o.errors
    );
    assert!(o.metrics.iter().all(|m| m.2.is_finite()));
}
