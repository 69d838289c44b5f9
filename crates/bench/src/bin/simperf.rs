//! Simulator wall-clock performance tracker: times the evaluation suites
//! under the default engine, meters simulated MIPS, runs the in-process
//! two-way engine comparison (reference vs epoch, full sweep plus the
//! quad-core `pulp_parallel` and eight-core `f407-pulp4-octa` cells), and
//! writes `BENCH_simulator.json`.
//!
//! Usage: `simperf [--jobs N] [--out PATH] [--reps N] [--skip-comparison]`

use ulp_bench::simperf::{self, SuitePerf};

fn usage() -> ! {
    eprintln!("usage: simperf [--jobs N] [--out PATH] [--reps N] [--skip-comparison]");
    std::process::exit(2);
}

fn main() {
    let mut out_path = String::from("BENCH_simulator.json");
    let mut reps = 3usize;
    let mut comparison_enabled = true;
    let mut rest = ulp_bench::init_jobs_from_args().into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--out" => out_path = rest.next().unwrap_or_else(|| usage()),
            "--reps" => {
                reps = rest
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--skip-comparison" => comparison_enabled = false,
            _ => usage(),
        }
    }
    let jobs = ulp_par::effective_jobs();
    eprintln!("simperf: jobs={jobs} reps={reps}");

    // Warm-up pass so one-time costs (page faults, lazy statics) don't
    // land on the first timed suite.
    std::hint::black_box(ulp_bench::table1::run().len());

    let mut suites: Vec<SuitePerf> = Vec::new();
    suites.push(simperf::time_suite("table1", ulp_bench::table1::run));
    suites.push(simperf::time_suite(
        "pipeline_table",
        ulp_bench::pipeline::run,
    ));
    suites.push(simperf::time_suite("all_experiments", || {
        let measurements = ulp_bench::measure::measure_all();
        let mut report = String::new();
        report.push_str(&ulp_bench::table1::render(&measurements));
        report.push_str(&ulp_bench::fig3::run());
        report.push_str(&ulp_bench::fig4::render(&measurements));
        report.push_str(&ulp_bench::fig5a::render(&ulp_bench::fig5a::compute(
            &measurements,
        )));
        report.push_str(&ulp_bench::fig5b::run());
        report.push_str(&ulp_bench::ablation::run());
        report.push_str(&ulp_bench::extensions::run());
        report.push_str(&ulp_bench::scaling::run());
        report.push_str(&ulp_bench::faults::run());
        report
    }));
    for s in &suites {
        eprintln!(
            "simperf: {:16} {:7.3} cpu-s  {:>12} retired  {:7.2} simulated MIPS",
            s.name, s.host_cpu_seconds, s.retired, s.simulated_mips
        );
    }

    let (comparison, quad, octa, peak) = if comparison_enabled {
        let c = simperf::compare_engines(reps);
        eprintln!(
            "simperf: engine comparison (min of {}): reference {:.3} cpu-s, \
             epoch {:.3} cpu-s ({:.3}x)",
            c.reps,
            c.reference_cpu_seconds,
            c.epoch_cpu_seconds,
            c.epoch_speedup()
        );
        let q = simperf::compare_engines_quad(reps);
        eprintln!(
            "simperf: quad-core cell (min of {}): reference {:.3} cpu-s, \
             epoch {:.3} cpu-s ({:.3}x)",
            q.reps,
            q.reference_cpu_seconds,
            q.epoch_cpu_seconds,
            q.epoch_speedup()
        );
        let o = simperf::compare_engines_octa(reps);
        eprintln!(
            "simperf: eight-core cell (min of {}): reference {:.3} cpu-s, \
             epoch {:.3} cpu-s ({:.3}x)",
            o.reps,
            o.reference_cpu_seconds,
            o.epoch_cpu_seconds,
            o.epoch_speedup()
        );
        let p = simperf::core_peak(reps);
        eprintln!(
            "simperf: core peak (best of {reps}): reference {:.2} MIPS, microop {:.2} MIPS \
             ({:.3}x)",
            p.reference_mips,
            p.microop_mips,
            p.microop_speedup()
        );
        (Some(c), Some(q), Some(o), Some(p))
    } else {
        (None, None, None, None)
    };

    let json = simperf::render_json(
        &suites,
        comparison.as_ref(),
        quad.as_ref(),
        octa.as_ref(),
        peak.as_ref(),
        jobs,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("simperf: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("simperf: wrote {out_path}");
    print!("{json}");
}
