//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload offload|serve|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints run facts, the `sim_digest` and (traced) the per-layer
//! self-time table, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Traced runs also write
//! every span to `.perfbench_out/<workload>-<seed>-spans.json`.

use std::process::ExitCode;

use perfbench::{jobs, result_json, run, Kind, Settings, Size};

const USAGE: &str =
    "usage: perfbench --workload offload|serve|fleet --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut s = Settings {
        kind: Kind::Offload,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or_else(|| bad("a workload"))?);
            }
            "--seed" => s.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                s.seconds = value
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?;
            }
            "--trace" => {
                s.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    s.kind = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(s)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let s = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} jobs={} nproc={} rustc=\"{}\"",
        s.kind.name(),
        s.seed,
        s.seconds,
        u8::from(s.trace),
        jobs(),
        std::thread::available_parallelism().map_or(1, usize::from),
        env!("PERFBENCH_RUSTC"),
    );
    let o = match run(&s) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in o.errors.iter().take(20) {
        eprintln!("perfbench: failed: {e}");
    }
    println!(
        "perfbench: ops_per_pass={} passes={} attempted={} failed={}",
        o.ops_per_pass, o.passes, o.attempted, o.failed
    );
    println!("sim_digest={:016x}", o.sim_digest);
    if s.trace {
        print!("{}", o.layer_table);
        let dir = std::path::Path::new(".perfbench_out");
        let path = dir.join(format!("{}-{}-spans.json", s.kind.name(), s.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &o.spans_json)) {
            Ok(()) => println!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&o));
    ExitCode::SUCCESS
}
