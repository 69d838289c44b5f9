//! Host wall-clock benchmark of the heterogeneous-accelerator workspace.
//!
//! Three seeded workloads drive the program only through its public API
//! and stress different layers:
//!
//! * [`offload`] — the paper's own path: a closed-loop caller offloading
//!   the ten kernels to three committed platforms, plus MCU-only runs.
//!   Host time goes to cluster and ISA simulation.
//! * [`serve`] — one overloaded four-worker `ServePool` whose queues sit
//!   at their cap. Host time goes to the dispatch loop's queue scans.
//! * [`fleet`] — an autoscaled, admission-priced fleet whose queues stay
//!   well below that cap. Host time goes to per-event and per-worker work
//!   and to the per-group fan-out.
//!
//! A run sets its workload up several times (the median is `setup_s`),
//! then repeats passes over the generated operations until `--seconds`
//! have elapsed, ending on a pass boundary. An operation's time is its
//! fastest over the passes. Every pass starts from fresh simulator
//! state, so each operation must reproduce its first-pass result exactly;
//! a difference counts as a failed operation, as does any error or
//! invariant violation. The first pass's results hash into the
//! `sim_digest`, which depends only on the seed.
//!
//! With tracing on, passes alternate between untraced and traced. Traced
//! passes record [`spans`] around every call into a layer, which give the
//! per-layer metrics; comparing the two kinds of pass gives the tracing
//! overhead.

pub mod fleet;
pub mod offload;
pub mod serve;
pub mod spans;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use spans::Recorder;
use ulp_offload::{config_from_platform, HetSystemConfig};
use ulp_platform::PlatformSpec;

/// End-to-end metrics (printed when tracing is off), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed when tracing is on), with units. Every
/// workload prints every metric; a layer the workload never calls
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("platform.load_ms", "ms"),
    ("kernels.build_ms", "ms"),
    ("cluster.single_ms", "ms"),
    ("cluster.quad_ms", "ms"),
    ("cluster.octa_ms", "ms"),
    ("cluster.mips", "MIPS"),
    ("isa.host_ms", "ms"),
    ("isa.host_mips", "MIPS"),
    ("offload.predict_us", "us"),
    ("offload.plan_queue_us", "us"),
    ("offload.sim_mips", "MIPS"),
    ("trace.traced_offload_ms", "ms"),
    ("trace.export_ms", "ms"),
    ("trace.events_per_s", "1/s"),
    ("trace_replay.decode_ms", "ms"),
    ("trace_replay.decode_req_per_s", "1/s"),
    ("loadgen.generate_ms", "ms"),
    ("costbook.measure_ms", "ms"),
    ("serve.pool_new_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.run_us_per_req", "us"),
    ("serve.us_per_dispatch", "us"),
    ("invariants.check_ms", "ms"),
    ("fleet.new_ms", "ms"),
    ("fleet.run_ms", "ms"),
    ("fleet.group_run_ms", "ms"),
    ("fleet.us_per_dispatch", "us"),
    ("invariants.check_fleet_ms", "ms"),
    ("fleet.fanout_efficiency", "ratio"),
    ("tracing.p50_ms_traced", "ms"),
    ("tracing.p50_ms_untraced", "ms"),
    ("tracing.overhead_ratio", "ratio"),
    ("cluster.retired", "count"),
    ("offload.binary_ship_ratio", "ratio"),
    ("trace.events", "count"),
    ("serve.dispatches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.rejected_ratio", "ratio"),
    ("serve.uploads", "count"),
    ("serve.retransmissions", "count"),
    ("serve.watchdog_fires", "count"),
    ("serve.fallback_batches", "count"),
    ("fleet.scale_events", "count"),
    ("fleet.priced_out_ratio", "ratio"),
    ("fleet.max_queue_depth", "count"),
];

/// Set-up repeats at least this often, and until [`SETUP_SECONDS`] have
/// passed (at most [`SETUP_MAX_REPS`] times); `setup_s` is the median.
pub const SETUP_MIN_REPS: usize = 5;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_SECONDS: f64 = 1.0;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 200;

/// Operation id carried by set-up spans.
pub const SETUP_OP: u64 = u64::MAX;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// See [`offload`].
    Offload,
    /// See [`serve`].
    Serve,
    /// See [`fleet`].
    Fleet,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Offload, Kind::Serve, Kind::Fleet];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Offload => "offload",
            Kind::Serve => "serve",
            Kind::Fleet => "fleet",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes: `Full` for measurements, `Tiny` (one set-up, a few
/// operations) for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few operations of each kind, for tests.
    Tiny,
}

/// What one run does.
#[derive(Clone, Debug)]
pub struct Settings {
    /// The workload.
    pub kind: Kind,
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Minimum measured seconds, rounded up to whole passes.
    pub seconds: f64,
    /// Record spans and print per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// Worker threads for the program's parallel maps: the host's cores, at
/// most two, so runs on larger hosts still time the same fan-out.
#[must_use]
pub fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// Result of one operation that completed.
#[derive(Clone, Copy, Debug)]
pub struct OpOutcome {
    /// Requests the operation resolved.
    pub requests: u64,
    /// Hash of the simulated results (cycles, virtual latencies, ledger
    /// totals).
    pub digest: u64,
}

/// A workload after set-up: a fixed list of operations.
pub trait Workload {
    /// Operations in one pass.
    fn ops(&self) -> usize;

    /// Resets simulator state so that `pass` reproduces pass 0.
    fn begin_pass(&mut self, pass: usize);

    /// Runs operation `i`. When `rec` is active the call is issued as
    /// its public parts, each inside a span.
    ///
    /// # Errors
    ///
    /// A message naming the failed call, output mismatch or invariant.
    fn run_op(&mut self, i: usize, op: u64, rec: &mut Recorder) -> Result<OpOutcome, String>;

    /// Untimed extra calls made only in traced passes, after operation
    /// `i` was timed, to split its cost further.
    ///
    /// # Errors
    ///
    /// A message when the extra calls disagree with the operation.
    fn after_op(&mut self, _i: usize, _op: u64, _rec: &mut Recorder) -> Result<(), String> {
        Ok(())
    }

    /// Adds the workload's per-layer metrics: span-derived timings from
    /// `rec` and counts from the first pass.
    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics);
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metrics in declaration order, with units.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Hash over the first pass's results.
    pub sim_digest: u64,
    /// Operations per pass.
    pub ops_per_pass: usize,
    /// Passes run.
    pub passes: usize,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Per-layer self-time shares, when traced.
    pub layer_table: String,
    /// Every span, when traced.
    pub spans_json: String,
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn push(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes a float in by its bits.
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push(v.to_bits())
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Derives an independent seed for sub-stream `i` of `seed`.
#[must_use]
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ (i.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Loads one committed `platforms/` file at its default operating point.
///
/// # Errors
///
/// The platform parser's message when the file is missing or invalid.
pub fn load_platform(file: &str, rec: &mut Recorder) -> Result<HetSystemConfig, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../platforms")
        .join(file);
    rec.span("platform.load", SETUP_OP, || {
        PlatformSpec::load(&path.to_string_lossy())
            .map(|spec| config_from_platform(&spec))
            .map_err(|e| e.to_string())
    })
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn setup(s: &Settings, rec: &mut Recorder) -> Result<Box<dyn Workload>, String> {
    Ok(match s.kind {
        Kind::Offload => Box::new(offload::Offload::setup(s.seed, s.size, rec)?),
        Kind::Serve => Box::new(serve::Serve::setup(s.seed, s.size, rec)?),
        Kind::Fleet => Box::new(fleet::Fleet::setup(s.seed, s.size, rec)?),
    })
}

/// Host milliseconds of each operation, one entry per pass it ran in.
type Samples = Vec<Vec<f64>>;

struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Pass-0 digest of each operation.
    first: Vec<Option<u64>>,
    /// Requests each operation resolves.
    requests: Vec<u64>,
    /// Untraced passes (without pass 0 in a traced run).
    plain: Samples,
    traced: Samples,
    passes: usize,
}

/// Each operation's fastest time over its passes, ascending, with the
/// requests it resolves. The host is shared, so interference only ever
/// adds time; like `simperf`'s best-of-N, the minimum over repeats of
/// identical work is the steady estimate of its cost.
fn best(samples: &Samples, requests: &[u64]) -> (Vec<f64>, u64) {
    let mut best = Vec::with_capacity(samples.len());
    let mut served = 0;
    for (times, &r) in samples.iter().zip(requests) {
        if let Some(min) = times.iter().copied().reduce(f64::min) {
            best.push(min);
            served += r;
        }
    }
    best.sort_by(f64::total_cmp);
    (best, served)
}

fn measure(w: &mut dyn Workload, rec: &mut Recorder, s: &Settings) -> Tally {
    let n = w.ops();
    let mut t = Tally {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        first: vec![None; n],
        requests: vec![0; n],
        plain: vec![Vec::new(); n],
        traced: vec![Vec::new(); n],
        passes: 0,
    };
    // The first pass is untraced in both modes, so digests and counts
    // come from identical calls. A traced run then alternates traced and
    // untraced passes, and compares the two kinds without the first
    // pass, which also warms caches.
    let min_passes = if s.trace { 3 } else { 1 };
    let start = Instant::now();
    for pass in 0.. {
        let traced = s.trace && pass % 2 == 1;
        rec.set_active(traced);
        w.begin_pass(pass);
        t.passes = pass + 1;
        for i in 0..n {
            let op = t.attempted;
            t.attempted += 1;
            let t0 = Instant::now();
            let root = rec.open("op", op);
            let result = w.run_op(i, op, rec);
            rec.close(root);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let result = result.and_then(|o| {
                if traced {
                    w.after_op(i, op, rec)?;
                }
                if pass == 0 {
                    t.first[i] = Some(o.digest);
                }
                if t.first[i] == Some(o.digest) {
                    Ok(o)
                } else {
                    Err("result differs from pass 0".to_owned())
                }
            });
            match result {
                Ok(o) => {
                    t.requests[i] = o.requests;
                    if traced {
                        t.traced[i].push(ms);
                    } else if pass > 0 || !s.trace {
                        t.plain[i].push(ms);
                    }
                }
                Err(e) => {
                    t.failed += 1;
                    t.errors.push(format!("op {i} pass {pass}: {e}"));
                }
            }
        }
        // Runs end on a pass boundary: every pass is the same multiset of
        // operations, so every seed measures the same work.
        if pass + 1 >= min_passes && start.elapsed().as_secs_f64() >= s.seconds {
            break;
        }
    }
    rec.set_active(false);
    t
}

/// Runs one benchmark: repeated set-up (see [`SETUP_MIN_REPS`]), then
/// timed passes.
///
/// # Errors
///
/// A message when set-up fails (a platform file is missing or a kernel
/// does not measure); failed operations are counted, not returned.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    ulp_par::set_jobs(Some(jobs()));
    let mut rec = Recorder::new(s.trace);
    let mut setup_seconds = Vec::new();
    let mut workload = None;
    let (min_reps, min_seconds) = match s.size {
        Size::Full => (SETUP_MIN_REPS, SETUP_SECONDS),
        Size::Tiny => (1, 0.0),
    };
    let start = Instant::now();
    while setup_seconds.len() < min_reps
        || (start.elapsed().as_secs_f64() < min_seconds && setup_seconds.len() < SETUP_MAX_REPS)
    {
        let t0 = Instant::now();
        let open = rec.open("setup", SETUP_OP);
        let built = setup(s, &mut rec);
        rec.close(open);
        setup_seconds.push(t0.elapsed().as_secs_f64());
        workload = Some(built?);
    }
    let mut w = workload.expect("set-up ran");
    Ok(run_workload(w.as_mut(), rec, s, &setup_seconds))
}

/// Times passes over an already set-up workload and computes the
/// metrics `s.trace` selects.
pub fn run_workload(
    w: &mut dyn Workload,
    mut rec: Recorder,
    s: &Settings,
    setup_seconds: &[f64],
) -> Outcome {
    let mut tally = None;
    // The simulator's own CPU-time meter; its retired-instruction delta
    // gives the loop's simulated MIPS.
    let perf = ulp_bench::simperf::time_suite("perfbench", || {
        tally = Some(measure(w, &mut rec, s));
        String::new()
    });
    let t = tally.expect("measure ran");

    let mut digest = Digest::default();
    for d in &t.first {
        digest.push(d.unwrap_or(0));
    }

    let mut m = Metrics::new();
    let (metrics, layer_table, spans_json) = if s.trace {
        w.layer_metrics(&rec, &mut m);
        m.insert("offload.sim_mips", perf.simulated_mips);
        let p50_traced = percentile(&best(&t.traced, &t.requests).0, 50.0);
        let p50_plain = percentile(&best(&t.plain, &t.requests).0, 50.0);
        m.insert("tracing.p50_ms_traced", p50_traced);
        m.insert("tracing.p50_ms_untraced", p50_plain);
        m.insert("tracing.overhead_ratio", ratio(p50_traced, p50_plain));
        (collect(PER_LAYER, &m), layer_table(&rec), rec.to_json())
    } else {
        let (lat, served) = best(&t.plain, &t.requests);
        m.insert("setup_s", median(setup_seconds));
        m.insert(
            "req_per_s",
            ratio(served as f64, lat.iter().sum::<f64>() / 1e3),
        );
        m.insert("p50_ms", percentile(&lat, 50.0));
        m.insert("p90_ms", percentile(&lat, 90.0));
        m.insert("peak_rss_mb", peak_rss_mb());
        (collect(END_TO_END, &m), String::new(), String::new())
    };
    Outcome {
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        sim_digest: digest.finish(),
        ops_per_pass: w.ops(),
        passes: t.passes,
        errors: t.errors,
        layer_table,
        spans_json,
    }
}

fn collect(
    table: &[(&'static str, &'static str)],
    m: &Metrics,
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .map(|&(name, unit)| {
            let v = m.get(name).copied().unwrap_or(0.0);
            (name, unit, if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

/// Span names by self time inside timed operations, largest first, as
/// text lines `name self_ms share`.
fn layer_table(rec: &Recorder) -> String {
    let layers = rec.layers_within("op");
    let total = layers.get("op").map_or(0, |l| l.total_ns);
    let mut rows: Vec<(&'static str, u64)> = layers
        .into_iter()
        .map(|(name, l)| (name, l.self_ns))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows.iter()
        .map(|(name, ns)| {
            format!(
                "self_time {name} {:.3} ms {:.1}%\n",
                *ns as f64 / 1e6,
                ratio(*ns as f64, total as f64) * 100.0
            )
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(9, 4), sub_seed(9, 4));
    }
}
