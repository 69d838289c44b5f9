//! In-memory spans recorded around calls into each layer of the program.
//!
//! The benchmark opens a span just before it calls a layer's public entry
//! point and closes it when the call returns. Spans are kept in memory
//! and written out once, when the run ends, so recording costs a clock
//! read and a `Vec` push. A disabled recorder records nothing and costs
//! one branch per span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `cluster.quad`.
    pub name: &'static str,
    /// Identifier shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Target instructions retired while the span was open.
    pub retired: u64,
}

impl Span {
    /// Wall-clock length of the span.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; pass it back to [`Recorder::close`].
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct Open(Option<usize>);

/// Totals of every span that carries one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerStat {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_ns: u64,
    /// Target instructions retired inside the spans.
    pub retired: u64,
}

impl LayerStat {
    /// Mean milliseconds per span (0 when none was recorded).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns() / 1e6
    }

    /// Mean microseconds per span (0 when none was recorded).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1e3
    }

    fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Total span time in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// The span store of one benchmark run.
#[derive(Debug)]
pub struct Recorder {
    active: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that starts recording when `active`.
    #[must_use]
    pub fn new(active: bool) -> Self {
        Recorder {
            active,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded right now.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Turns recording on or off between operations.
    pub fn set_active(&mut self, active: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.active = active;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> Open {
        if !self.active {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            retired: ulp_isa::perf::retired_total(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::open`]. Spans close in
    /// reverse order of opening.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.retired = ulp_isa::perf::retired_total() - s.retired;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, op);
        let out = f();
        self.close(open);
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, with self time computed against child spans.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        self.layers_where(|_| true)
    }

    /// [`Recorder::layers`] restricted to the trees whose root span is
    /// named `root`.
    #[must_use]
    pub fn layers_within(&self, root: &str) -> BTreeMap<&'static str, LayerStat> {
        self.layers_where(|mut i| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            self.spans[i].name == root
        })
    }

    fn layers_where(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, LayerStat> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                // Children of one span run one after another on one
                // thread, so their durations never overlap.
                covered[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (i, (s, cov)) in self.spans.iter().zip(covered).enumerate() {
            if !keep(i) {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(cov);
            e.retired += s.retired;
        }
        out
    }

    /// The totals of one span name (zero when it never occurred).
    #[must_use]
    pub fn layer(&self, name: &str) -> LayerStat {
        self.layers().get(name).copied().unwrap_or_default()
    }

    /// All spans as JSON, one object per line inside an array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"retired\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.retired
            ));
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]\n");
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(iters: u64) -> u64 {
        let mut x = 0u64;
        for i in 0..iters {
            x = std::hint::black_box(x.wrapping_add(i).rotate_left(5));
        }
        x
    }

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        let outer = rec.open("outer", 7);
        spin(100_000);
        rec.span("inner", 7, || spin(200_000));
        rec.close(outer);
        let layers = rec.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(
            inner.self_ns, inner.total_ns,
            "a leaf's self time is its duration"
        );
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(rec.spans().iter().all(|s| s.op == 7));
    }

    #[test]
    fn inactive_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("x", 0, || 5);
        assert_eq!(v, 5);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.layer("x"), LayerStat::default());
        assert_eq!(rec.to_json(), "[\n]\n");
    }
}
