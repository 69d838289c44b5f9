//! Queue-depth / tail-latency autoscaling of a pool's active worker set.
//!
//! The autoscaler is evaluated at fixed intervals of **virtual time**
//! inside [`ServePool::run`](crate::ServePool::run), so every decision is
//! a pure function of the request stream and the policy — a scaled run is
//! byte-identical on every machine and under every `--jobs` setting, and
//! its decision log can be pinned as a golden snapshot.
//!
//! Two signals drive scaling, mirroring what a real fleet controller
//! watches:
//!
//! * **queue pressure** — admitted requests waiting per active worker.
//!   Growth past [`AutoscalePolicy::UP_QUEUE_PER_WORKER`] adds workers;
//!   decay to [`AutoscalePolicy::DOWN_QUEUE_PER_WORKER`] (a strictly
//!   lower threshold — the hysteresis band) releases them.
//! * **tail latency** — the p99 of completions inside the decision
//!   window. Blowing [`AutoscalePolicy::P99_TARGET_NS`] scales up even
//!   when queues look shallow (slow batches, not deep backlogs).
//!
//! Every action starts a cooldown during which further actions are
//! suppressed, so one burst cannot thrash the worker count at the
//! decision frequency.

use ulp_trace::{Component, EventKind, Tracer};

use crate::metrics::{fmt_ms, percentile_ns};

/// Scaling policy of one pool: worker bounds, cooldown, and step. The
/// decision cadence and thresholds are the associated constants. All
/// times are virtual nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct AutoscalePolicy {
    /// Fewest workers the pool may shrink to (≥ 1).
    pub min_workers: usize,
    /// Most workers the pool may grow to; the pool allocates this many
    /// up front and gates dispatch to the active prefix.
    pub max_workers: usize,
    /// Virtual time after an action during which further actions are
    /// suppressed.
    pub cooldown_ns: u64,
    /// Workers added or released per action (≥ 1).
    pub step: usize,
}

impl AutoscalePolicy {
    /// Virtual time between decision points: 25 ms.
    pub const INTERVAL_NS: u64 = 25_000_000;
    /// Scale up when queued requests per active worker reach this.
    pub const UP_QUEUE_PER_WORKER: usize = 4;
    /// Scale down only when queued requests per active worker are at or
    /// below this — strictly below the up threshold, or the pool would
    /// oscillate every interval.
    pub const DOWN_QUEUE_PER_WORKER: usize = 1;
    /// Scale up when the decision window's completion p99 exceeds this
    /// (the standard-class deadline, 250 ms); scaling down additionally
    /// requires the window p99 under half of it.
    pub const P99_TARGET_NS: u64 = 250_000_000;

    /// A policy scaling between `min_workers` and `max_workers` with a
    /// 50 ms cooldown and a step of an eighth of the range.
    #[must_use]
    pub fn new(min_workers: usize, max_workers: usize) -> Self {
        let min_workers = min_workers.max(1);
        let max_workers = max_workers.max(min_workers);
        AutoscalePolicy {
            min_workers,
            max_workers,
            cooldown_ns: 50_000_000,
            step: ((max_workers - min_workers) / 8).max(1),
        }
    }

    /// Clamps a worker count into the policy's `[min, max]` band.
    #[must_use]
    pub fn clamp(&self, workers: usize) -> usize {
        workers.clamp(self.min_workers.max(1), self.max_workers.max(1))
    }

    /// One pure scaling decision: given the active worker count, the
    /// total queued depth, and the decision window's completion p99,
    /// returns the new count and the triggering signal, or `None` to
    /// hold. Cooldown is the caller's business — the decision itself has
    /// no memory.
    #[must_use]
    pub fn decide(&self, active: usize, depth: usize, window_p99_ns: u64) -> ScaleDecision {
        let up = self.clamp(active + self.step);
        if up > active {
            if depth >= active * Self::UP_QUEUE_PER_WORKER {
                return ScaleDecision::Scale(up, ScaleReason::QueueDepth);
            }
            if window_p99_ns > Self::P99_TARGET_NS {
                return ScaleDecision::Scale(up, ScaleReason::LatencySlo);
            }
        }
        let down = self.clamp(active.saturating_sub(self.step));
        if down < active
            && depth <= active * Self::DOWN_QUEUE_PER_WORKER
            && window_p99_ns < Self::P99_TARGET_NS / 2
        {
            return ScaleDecision::Scale(down, ScaleReason::Idle);
        }
        ScaleDecision::Hold
    }
}

/// The autoscaler's state over one run. Without a policy every worker
/// stays active and nothing is recorded.
pub(crate) struct Scaler {
    policy: Option<AutoscalePolicy>,
    active: usize,
    next_ns: Option<u64>,
    cooldown_until: u64,
    /// Completion latencies since the previous decision.
    window: Vec<u64>,
    /// The decision log.
    pub(crate) events: Vec<ScaleEvent>,
    /// Active-capacity integral `Σ active × Δt` (0 without a policy).
    pub(crate) capacity_ns: u64,
}

impl Scaler {
    /// A scaler over `workers` allocated workers, `pool` of them active
    /// at the start when a policy is set.
    pub(crate) fn new(policy: Option<AutoscalePolicy>, pool: usize, workers: usize) -> Self {
        Scaler {
            policy,
            active: policy.map_or(workers, |p| p.clamp(pool)),
            next_ns: policy.map(|_| AutoscalePolicy::INTERVAL_NS),
            cooldown_until: 0,
            window: Vec::new(),
            events: Vec::new(),
            capacity_ns: 0,
        }
    }

    /// Workers `0..active` may take new batches; deactivated workers
    /// drain whatever batch they already hold.
    pub(crate) fn active(&self) -> usize {
        self.active
    }

    /// The next decision instant, if any.
    pub(crate) fn next_ns(&self) -> Option<u64> {
        self.next_ns
    }

    /// Evaluates every decision due by `now` against the queued `depth`.
    /// The window resets at each decision, whether or not it acts.
    pub(crate) fn decide(&mut self, now: u64, depth: usize, tracer: &Tracer) {
        let Some(policy) = self.policy else { return };
        while let Some(at) = self.next_ns.filter(|&at| at <= now) {
            self.window.sort_unstable();
            let p99 = percentile_ns(&self.window, 99.0);
            self.window.clear();
            if at >= self.cooldown_until {
                if let ScaleDecision::Scale(to, reason) = policy.decide(self.active, depth, p99) {
                    self.events.push(ScaleEvent {
                        at_ns: at,
                        group: 0,
                        from: self.active,
                        to,
                        queue_depth: depth,
                        window_p99_ns: p99,
                        reason,
                    });
                    tracer.emit(
                        Component::Host,
                        EventKind::Scale {
                            from: self.active as u32,
                            to: to as u32,
                        },
                        at,
                        0,
                    );
                    self.active = to;
                    self.cooldown_until = at + policy.cooldown_ns;
                }
            }
            self.next_ns = Some(at + AutoscalePolicy::INTERVAL_NS);
        }
    }

    /// Records one finished request's latency in the decision window.
    pub(crate) fn observe(&mut self, latency_ns: u64) {
        if self.policy.is_some() {
            self.window.push(latency_ns);
        }
    }

    /// Integrates active capacity over the clock step `from → to`.
    pub(crate) fn advance(&mut self, from: u64, to: u64) {
        if self.policy.is_some() {
            self.capacity_ns += self.active as u64 * (to - from);
        }
    }
}

/// Outcome of one [`AutoscalePolicy::decide`] evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the current active worker count.
    Hold,
    /// Move to the given worker count for the given reason.
    Scale(usize, ScaleReason),
}

/// Which signal triggered a scaling action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleReason {
    /// Queue pressure crossed the up threshold.
    QueueDepth,
    /// The decision window's p99 blew the latency target.
    LatencySlo,
    /// Pressure and tails both low: workers released.
    Idle,
}

impl ScaleReason {
    /// Stable label used in decision logs and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScaleReason::QueueDepth => "queue-depth",
            ScaleReason::LatencySlo => "latency-slo",
            ScaleReason::Idle => "idle",
        }
    }
}

/// One autoscaling action in a run's decision log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Virtual instant of the decision, nanoseconds.
    pub at_ns: u64,
    /// Node group the pool belongs to (0 for a standalone pool; the
    /// fleet stamps the real index when merging group logs).
    pub group: usize,
    /// Active workers before the action.
    pub from: usize,
    /// Active workers after the action.
    pub to: usize,
    /// Total queued depth observed at the decision.
    pub queue_depth: usize,
    /// Completion p99 of the decision window, nanoseconds.
    pub window_p99_ns: u64,
    /// The triggering signal.
    pub reason: ScaleReason,
}

/// Renders a decision log as stable plain text, one action per line —
/// the format the fleet study pins as a golden snapshot.
#[must_use]
pub fn render_scale_log(events: &[ScaleEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "t={}ms group {}: {} -> {} workers (queue depth {}, window p99 {}ms, {})\n",
            fmt_ms(e.at_ns),
            e.group,
            e.from,
            e.to,
            e.queue_depth,
            fmt_ms(e.window_p99_ns),
            e.reason.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy {
            step: 2,
            ..AutoscalePolicy::new(2, 8)
        }
    }

    #[test]
    fn bounds_are_sane() {
        let p = AutoscalePolicy::new(0, 0);
        assert_eq!(p.min_workers, 1);
        assert_eq!(p.max_workers, 1);
        assert_eq!(p.clamp(99), 1);
        let p = AutoscalePolicy::new(8, 2);
        assert!(p.max_workers >= p.min_workers);
    }

    #[test]
    fn queue_pressure_scales_up() {
        let p = policy();
        // 4 active × up threshold 4 = 16 queued trips the signal.
        assert_eq!(
            p.decide(4, 16, 0),
            ScaleDecision::Scale(6, ScaleReason::QueueDepth)
        );
        assert_eq!(p.decide(4, 15, 0), ScaleDecision::Hold);
    }

    #[test]
    fn latency_target_scales_up_without_queues() {
        let p = policy();
        assert_eq!(
            p.decide(4, 8, 400_000_000),
            ScaleDecision::Scale(6, ScaleReason::LatencySlo)
        );
    }

    #[test]
    fn hysteresis_band_holds_between_thresholds() {
        let p = policy();
        // Depth between down (4×1) and up (4×4): hold.
        assert_eq!(p.decide(4, 8, 0), ScaleDecision::Hold);
        // At or under the down threshold with quiet tails: release.
        assert_eq!(
            p.decide(4, 4, 0),
            ScaleDecision::Scale(2, ScaleReason::Idle)
        );
        // Quiet queues but loud tails: hold (don't shed capacity while
        // the window p99 is within 2× of the target).
        assert_eq!(p.decide(4, 4, 200_000_000), ScaleDecision::Hold);
    }

    #[test]
    fn scaling_respects_the_band_edges() {
        let p = policy();
        assert_eq!(p.decide(8, 1_000, 0), ScaleDecision::Hold, "at max");
        assert_eq!(p.decide(2, 0, 0), ScaleDecision::Hold, "at min");
        // One step from the edge clamps to the edge.
        assert_eq!(
            p.decide(7, 1_000, 0),
            ScaleDecision::Scale(8, ScaleReason::QueueDepth)
        );
        assert_eq!(
            p.decide(3, 0, 0),
            ScaleDecision::Scale(2, ScaleReason::Idle)
        );
    }

    #[test]
    fn decision_log_renders_stably() {
        let log = render_scale_log(&[ScaleEvent {
            at_ns: 25_000_000,
            group: 3,
            from: 2,
            to: 4,
            queue_depth: 17,
            window_p99_ns: 312_500_000,
            reason: ScaleReason::QueueDepth,
        }]);
        assert_eq!(
            log,
            "t=25.000ms group 3: 2 -> 4 workers (queue depth 17, window p99 312.500ms, queue-depth)\n"
        );
    }
}
