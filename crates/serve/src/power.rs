//! The power-envelope governor: keep a pool under a joules-per-second
//! (watt) budget by walking the accelerator's DVFS ladder instead of
//! shedding load.
//!
//! The pool prices every dispatch at its current operating point; at each
//! decision instant the governor converts the energy dispatched over the
//! last window into average watts and compares it with the budget. Over
//! budget it steps *down* one rung (lower VDD, lower clock — service
//! slows, queues grow, and the queue-cap/pricing admission machinery
//! sheds load only once the slowest rung still overshoots); comfortably
//! under budget (below [`PowerPolicy::UPSCALE_MARGIN`] of it) it steps
//! back up. Decisions fire at fixed virtual-time instants, so the event
//! log is a pure function of the request stream.

use crate::metrics::PowerEvent;

/// A power envelope for one pool. The ladder shape and decision cadence
/// are the associated constants.
#[derive(Clone, Copy, Debug)]
pub struct PowerPolicy {
    /// Average-power budget over a decision window, watts.
    pub budget_w: f64,
}

impl PowerPolicy {
    /// Decision cadence: 1 ms of virtual time.
    pub const INTERVAL_NS: u64 = 1_000_000;
    /// Lowest supply the ladder descends to, volts (the power tables'
    /// floor).
    pub const MIN_VDD: f64 = 0.5;
    /// Supply step between rungs, volts.
    pub const STEP_VDD: f64 = 0.05;
    /// Step back up when window power drops below this fraction of the
    /// budget (hysteresis against rung flapping).
    pub const UPSCALE_MARGIN: f64 = 0.7;

    /// The descending supply ladder from `start_vdd`: rung 0 is the
    /// configured operating point, later rungs step down by
    /// [`Self::STEP_VDD`] to [`Self::MIN_VDD`].
    #[must_use]
    pub fn ladder(start_vdd: f64) -> Vec<f64> {
        let mut rungs = vec![start_vdd];
        let mut v = start_vdd - Self::STEP_VDD;
        // Tolerance absorbs the accumulated binary error of repeated
        // decimal subtraction, so a 0.65 → 0.5 descent lands on 0.5.
        while v >= Self::MIN_VDD - 1e-9 {
            rungs.push(v.max(Self::MIN_VDD));
            v -= Self::STEP_VDD;
        }
        rungs
    }
}

/// The governor's state over one run. Without a policy it stays on
/// rung 0 and records nothing.
pub(crate) struct Governor {
    policy: Option<PowerPolicy>,
    rung: usize,
    next_ns: Option<u64>,
    last_ns: u64,
    /// Each dispatch's energy spread uniformly over its service interval
    /// as a (start, end, watts) segment; a window integrates the
    /// overlapping segments. Attributing a whole batch to its dispatch
    /// instant would make windows inside long low-rung batches read zero
    /// watts and flap the governor up.
    segments: Vec<(u64, u64, f64)>,
    /// Virtual time spent on each rung of the ladder (empty without a
    /// policy).
    pub(crate) residency_ns: Vec<u64>,
    /// The transition log.
    pub(crate) events: Vec<PowerEvent>,
}

impl Governor {
    /// A governor over a ladder of `rungs` operating points.
    pub(crate) fn new(policy: Option<PowerPolicy>, rungs: usize) -> Self {
        Governor {
            policy,
            rung: 0,
            next_ns: policy.map(|_| PowerPolicy::INTERVAL_NS),
            last_ns: 0,
            segments: Vec::new(),
            residency_ns: vec![0; if policy.is_some() { rungs } else { 0 }],
            events: Vec::new(),
        }
    }

    /// The ladder rung dispatches are priced at (0 = configured point).
    pub(crate) fn rung(&self) -> usize {
        self.rung
    }

    /// The next decision instant, if any.
    pub(crate) fn next_ns(&self) -> Option<u64> {
        self.next_ns
    }

    /// Evaluates every decision due by `now` over the energy dispatched
    /// since the previous one.
    pub(crate) fn decide(&mut self, now: u64) {
        let Some(policy) = self.policy else { return };
        while let Some(at) = self.next_ns.filter(|&at| at <= now) {
            let window_ns = at - self.last_ns;
            let window_energy_j: f64 = self
                .segments
                .iter()
                .map(|&(start, end, watts)| {
                    let lo = start.max(self.last_ns);
                    let hi = end.min(at);
                    watts * (hi.saturating_sub(lo) as f64 * 1e-9)
                })
                .sum();
            self.segments.retain(|&(_, end, _)| end > at);
            let window_w = if window_ns > 0 {
                window_energy_j / (window_ns as f64 * 1e-9)
            } else {
                0.0
            };
            let to = if window_w > policy.budget_w {
                (self.rung + 1).min(self.residency_ns.len() - 1)
            } else if window_w < PowerPolicy::UPSCALE_MARGIN * policy.budget_w {
                self.rung.saturating_sub(1)
            } else {
                self.rung
            };
            if to != self.rung {
                self.events.push(PowerEvent {
                    at_ns: at,
                    from_op: self.rung,
                    to_op: to,
                    window_w,
                });
                self.rung = to;
            }
            self.last_ns = at;
            self.next_ns = Some(at + PowerPolicy::INTERVAL_NS);
        }
    }

    /// Records one dispatch's energy over its service interval.
    pub(crate) fn observe(&mut self, start_ns: u64, service_ns: u64, energy_j: f64) {
        if self.policy.is_some() && service_ns > 0 {
            self.segments.push((
                start_ns,
                start_ns + service_ns,
                energy_j / (service_ns as f64 * 1e-9),
            ));
        }
    }

    /// Charges the clock step `from → to` to the current rung.
    pub(crate) fn advance(&mut self, from: u64, to: u64) {
        if let Some(ns) = self.residency_ns.get_mut(self.rung) {
            *ns += to - from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_descends_from_the_configured_point_to_the_floor() {
        let rungs = PowerPolicy::ladder(0.65);
        assert_eq!(rungs.len(), 4);
        assert!((rungs[0] - 0.65).abs() < 1e-12);
        assert!((rungs[1] - 0.60).abs() < 1e-12);
        assert!((rungs[2] - 0.55).abs() < 1e-12);
        assert_eq!(rungs[3], 0.5);
    }
}
