//! Deterministic fault injection for the coupling link.
//!
//! A 10 mW deployment does not get a perfect channel: long flex cables,
//! marginal supply rails and clock-domain crossings produce bit errors,
//! dropped or truncated frames, and the accelerator itself can hang or
//! signal its end-of-computation event late. The [`FaultInjector`] models
//! all of these from one seeded [`XorShiftRng`] stream, so a given
//! `(seed, workload, policy)` triple replays the **exact same** fault
//! sequence — the property the resilience experiments and the acceptance
//! tests rely on.
//!
//! Frames are accounting entities here: [`FaultInjector::assess`] draws
//! what happens to a frame of a given length without any bytes, and
//! [`FaultInjector::eoc`] draws what happens to one run's
//! end-of-computation event.
//!
//! With the default configuration every method is a no-op and the injector
//! reports [`inactive`](FaultConfig::is_active); the offload runtime skips
//! the resilience path entirely in that case, keeping the fault-free
//! figures bit-identical.

use ulp_rng::XorShiftRng;

/// Probability that a corruption slips past CRC-16 (2⁻¹⁶).
const CRC_ESCAPE_P: f64 = 1.0 / 65536.0;

/// Fault model of the link and event wires. All rates default to zero
/// (fault-free); [`FaultConfig::is_active`] reports whether any knob is
/// set.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultConfig {
    /// Seed of the injector's PRNG stream.
    pub seed: u64,
    /// Per-bit flip probability on the serial data lines.
    pub bit_error_rate: f64,
    /// Probability a whole frame is lost (chip-select glitch, DMA
    /// underrun). No bytes arrive, so no ACK comes back in the
    /// transaction's turnaround; the sender sees that where it would see
    /// a NACK and retransmits.
    pub drop_rate: f64,
    /// Probability a frame is cut short mid-transfer.
    pub truncate_rate: f64,
    /// Probability one accelerator run hangs (no end-of-computation event
    /// ever fires).
    pub hang_rate: f64,
    /// Probability the end-of-computation event fires late.
    pub late_eoc_rate: f64,
    /// How late (accelerator cycles) a late event fires.
    pub late_eoc_cycles: u64,
    /// The fetch-enable wire is stuck: the accelerator never starts, so
    /// every run looks like a hang to the host.
    pub stuck_fetch_enable: bool,
    /// The end-of-computation wire is stuck low: the host never wakes from
    /// WFE, whatever the accelerator does.
    pub stuck_eoc: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            bit_error_rate: 0.0,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            hang_rate: 0.0,
            late_eoc_rate: 0.0,
            late_eoc_cycles: 0,
            stuck_fetch_enable: false,
            stuck_eoc: false,
        }
    }
}

impl FaultConfig {
    /// Whether any fault mechanism is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.bit_error_rate > 0.0
            || self.drop_rate > 0.0
            || self.truncate_rate > 0.0
            || self.hang_rate > 0.0
            || self.late_eoc_rate > 0.0
            || self.stuck_fetch_enable
            || self.stuck_eoc
    }
}

/// Per-fault-type event counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultStats {
    /// Frames passed through the injector.
    pub frames: u64,
    /// Individual bits flipped by the error process.
    pub bits_flipped: u64,
    /// Frames corrupted (≥ 1 bit flipped).
    pub frames_corrupted: u64,
    /// Frames dropped whole.
    pub frames_dropped: u64,
    /// Frames truncated mid-transfer.
    pub frames_truncated: u64,
    /// Corrupted frames whose CRC-16 accidentally still matched.
    pub crc_escapes: u64,
    /// Accelerator runs that hung (no end-of-computation event).
    pub hangs: u64,
    /// End-of-computation events that fired late.
    pub late_eocs: u64,
    /// Events swallowed by a stuck GPIO wire.
    pub stuck_wire_events: u64,
}

/// What happened to one transmitted frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxOutcome {
    /// The frame arrived intact.
    Delivered,
    /// Bits flipped in flight. `escaped` is true when the corruption slips
    /// past the CRC (probability 2⁻¹⁶) and the receiver accepts bad data.
    Corrupted {
        /// The CRC failed to detect the corruption.
        escaped: bool,
    },
    /// The frame was cut short; the receiver sees a truncation / CRC error.
    Truncated,
    /// The frame vanished entirely; the missing ACK draws a
    /// retransmission, as a NACK does.
    Dropped,
}

/// Outcome of one accelerator run's end-of-computation event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EocOutcome {
    /// The event fired when the computation finished.
    OnTime,
    /// The event fired the given number of accelerator cycles late.
    Late(u64),
    /// The event never fired: the host's watchdog is the only way out.
    Hang,
}

/// Seeded, deterministic injector of link and event-wire faults.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: XorShiftRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for the given fault model.
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            cfg,
            rng: XorShiftRng::seed_from_u64(cfg.seed),
            stats: FaultStats::default(),
        }
    }

    /// Whether any fault mechanism is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// Accumulated per-fault-type counters.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Draws the fault outcome for a frame of `wire_bytes` length. A
    /// corrupted frame escapes the CRC-16 with probability 2⁻¹⁶.
    pub fn assess(&mut self, wire_bytes: usize) -> TxOutcome {
        self.stats.frames += 1;
        if self.cfg.drop_rate > 0.0 && self.rng.gen_bool(self.cfg.drop_rate) {
            self.stats.frames_dropped += 1;
            return TxOutcome::Dropped;
        }
        if self.cfg.truncate_rate > 0.0 && self.rng.gen_bool(self.cfg.truncate_rate) {
            self.stats.frames_truncated += 1;
            return TxOutcome::Truncated;
        }
        let flips = self.count_bit_flips(wire_bytes * 8);
        if flips == 0 {
            return TxOutcome::Delivered;
        }
        self.stats.bits_flipped += flips;
        self.stats.frames_corrupted += 1;
        let escaped = self.rng.gen_bool(CRC_ESCAPE_P);
        if escaped {
            self.stats.crc_escapes += 1;
        }
        TxOutcome::Corrupted { escaped }
    }

    /// Draws the event-wire outcome for one accelerator run.
    pub fn eoc(&mut self) -> EocOutcome {
        if self.cfg.stuck_eoc || self.cfg.stuck_fetch_enable {
            self.stats.stuck_wire_events += 1;
            return EocOutcome::Hang;
        }
        if self.cfg.hang_rate > 0.0 && self.rng.gen_bool(self.cfg.hang_rate) {
            self.stats.hangs += 1;
            return EocOutcome::Hang;
        }
        if self.cfg.late_eoc_rate > 0.0 && self.rng.gen_bool(self.cfg.late_eoc_rate) {
            self.stats.late_eocs += 1;
            return EocOutcome::Late(self.cfg.late_eoc_cycles);
        }
        EocOutcome::OnTime
    }

    /// Number of bits flipped in an `n`-bit frame, via geometric gap
    /// sampling (O(flips), not O(bits)). A NaN rate flips nothing, as a
    /// NaN rate of any other fault fires nothing.
    fn count_bit_flips(&mut self, n_bits: usize) -> u64 {
        let p = self.cfg.bit_error_rate;
        if p.is_nan() || p <= 0.0 || n_bits == 0 {
            return 0;
        }
        if p >= 1.0 {
            return n_bits as u64;
        }
        let ln_q = (1.0 - p).ln();
        if ln_q == 0.0 {
            // p below f64 resolution: a flip effectively never fires.
            return 0;
        }
        let mut flips = 0;
        let mut pos = 0.0f64;
        loop {
            // Geometric gap: number of surviving bits before the next flip.
            let u = self.rng.next_f64().max(f64::MIN_POSITIVE);
            pos += (u.ln() / ln_q).floor();
            if pos >= n_bits as f64 {
                return flips;
            }
            flips += 1;
            pos += 1.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn default_config_is_inactive_and_transparent() {
        assert!(!FaultConfig::default().is_active());
        let mut inj = FaultInjector::new(FaultConfig::default());
        assert_eq!(inj.assess(1024), TxOutcome::Delivered);
        assert_eq!(inj.eoc(), EocOutcome::OnTime);
        assert_eq!(inj.stats().bits_flipped, 0);
    }

    #[test]
    fn same_seed_replays_the_same_fault_sequence() {
        let c = FaultConfig {
            bit_error_rate: 1e-3,
            drop_rate: 0.05,
            truncate_rate: 0.05,
            hang_rate: 0.1,
            ..cfg(0xFA_017)
        };
        let run = || {
            let mut inj = FaultInjector::new(c);
            let outcomes: Vec<TxOutcome> = (0..200).map(|_| inj.assess(256)).collect();
            let eocs: Vec<EocOutcome> = (0..50).map(|_| inj.eoc()).collect();
            (outcomes, eocs, *inj.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bit_error_rate_tracks_expectation() {
        let c = FaultConfig {
            bit_error_rate: 1e-3,
            ..cfg(3)
        };
        let mut inj = FaultInjector::new(c);
        let frames = 2000usize;
        let bytes = 128usize;
        for _ in 0..frames {
            let _ = inj.assess(bytes);
        }
        let expect = frames as f64 * bytes as f64 * 8.0 * 1e-3;
        let got = inj.stats().bits_flipped as f64;
        assert!((got - expect).abs() / expect < 0.15, "{got} vs {expect}");
    }

    #[test]
    fn nan_bit_error_rate_flips_nothing() {
        // Another rate keeps the injector active, so every frame reaches
        // the bit-flip draw.
        let mut inj = FaultInjector::new(FaultConfig {
            bit_error_rate: f64::NAN,
            drop_rate: 0.01,
            ..cfg(1)
        });
        assert!(inj.is_active());
        for _ in 0..100 {
            assert!(!matches!(inj.assess(64), TxOutcome::Corrupted { .. }));
        }
        assert_eq!(inj.stats().bits_flipped, 0);
    }

    #[test]
    fn dropped_and_truncated_frames_counted() {
        // Every non-dropped frame is truncated: the two counters partition
        // the total.
        let c = FaultConfig {
            drop_rate: 0.5,
            truncate_rate: 1.0,
            ..cfg(11)
        };
        let mut inj = FaultInjector::new(c);
        for _ in 0..100 {
            let _ = inj.assess(10);
        }
        let s = inj.stats();
        assert_eq!(s.frames, 100);
        assert_eq!(s.frames_dropped + s.frames_truncated, 100);
        assert!(s.frames_dropped > 20 && s.frames_truncated > 10);
    }

    #[test]
    fn stuck_wires_always_hang() {
        let mut inj = FaultInjector::new(FaultConfig {
            stuck_eoc: true,
            ..cfg(0)
        });
        for _ in 0..10 {
            assert_eq!(inj.eoc(), EocOutcome::Hang);
        }
        assert_eq!(inj.stats().stuck_wire_events, 10);

        let mut inj = FaultInjector::new(FaultConfig {
            stuck_fetch_enable: true,
            ..cfg(0)
        });
        assert_eq!(inj.eoc(), EocOutcome::Hang);
    }

    #[test]
    fn late_eoc_reports_the_configured_delay() {
        let c = FaultConfig {
            late_eoc_rate: 1.0,
            late_eoc_cycles: 4096,
            ..cfg(5)
        };
        let mut inj = FaultInjector::new(c);
        assert_eq!(inj.eoc(), EocOutcome::Late(4096));
        assert_eq!(inj.stats().late_eocs, 1);
    }
}
