//! The PULP3 cluster power model: operating points, activity-weighted
//! dynamic power, and the power-envelope solver used for the paper's
//! Fig. 5a.

use ulp_cluster::ClusterActivity;

use crate::interp::{lagrange, log_linear};

/// Supply voltages of the tabulated operating points (V).
const VDD_ANCHORS: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// An operating point selected by the envelope solver.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EnvelopePoint {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Clock frequency in hertz.
    pub freq_hz: f64,
    /// Total (leakage + dynamic) power at this point, in watts.
    pub total_power_w: f64,
    /// Whether the point is limited by timing (`fmax`) rather than by the
    /// power budget.
    pub timing_limited: bool,
}

/// Per-component dynamic power densities at the reference voltage (0.5 V),
/// in watts per hertz. Densities scale with `(VDD/0.5)²`.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Densities {
    core_run: f64,
    core_idle: f64,
    fetch_path: f64,
    tcdm_bank: f64,
    interconnect: f64,
    dma: f64,
    soc_always_on: f64,
}

/// Activity-driven power model of the PULP cluster.
///
/// See the [crate documentation](crate) for the modelling approach and the
/// calibration caveat.
///
/// # Example
///
/// ```
/// use ulp_power::{busy_activity, PulpPowerModel};
///
/// let model = PulpPowerModel::pulp3();
/// let activity = busy_activity(4, 8);
/// // Total power at the lowest operating point sits near the paper's
/// // 1.48 mW anchor.
/// let p = model.total_power_w(model.fmax_hz(0.5), 0.5, &activity);
/// assert!(p > 1.0e-3 && p < 2.0e-3);
/// ```
#[derive(Clone, Debug)]
pub struct PulpPowerModel {
    fmax_mhz: [f64; 6],
    leak_w: [f64; 6],
    dens: Densities,
}

impl PulpPowerModel {
    /// The calibrated PULP3 (28 nm FD-SOI, quad-core) model.
    ///
    /// Anchor intent (paper §IV): peak matmul efficiency ≈ 304 GOPS/W at a
    /// total power of ≈ 1.48 mW near the lowest operating point, with
    /// commercial MCUs below 5 GOPS/W at comparable power.
    #[must_use]
    pub fn pulp3() -> Self {
        PulpPowerModel {
            // Max frequency vs VDD from (synthetic) post-layout timing.
            fmax_mhz: [60.0, 150.0, 250.0, 340.0, 410.0, 460.0],
            // Leakage vs VDD (W); near-exponential growth.
            leak_w: [0.08e-3, 0.13e-3, 0.20e-3, 0.32e-3, 0.48e-3, 0.70e-3],
            dens: Densities {
                core_run: 2.9e-12,
                core_idle: 0.25e-12,
                fetch_path: 3.6e-12,
                tcdm_bank: 0.9e-12,
                interconnect: 1.9e-12,
                dma: 1.5e-12,
                soc_always_on: 1.3e-12,
            },
        }
    }

    /// A PULP3-derived model with scaled operating tables, for successor
    /// platforms (newer process node, wider cluster) whose silicon has
    /// not been characterized: `fmax_scale` multiplies the frequency
    /// table, `leak_scale` the leakage table, and `density_scale` every
    /// dynamic power density. All scales at 1.0 reproduce
    /// [`PulpPowerModel::pulp3`] bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite scale factors — a zero or
    /// negative table would silently break the envelope solver.
    #[must_use]
    pub fn pulp3_scaled(fmax_scale: f64, leak_scale: f64, density_scale: f64) -> Self {
        for (name, s) in [
            ("fmax_scale", fmax_scale),
            ("leak_scale", leak_scale),
            ("density_scale", density_scale),
        ] {
            assert!(s.is_finite() && s > 0.0, "{name} must be positive, got {s}");
        }
        let base = Self::pulp3();
        let d = base.dens;
        PulpPowerModel {
            fmax_mhz: base.fmax_mhz.map(|f| f * fmax_scale),
            leak_w: base.leak_w.map(|l| l * leak_scale),
            dens: Densities {
                core_run: d.core_run * density_scale,
                core_idle: d.core_idle * density_scale,
                fetch_path: d.fetch_path * density_scale,
                tcdm_bank: d.tcdm_bank * density_scale,
                interconnect: d.interconnect * density_scale,
                dma: d.dma * density_scale,
                soc_always_on: d.soc_always_on * density_scale,
            },
        }
    }

    /// Supply range covered by the model.
    #[must_use]
    pub fn vdd_range(&self) -> (f64, f64) {
        (VDD_ANCHORS[0], VDD_ANCHORS[5])
    }

    /// Maximum clock frequency at `vdd`, polynomial-interpolated between
    /// the tabulated 100 mV operating points.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is outside the tabulated 0.5–1.0 V range.
    #[must_use]
    pub fn fmax_hz(&self, vdd: f64) -> f64 {
        assert!(
            (0.5..=1.0).contains(&vdd),
            "vdd {vdd} outside the 0.5-1.0 V range"
        );
        lagrange(&VDD_ANCHORS, &self.fmax_mhz, vdd).max(0.0) * 1.0e6
    }

    /// Leakage power at `vdd` (log-linear interpolation).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is outside the tabulated 0.5–1.0 V range.
    #[must_use]
    pub fn leakage_w(&self, vdd: f64) -> f64 {
        assert!(
            (0.5..=1.0).contains(&vdd),
            "vdd {vdd} outside the 0.5-1.0 V range"
        );
        log_linear(&VDD_ANCHORS, &self.leak_w, vdd)
    }

    fn density_scale(vdd: f64) -> f64 {
        (vdd / 0.5).powi(2)
    }

    /// Effective dynamic power density (W/Hz) for the activity mix of a
    /// run: Σᵢ χᵢ·ρᵢ of the paper's model.
    #[must_use]
    pub fn effective_density(&self, vdd: f64, activity: &ClusterActivity) -> f64 {
        let d = &self.dens;
        let n_cores = activity.core_active_cycles.len().max(1);
        let mut sum = 0.0;
        for i in 0..n_cores {
            let chi = activity.chi_core(i);
            sum += chi * d.core_run + (1.0 - chi) * d.core_idle;
        }
        let chi_fetch = activity.chi_cores_mean();
        sum += chi_fetch * d.fetch_path;
        sum += chi_fetch * d.interconnect;
        sum += activity.chi_tcdm() * d.tcdm_bank * activity.tcdm_banks.max(1) as f64;
        sum += activity.chi_dma() * d.dma;
        sum += d.soc_always_on;
        sum * Self::density_scale(vdd)
    }

    /// Dynamic power P_d = f · Σᵢ χᵢ·ρᵢ at the given frequency and supply.
    #[must_use]
    pub fn dynamic_power_w(&self, freq_hz: f64, vdd: f64, activity: &ClusterActivity) -> f64 {
        freq_hz * self.effective_density(vdd, activity)
    }

    /// Total power: leakage plus dynamic.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is outside the tabulated range.
    #[must_use]
    pub fn total_power_w(&self, freq_hz: f64, vdd: f64, activity: &ClusterActivity) -> f64 {
        self.leakage_w(vdd) + self.dynamic_power_w(freq_hz, vdd, activity)
    }

    /// Finds the operating point maximizing clock frequency within a power
    /// budget, for a given activity mix — the Fig. 5a question: "as the MCU
    /// frequency is lowered, the power available for the accelerator is
    /// more, therefore it is possible to operate it at a higher frequency".
    ///
    /// Searches the supply range in 5 mV steps; at each voltage the
    /// frequency is the lower of `fmax(VDD)` and the budget-limited
    /// frequency. Returns `None` if even the lowest operating point's
    /// leakage exceeds the budget.
    #[must_use]
    pub fn max_freq_under_power(
        &self,
        budget_w: f64,
        activity: &ClusterActivity,
    ) -> Option<EnvelopePoint> {
        let mut best: Option<EnvelopePoint> = None;
        let mut vdd: f64 = 0.5;
        while vdd <= 1.0 + 1e-9 {
            let v = vdd.min(1.0);
            let leak = self.leakage_w(v);
            if leak < budget_w {
                let f_budget = (budget_w - leak) / self.effective_density(v, activity);
                let fmax = self.fmax_hz(v);
                let (f, timing_limited) = if f_budget >= fmax {
                    (fmax, true)
                } else {
                    (f_budget, false)
                };
                let point = EnvelopePoint {
                    vdd: v,
                    freq_hz: f,
                    total_power_w: self.total_power_w(f, v, activity),
                    timing_limited,
                };
                if best.is_none_or(|b| point.freq_hz > b.freq_hz) {
                    best = Some(point);
                }
            }
            vdd += 0.005;
        }
        best
    }

    /// Energy consumed by a run of `cycles` cycles at `(freq_hz, vdd)`.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not positive or `vdd` is out of range.
    #[must_use]
    pub fn energy_joules(
        &self,
        cycles: u64,
        freq_hz: f64,
        vdd: f64,
        activity: &ClusterActivity,
    ) -> f64 {
        assert!(freq_hz > 0.0, "frequency must be positive");
        let seconds = cycles as f64 / freq_hz;
        self.total_power_w(freq_hz, vdd, activity) * seconds
    }
}

impl Default for PulpPowerModel {
    fn default() -> Self {
        PulpPowerModel::pulp3()
    }
}

/// A synthetic fully-busy activity mix (all cores running, moderate TCDM
/// traffic), handy for envelope calculations before a real run exists.
#[must_use]
pub fn busy_activity(num_cores: usize, tcdm_banks: usize) -> ClusterActivity {
    ClusterActivity {
        total_cycles: 1000,
        core_active_cycles: vec![1000; num_cores],
        core_retired: vec![1000; num_cores],
        tcdm_busy_cycles: (1000 * tcdm_banks as u64) * 3 / 10,
        tcdm_banks,
        tcdm_conflicts: 0,
        icache_hits: 1000 * num_cores as u64,
        icache_misses: 0,
        l2_accesses: 0,
        dma_busy_cycles: 0,
        dma_bytes: 0,
        barriers: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PulpPowerModel {
        PulpPowerModel::pulp3()
    }

    #[test]
    fn fmax_monotone_in_vdd() {
        let m = model();
        let mut prev = 0.0;
        let mut v = 0.5;
        while v <= 1.0 {
            let f = m.fmax_hz(v);
            assert!(f > prev, "fmax must increase with vdd at {v}");
            prev = f;
            v += 0.01;
        }
    }

    #[test]
    fn leakage_monotone_and_in_band() {
        let m = model();
        assert!((m.leakage_w(0.5) - 0.08e-3).abs() < 1e-9);
        assert!((m.leakage_w(1.0) - 0.70e-3).abs() < 1e-9);
        assert!(m.leakage_w(0.55) > m.leakage_w(0.5));
        assert!(m.leakage_w(0.55) < m.leakage_w(0.6));
    }

    #[test]
    fn full_activity_density_near_24uw_per_mhz_at_low_vdd() {
        let m = model();
        let act = busy_activity(4, 8);
        let density = m.effective_density(0.5, &act);
        let uw_per_mhz = density * 1.0e12;
        assert!(
            (18.0..30.0).contains(&uw_per_mhz),
            "cluster density {uw_per_mhz:.1} µW/MHz out of the calibrated band"
        );
    }

    #[test]
    fn idle_cluster_draws_far_less_than_busy() {
        let m = model();
        let busy = busy_activity(4, 8);
        let idle = ClusterActivity {
            total_cycles: 1000,
            core_active_cycles: vec![0; 4],
            core_retired: vec![0; 4],
            tcdm_banks: 8,
            ..ClusterActivity::default()
        };
        let p_busy = m.dynamic_power_w(60.0e6, 0.5, &busy);
        let p_idle = m.dynamic_power_w(60.0e6, 0.5, &idle);
        assert!(
            p_idle < p_busy / 5.0,
            "clock-gated cores must slash dynamic power"
        );
    }

    #[test]
    fn density_scales_quadratically_with_vdd() {
        let m = model();
        let act = busy_activity(4, 8);
        let r = m.effective_density(1.0, &act) / m.effective_density(0.5, &act);
        assert!((r - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lowest_op_point_power_matches_paper_anchor() {
        // Paper: "peak energy efficiency shown by PULP is of 304 GOPS/W with
        // a power consumption of 1.48 mW". At 0.5 V / fmax with a busy
        // matmul-like mix the model must land near that power.
        let m = model();
        let act = busy_activity(4, 8);
        let p = m.total_power_w(m.fmax_hz(0.5), 0.5, &act);
        assert!(
            (1.1e-3..1.9e-3).contains(&p),
            "lowest-OP power {:.3} mW outside the 1.48 mW anchor band",
            p * 1e3
        );
    }

    #[test]
    fn envelope_solver_respects_budget() {
        // Dense sweep over 0.3–40 mW: the chosen point never exceeds its
        // budget, stays inside the modelled supply range and timing
        // limit, and 10% more budget never yields a slower point.
        let m = model();
        let act = busy_activity(4, 8);
        for step in 0..=397 {
            let budget = (0.3 + 0.1 * f64::from(step)) * 1e-3;
            let Some(op) = m.max_freq_under_power(budget, &act) else {
                continue;
            };
            assert!(
                op.total_power_w <= budget * 1.0001,
                "budget {budget} violated"
            );
            assert!(op.freq_hz > 0.0);
            assert!((0.5..=1.0).contains(&op.vdd), "vdd {} at {budget}", op.vdd);
            assert!(op.freq_hz <= m.fmax_hz(op.vdd) * 1.0001);
            if let Some(more) = m.max_freq_under_power(budget * 1.1, &act) {
                assert!(
                    more.freq_hz >= op.freq_hz * 0.999,
                    "more budget than {budget} ran slower"
                );
            }
        }
    }

    #[test]
    fn power_is_smooth_across_the_supply_range() {
        // No cliffs between adjacent operating points: the envelope
        // solver relies on it.
        let m = model();
        let act = busy_activity(4, 8);
        let mut prev: Option<f64> = None;
        for step in 0..=50 {
            let v = 0.5 + 0.01 * f64::from(step);
            let p = m.total_power_w(m.fmax_hz(v), v, &act);
            if let Some(q) = prev {
                let ratio = p / q;
                assert!(
                    (0.9..1.6).contains(&ratio),
                    "power cliff at {v:.3} V: ×{ratio:.2}"
                );
            }
            prev = Some(p);
        }
    }

    #[test]
    fn envelope_freq_grows_with_budget() {
        let m = model();
        let act = busy_activity(4, 8);
        let f1 = m.max_freq_under_power(2.0e-3, &act).unwrap().freq_hz;
        let f2 = m.max_freq_under_power(6.0e-3, &act).unwrap().freq_hz;
        let f3 = m.max_freq_under_power(9.5e-3, &act).unwrap().freq_hz;
        assert!(f1 < f2 && f2 < f3);
        // Around the paper's ~9.5 mW residual budget the cluster should run
        // in the low hundreds of MHz.
        assert!(
            (120.0e6..350.0e6).contains(&f3),
            "9.5 mW operating frequency {:.0} MHz outside the plausible band",
            f3 / 1e6
        );
    }

    #[test]
    fn huge_budget_is_timing_limited_at_nominal() {
        let m = model();
        let act = busy_activity(4, 8);
        let op = m.max_freq_under_power(1.0, &act).unwrap();
        assert!(op.timing_limited);
        assert!((op.freq_hz - m.fmax_hz(1.0)).abs() < 1.0);
        assert!((op.vdd - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tiny_budget_yields_none() {
        let m = model();
        let act = busy_activity(4, 8);
        assert!(m.max_freq_under_power(0.01e-3, &act).is_none());
    }

    #[test]
    fn energy_scales_with_cycles() {
        let m = model();
        let act = busy_activity(4, 8);
        let e1 = m.energy_joules(1_000_000, 60.0e6, 0.5, &act);
        let e2 = m.energy_joules(2_000_000, 60.0e6, 0.5, &act);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unit_scales_reproduce_pulp3_exactly() {
        let base = model();
        let scaled = PulpPowerModel::pulp3_scaled(1.0, 1.0, 1.0);
        let act = busy_activity(4, 8);
        for vdd in [0.5, 0.65, 0.8, 1.0] {
            assert_eq!(base.fmax_hz(vdd).to_bits(), scaled.fmax_hz(vdd).to_bits());
            assert_eq!(
                base.leakage_w(vdd).to_bits(),
                scaled.leakage_w(vdd).to_bits()
            );
            assert_eq!(
                base.total_power_w(base.fmax_hz(vdd), vdd, &act).to_bits(),
                scaled
                    .total_power_w(scaled.fmax_hz(vdd), vdd, &act)
                    .to_bits()
            );
        }
    }

    #[test]
    fn scaled_tables_move_in_the_stated_direction() {
        let base = model();
        let succ = PulpPowerModel::pulp3_scaled(1.5, 1.2, 0.8);
        let act = busy_activity(8, 16);
        assert!(succ.fmax_hz(0.65) > base.fmax_hz(0.65) * 1.49);
        assert!(succ.leakage_w(0.65) > base.leakage_w(0.65));
        assert!(
            succ.dynamic_power_w(100.0e6, 0.65, &act) < base.dynamic_power_w(100.0e6, 0.65, &act)
        );
    }

    #[test]
    #[should_panic(expected = "fmax_scale must be positive")]
    fn zero_scale_is_rejected() {
        let _ = PulpPowerModel::pulp3_scaled(0.0, 1.0, 1.0);
    }
}
