//! # ulp-power — power and energy models for the heterogeneous platform
//!
//! Reimplements the paper's power methodology (§IV-A):
//!
//! > "we derived our leakage and dynamic power with backannotated switching
//! > activities from three power analysis input vectors: *idle*, *matmul*
//! > and *dma* … The average dynamic power consumed over a benchmark is
//! > computed from the following model:
//! > P_d = f_clk · Σᵢ (χ_i,idle·ρ_i,idle + χ_i,run·ρ_i,run + χ_i,dma·ρ_i,dma)"
//!
//! where χᵢ are component activity ratios measured by the performance
//! monitoring unit (here: [`ClusterActivity`](ulp_cluster::ClusterActivity)
//! from a simulation run) and ρᵢ
//! are per-component dynamic power densities. Leakage and maximum frequency
//! are tabulated per supply voltage (0.5 V – 1.0 V in 100 mV steps, like
//! the post-layout analysis of the PULP3 chip) and interpolated with a
//! simple polynomial model at intermediate points.
//!
//! The coefficient values are **calibrated, not measured**: the STM 28 nm
//! FD-SOI libraries are proprietary, so [`PulpPowerModel::pulp3`] ships
//! coefficients fitted to the published anchors (peak matmul efficiency
//! ≈ 304 GOPS/W at ≈ 1.48 mW; ≈ 60 GOPS/W-class cluster at nominal
//! voltage). See `DESIGN.md` for the substitution rationale.
//!
//! # Example
//!
//! ```
//! use ulp_power::PulpPowerModel;
//!
//! let model = PulpPowerModel::pulp3();
//! let f = model.fmax_hz(0.65);
//! assert!(f > model.fmax_hz(0.6) && f < model.fmax_hz(0.7));
//!
//! // Highest frequency sustainable in a 5 mW envelope, fully active:
//! let op = model.max_freq_under_power(5.0e-3, &ulp_power::busy_activity(4, 8)).unwrap();
//! assert!(op.total_power_w <= 5.0e-3 * 1.0001);
//! ```

pub mod interp;
pub mod model;

pub use model::{busy_activity, EnvelopePoint, PulpPowerModel};

/// Billions of (RISC) operations per second, the throughput unit of the
/// paper's Fig. 3.
#[must_use]
pub fn gops(ops: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    ops as f64 / seconds / 1.0e9
}

/// Energy efficiency in GOPS/W given a throughput and a power.
#[must_use]
pub fn gops_per_watt(gops: f64, watts: f64) -> f64 {
    if watts <= 0.0 {
        return 0.0;
    }
    gops / watts
}

/// Convenience: energy in joules from average power and duration.
#[must_use]
pub fn energy_joules(watts: f64, seconds: f64) -> f64 {
    watts * seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gops_math() {
        assert!((gops(2_400_000, 1.0e-3) - 2.4).abs() < 1e-12);
        assert_eq!(gops(100, 0.0), 0.0);
        assert!((gops_per_watt(0.45, 1.48e-3) - 304.05).abs() < 0.5);
        assert_eq!(gops_per_watt(1.0, 0.0), 0.0);
    }

    #[test]
    fn energy_is_power_times_time() {
        assert!((energy_joules(2.0e-3, 0.5) - 1.0e-3).abs() < 1e-15);
    }
}
