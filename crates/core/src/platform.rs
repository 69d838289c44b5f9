//! Bridge from declarative [`PlatformSpec`]s to the offload runtime.
//!
//! [`ulp_platform`] deliberately sits *below* this crate in the dependency
//! graph (it knows nothing about [`HetSystem`](crate::HetSystem)), so
//! platform specs and the kernel target environment are converted here:
//!
//! * [`config_from_platform`] — a validated spec becomes a
//!   [`HetSystemConfig`] at the platform's default operating point. The
//!   committed `platforms/m4-pulp3.toml` baseline reproduces
//!   [`HetSystemConfig::default`] field-for-field, bit-for-bit.
//! * [`config_at_vdd`] — the same platform pinned to another rung of its
//!   DVFS ladder (the power-envelope scheduler instantiates one planner
//!   per rung).
//! * [`cluster_env`] / [`host_env`] — the kernel-compilation
//!   [`TargetEnv`]s a config implies, honouring the platform's core count
//!   and ISA feature gates instead of the hard-coded quad-core OR10N.

use ulp_kernels::TargetEnv;
use ulp_platform::PlatformSpec;

use crate::system::HetSystemConfig;

/// Instantiates a system configuration from a platform spec at the
/// platform's default operating point.
#[must_use]
pub fn config_from_platform(spec: &PlatformSpec) -> HetSystemConfig {
    config_at_vdd(spec, spec.default_vdd)
}

/// Instantiates a system configuration from a platform spec pinned to a
/// specific supply voltage, clocked at that supply's `fmax`.
///
/// # Panics
///
/// Panics if `vdd` is outside the power tables' 0.5–1.0 V range (ladder
/// membership was already validated at parse time, so any rung of
/// [`PlatformSpec::vdd_points`] is safe).
#[must_use]
pub fn config_at_vdd(spec: &PlatformSpec, vdd: f64) -> HetSystemConfig {
    HetSystemConfig {
        mcu: spec.host.clone(),
        mcu_freq_hz: spec.mcu_freq_hz,
        link_width: spec.link_width,
        link_prescaler: spec.link_prescaler,
        link_clocking: spec.link_clocking,
        sensor_bandwidth: spec.sensor_bandwidth,
        cluster: spec.cluster,
        pulp_vdd: vdd,
        pulp_freq_hz: spec.power.fmax_hz(vdd),
        power: spec.power.clone(),
        ..HetSystemConfig::default()
    }
}

/// The accelerator-side kernel target a configuration implies: the
/// cluster's core model (with whatever ISA feature gates the platform
/// file set) across all of its cores, data in TCDM.
#[must_use]
pub fn cluster_env(cfg: &HetSystemConfig) -> TargetEnv {
    let mut env = TargetEnv::pulp_with_cores(cfg.cluster.num_cores);
    env.model = cfg.cluster.core_model;
    env
}

/// The host-side kernel target a configuration implies. Every device in
/// the datasheet catalog is Cortex-M4-class for code-generation purposes,
/// so this is the M4 environment; it exists so call sites derive both
/// sides of the split from one config.
#[must_use]
pub fn host_env(_cfg: &HetSystemConfig) -> TargetEnv {
    TargetEnv::host_m4()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_link::LinkClocking;
    use ulp_platform::PlatformError;

    const BASELINE: &str = include_str!("../../../platforms/m4-pulp3.toml");
    const SINGLE: &str = include_str!("../../../platforms/m4-pulp3-single.toml");
    const OCTA: &str = include_str!("../../../platforms/f407-pulp4-octa.toml");
    const TURBO: &str = include_str!("../../../platforms/f446-pulp5-turbo.toml");

    fn load(name: &str, text: &str) -> Result<PlatformSpec, PlatformError> {
        PlatformSpec::parse(name, text)
    }

    #[test]
    fn baseline_platform_reproduces_default_config_bit_for_bit() {
        let spec = load("m4-pulp3.toml", BASELINE).expect("baseline must parse");
        let cfg = config_from_platform(&spec);
        let def = HetSystemConfig::default();
        assert_eq!(cfg.mcu.name, def.mcu.name);
        assert_eq!(cfg.mcu_freq_hz.to_bits(), def.mcu_freq_hz.to_bits());
        assert_eq!(cfg.link_width, def.link_width);
        assert_eq!(cfg.link_prescaler, def.link_prescaler);
        assert_eq!(cfg.link_clocking, def.link_clocking);
        assert_eq!(
            cfg.sensor_bandwidth.to_bits(),
            def.sensor_bandwidth.to_bits()
        );
        assert_eq!(cfg.cluster, def.cluster);
        assert_eq!(cfg.pulp_vdd.to_bits(), def.pulp_vdd.to_bits());
        assert_eq!(cfg.pulp_freq_hz.to_bits(), def.pulp_freq_hz.to_bits());
        for vdd in [0.5, 0.65, 0.8, 1.0] {
            assert_eq!(
                cfg.power.fmax_hz(vdd).to_bits(),
                def.power.fmax_hz(vdd).to_bits()
            );
            assert_eq!(
                cfg.power.leakage_w(vdd).to_bits(),
                def.power.leakage_w(vdd).to_bits()
            );
        }
        assert_eq!(cfg.fault, def.fault);
    }

    #[test]
    fn every_committed_platform_builds_a_valid_system() {
        for (name, text) in [
            ("m4-pulp3.toml", BASELINE),
            ("m4-pulp3-single.toml", SINGLE),
            ("f407-pulp4-octa.toml", OCTA),
            ("f446-pulp5-turbo.toml", TURBO),
        ] {
            let spec = load(name, text).unwrap_or_else(|e| panic!("{e}"));
            let cfg = config_from_platform(&spec);
            cfg.cluster.validate();
            // Constructing the simulator exercises the freq-vs-fmax
            // assertion and the cluster shape checks.
            let _sys = crate::HetSystem::new(cfg.clone());
            // Every ladder rung must also be constructible.
            for &vdd in &spec.vdd_points {
                let _sys = crate::HetSystem::new(config_at_vdd(&spec, vdd));
            }
            let env = cluster_env(&cfg);
            assert_eq!(env.num_cores, spec.cluster.num_cores, "{name}");
            assert_eq!(env.model, spec.cluster.core_model, "{name}");
        }
    }

    #[test]
    fn successor_platforms_diverge_from_the_baseline() {
        let octa = load("octa.toml", OCTA).unwrap();
        assert_eq!(octa.cluster.num_cores, 8);
        // The successors keep the kernel-visible ISA at the baseline so
        // the reference-fitted cost model transfers (DESIGN.md §7e).
        assert!(!octa.cluster.core_model.features.post_increment);
        let cfg = config_from_platform(&octa);
        // The 1.5× fmax scale shows up in the default clock.
        let base = HetSystemConfig::default();
        assert!(cfg.pulp_freq_hz > base.pulp_freq_hz * 1.49);
        assert!(matches!(
            cfg.link_clocking,
            LinkClocking::Independent { .. }
        ));
    }

    #[test]
    fn config_at_vdd_walks_the_ladder_monotonically() {
        let spec = load("hexa.toml", TURBO).unwrap();
        let freqs: Vec<f64> = spec
            .vdd_points
            .iter()
            .map(|&v| config_at_vdd(&spec, v).pulp_freq_hz)
            .collect();
        assert!(freqs.windows(2).all(|w| w[0] < w[1]));
    }
}
