//! Declarative platform model for the heterogeneous accelerator stack.
//!
//! The paper fixes one platform — an STM32-L476 host coupled to a
//! quad-core PULP3 cluster over QSPI — but the serving layer schedules
//! across accelerator *generations*. This crate makes the platform a
//! datum instead of a constant: a [`PlatformSpec`] is loaded from a
//! declarative platform file (a strict TOML subset, see [`parse`])
//! describing the host MCU, the cluster shape, the ISA feature gates of
//! the cluster cores, the coupling-link clocking, and a ladder of DVFS
//! operating points whose frequency and power are drawn from the
//! calibrated [`ulp_power`] tables.
//!
//! Committed platform files live under `platforms/` at the repository
//! root; the `m4-pulp3` file reproduces the paper's prototype exactly, so
//! every fixed-platform golden stays byte-identical when it is selected.
//!
//! Parse and validation errors are contextful — file, line, and field —
//! per the repository's CLI error convention:
//!
//! ```
//! use ulp_platform::PlatformSpec;
//!
//! let err = PlatformSpec::parse("demo.toml", "name = \"x\"\n[host]\nwat = 3\n")
//!     .unwrap_err();
//! assert_eq!(err.to_string(),
//!            "demo.toml:3: field `host.wat`: unknown key (known keys: device, freq_mhz)");
//! ```

#![warn(missing_docs)]

pub mod parse;

use ulp_cluster::ClusterConfig;
use ulp_link::{LinkClocking, SpiWidth};
use ulp_mcu::McuDevice;
use ulp_power::{busy_activity, PulpPowerModel};

/// Checks a clock setting given in MHz — `what` names it in the error —
/// and returns it in Hz: it must be finite and positive.
///
/// # Errors
///
/// A message naming the clock when it is zero, negative, infinite or NaN.
pub fn clock_hz(what: &str, mhz: f64) -> Result<f64, String> {
    if mhz.is_finite() && mhz > 0.0 {
        Ok(mhz * 1e6)
    } else {
        Err(format!(
            "{what} must be a positive number of MHz, got {mhz}"
        ))
    }
}

/// Checks a host core clock given in MHz against `host`'s datasheet and
/// returns it in Hz: it must pass [`clock_hz`] and stay within the
/// device's fmax.
///
/// # Errors
///
/// A message naming the clock or the datasheet limit it exceeds.
pub fn host_clock_hz(host: &McuDevice, mhz: f64) -> Result<f64, String> {
    let hz = clock_hz("host clock", mhz)?;
    if hz > host.fmax_hz * 1.0001 {
        return Err(format!(
            "{mhz} MHz exceeds the {} datasheet fmax {:.0} MHz",
            host.name,
            host.fmax_hz / 1e6
        ));
    }
    Ok(hz)
}

/// One rung of a platform's DVFS ladder, with frequency and power
/// resolved against the platform's power model.
#[derive(Clone, Copy, Debug)]
pub struct OperatingPoint {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Maximum cluster clock at this supply, Hz.
    pub freq_hz: f64,
    /// Total cluster power (leakage + dynamic) at `freq_hz` under the
    /// all-cores-busy activity proxy, watts.
    pub busy_power_w: f64,
}

/// A fully validated platform definition.
///
/// Built by [`PlatformSpec::parse`] (or [`PlatformSpec::load`]) from a
/// platform file; every cross-field constraint — host frequency within
/// the datasheet limit, cluster shape the simulator accepts, operating
/// points inside the power tables — has already been checked, so
/// downstream constructors (`HetSystemConfig`, `ClusterConfig::validate`)
/// cannot panic on a spec that made it through.
#[derive(Clone, Debug)]
pub struct PlatformSpec {
    /// Platform name (the file's top-level `name` key).
    pub name: String,
    /// Host MCU, resolved from the datasheet catalog by name.
    pub host: McuDevice,
    /// Host core clock, Hz.
    pub mcu_freq_hz: f64,
    /// Coupling-link width.
    pub link_width: SpiWidth,
    /// Link clock prescaler from the driving clock.
    pub link_prescaler: u32,
    /// Link clock derivation scheme.
    pub link_clocking: LinkClocking,
    /// Direct sensor→accelerator interface bandwidth, bytes/s.
    pub sensor_bandwidth: f64,
    /// Cluster shape (cores, TCDM banks, caches) and core model with the
    /// file's ISA feature gates applied.
    pub cluster: ClusterConfig,
    /// Cluster power model (`pulp3` tables under the file's scale
    /// factors; unit scales reproduce the calibrated model bit-exactly).
    pub power: PulpPowerModel,
    /// The raw `[power]` scale factors `[fmax_scale, leak_scale,
    /// density_scale]` the model was built from, kept so a spec can be
    /// rendered back to file text ([`parse::render`]) without loss.
    pub power_scales: [f64; 3],
    /// DVFS ladder supplies, strictly ascending, volts.
    pub vdd_points: Vec<f64>,
    /// The supply the platform runs at by default (member of
    /// `vdd_points`).
    pub default_vdd: f64,
}

impl PlatformSpec {
    /// Parses and validates a platform file. `file` is the label used in
    /// error messages (conventionally the path).
    ///
    /// # Errors
    ///
    /// A contextful [`PlatformError`] naming the file, line, and field of
    /// the first problem found.
    pub fn parse(file: &str, text: &str) -> Result<PlatformSpec, PlatformError> {
        parse::parse(file, text)
    }

    /// Reads and parses a platform file from disk.
    ///
    /// # Errors
    ///
    /// A contextful [`PlatformError`]; an unreadable file reports the OS
    /// cause against line 0.
    pub fn load(path: &str) -> Result<PlatformSpec, PlatformError> {
        let text = std::fs::read_to_string(path).map_err(|e| PlatformError {
            file: path.to_owned(),
            line: 0,
            field: String::new(),
            message: format!("cannot read platform file: {e}"),
        })?;
        PlatformSpec::parse(path, &text)
    }

    /// The resolved DVFS ladder, ascending in voltage (and therefore in
    /// frequency and power). Each rung's power uses the all-cores-busy
    /// activity proxy for this platform's cluster shape.
    #[must_use]
    pub fn operating_points(&self) -> Vec<OperatingPoint> {
        let act = busy_activity(self.cluster.num_cores, self.cluster.tcdm_banks);
        self.vdd_points
            .iter()
            .map(|&vdd| {
                let freq_hz = self.power.fmax_hz(vdd);
                OperatingPoint {
                    vdd,
                    freq_hz,
                    busy_power_w: self.power.total_power_w(freq_hz, vdd, &act),
                }
            })
            .collect()
    }
}

/// A platform-file problem, located by file, line, and field.
///
/// `line` 0 means the problem is not attributable to a single line (an
/// unreadable file, a missing required section). `field` is
/// `section.key`, a bare section name, or empty for file-level problems.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlatformError {
    /// File label (the path given to the loader).
    pub file: String,
    /// 1-based line number, 0 when no single line is at fault.
    pub line: usize,
    /// Dotted field path (`section.key`), or empty.
    pub field: String,
    /// What is wrong and, where possible, what would be accepted.
    pub message: String,
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.file)?;
        if self.line > 0 {
            write!(f, ":{}", self.line)?;
        }
        if !self.field.is_empty() {
            write!(f, ": field `{}`", self.field)?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for PlatformError {}
