//! Commercial MCU device descriptions (datasheet operating points).

use std::fmt;

use ulp_isa::CoreModel;

/// Host core families appearing in the paper's comparison.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HostCoreKind {
    /// ARM Cortex-M3 (ARMv7-M).
    CortexM3,
    /// ARM Cortex-M4 (ARMv7E-M).
    CortexM4,
    /// 16-bit RISC (TI MSP430 family), modelled as an M3 with a cycle
    /// factor for 32-bit arithmetic.
    Msp430,
}

impl HostCoreKind {
    /// The UIR core model used to estimate cycle counts for this family.
    #[must_use]
    pub fn core_model(self) -> CoreModel {
        match self {
            HostCoreKind::CortexM3 | HostCoreKind::Msp430 => CoreModel::cortex_m3(),
            HostCoreKind::CortexM4 => CoreModel::cortex_m4(),
        }
    }
}

impl fmt::Display for HostCoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostCoreKind::CortexM3 => f.write_str("cortex-m3"),
            HostCoreKind::CortexM4 => f.write_str("cortex-m4"),
            HostCoreKind::Msp430 => f.write_str("msp430"),
        }
    }
}

/// Datasheet-level description of a commercial microcontroller.
///
/// Run power follows the near-universal MCU datasheet convention of a
/// µA/MHz figure at a supply voltage: `P(f) = ua_per_mhz · f_MHz · VDD`.
#[derive(Clone, Debug, PartialEq)]
pub struct McuDevice {
    /// Marketing name.
    pub name: &'static str,
    /// Core family.
    pub core: HostCoreKind,
    /// Maximum clock frequency in hertz.
    pub fmax_hz: f64,
    /// Typical run current per MHz, in amperes per MHz.
    pub ua_per_mhz: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Deep-sleep (retention) current in amperes.
    pub sleep_a: f64,
    /// Multiplier on simulated cycle counts (1.0 for 32-bit ARM cores;
    /// >1 for the 16-bit MSP430 executing 32-bit arithmetic).
    pub cycle_factor: f64,
    /// Representative operating frequencies for efficiency sweeps (Hz).
    pub sweep_hz: &'static [f64],
}

impl McuDevice {
    /// Active power at clock frequency `freq_hz`, in watts.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` exceeds the device's maximum frequency.
    #[must_use]
    pub fn run_power_w(&self, freq_hz: f64) -> f64 {
        assert!(
            freq_hz <= self.fmax_hz * 1.0001,
            "{} cannot clock at {:.1} MHz (max {:.1})",
            self.name,
            freq_hz / 1e6,
            self.fmax_hz / 1e6
        );
        self.ua_per_mhz * 1.0e-6 * (freq_hz / 1.0e6) * self.vdd
    }

    /// Deep-sleep power in watts.
    #[must_use]
    pub fn sleep_power_w(&self) -> f64 {
        self.sleep_a * self.vdd
    }

    /// Effective cycle count for this device given a simulated cycle count
    /// from its [`HostCoreKind::core_model`].
    #[must_use]
    pub fn effective_cycles(&self, simulated_cycles: u64) -> u64 {
        (simulated_cycles as f64 * self.cycle_factor).round() as u64
    }
}

impl fmt::Display for McuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.core)
    }
}

/// The seven commercial devices of the paper's Fig. 3, with typical-range
/// datasheet numbers.
pub mod datasheet {
    use super::{HostCoreKind, McuDevice};

    /// STMicroelectronics STM32-L476: the paper's host MCU (ULP Cortex-M4).
    #[must_use]
    pub fn stm32l476() -> McuDevice {
        McuDevice {
            name: "STM32-L476",
            core: HostCoreKind::CortexM4,
            fmax_hz: 80.0e6,
            ua_per_mhz: 100.0,
            vdd: 3.0,
            sleep_a: 6.5e-6,
            cycle_factor: 1.0,
            sweep_hz: &[
                80.0e6, 48.0e6, 32.0e6, 26.0e6, 16.0e6, 8.0e6, 4.0e6, 2.0e6, 1.0e6,
            ],
        }
    }

    /// STMicroelectronics STM32-F407: high-performance Cortex-M4.
    #[must_use]
    pub fn stm32f407() -> McuDevice {
        McuDevice {
            name: "STM32-F407",
            core: HostCoreKind::CortexM4,
            fmax_hz: 168.0e6,
            ua_per_mhz: 238.0,
            vdd: 3.3,
            sleep_a: 350.0e-6,
            cycle_factor: 1.0,
            sweep_hz: &[168.0e6, 84.0e6, 42.0e6],
        }
    }

    /// STMicroelectronics STM32-F446: efficiency-improved Cortex-M4.
    #[must_use]
    pub fn stm32f446() -> McuDevice {
        McuDevice {
            name: "STM32-F446",
            core: HostCoreKind::CortexM4,
            fmax_hz: 180.0e6,
            ua_per_mhz: 112.0,
            vdd: 3.3,
            sleep_a: 300.0e-6,
            cycle_factor: 1.0,
            sweep_hz: &[180.0e6, 90.0e6, 45.0e6],
        }
    }

    /// NXP LPC1800 series: high-speed Cortex-M3.
    #[must_use]
    pub fn nxp_lpc1800() -> McuDevice {
        McuDevice {
            name: "NXP LPC1800",
            core: HostCoreKind::CortexM3,
            fmax_hz: 180.0e6,
            ua_per_mhz: 180.0,
            vdd: 3.3,
            sleep_a: 250.0e-6,
            cycle_factor: 1.0,
            sweep_hz: &[180.0e6, 90.0e6, 45.0e6],
        }
    }

    /// SiliconLabs EFM32 Giant Gecko: low-energy Cortex-M3.
    #[must_use]
    pub fn efm32() -> McuDevice {
        McuDevice {
            name: "EFM32",
            core: HostCoreKind::CortexM3,
            fmax_hz: 48.0e6,
            ua_per_mhz: 200.0,
            vdd: 3.0,
            sleep_a: 1.0e-6,
            cycle_factor: 1.0,
            sweep_hz: &[48.0e6, 28.0e6, 14.0e6],
        }
    }

    /// Texas Instruments MSP430: 16-bit ULP MCU. 32-bit arithmetic is
    /// emulated on the 16-bit datapath (cycle factor 2.2).
    #[must_use]
    pub fn msp430() -> McuDevice {
        McuDevice {
            name: "MSP430",
            core: HostCoreKind::Msp430,
            fmax_hz: 25.0e6,
            ua_per_mhz: 100.0,
            vdd: 3.0,
            sleep_a: 0.5e-6,
            cycle_factor: 2.2,
            sweep_hz: &[25.0e6, 16.0e6, 8.0e6],
        }
    }

    /// Ambiq Apollo: subthreshold Cortex-M4, the most efficient commercial
    /// MCU in the comparison ("10 GOPS/W working at a low performance
    /// 24 MOPS operating point").
    #[must_use]
    pub fn ambiq_apollo() -> McuDevice {
        McuDevice {
            name: "Ambiq Apollo",
            core: HostCoreKind::CortexM4,
            fmax_hz: 24.0e6,
            ua_per_mhz: 34.0,
            vdd: 2.5,
            sleep_a: 0.15e-6,
            cycle_factor: 1.0,
            sweep_hz: &[24.0e6, 12.0e6],
        }
    }

    /// Every device of the Fig. 3 comparison.
    #[must_use]
    pub fn all() -> Vec<McuDevice> {
        vec![
            stm32l476(),
            stm32f407(),
            stm32f446(),
            nxp_lpc1800(),
            efm32(),
            msp430(),
            ambiq_apollo(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l476_at_32mhz_is_near_10mw() {
        // The Fig. 5 baseline: "clocking the STM32-L476 MCU at 32 MHz …
        // there is no additional room for acceleration" in a 10 mW budget.
        let p = datasheet::stm32l476().run_power_w(32.0e6);
        assert!(
            (8.0e-3..11.0e-3).contains(&p),
            "L476@32MHz draws {:.2} mW",
            p * 1e3
        );
    }

    #[test]
    fn apollo_is_most_efficient_commercial() {
        let devices = datasheet::all();
        let apollo = datasheet::ambiq_apollo();
        let eff = |d: &McuDevice| 1.0 / (d.ua_per_mhz * d.vdd * d.cycle_factor);
        for d in &devices {
            assert!(
                eff(&apollo) >= eff(d),
                "{} must not beat the Apollo in MCU efficiency",
                d.name
            );
        }
    }

    #[test]
    fn power_scales_linearly_with_frequency() {
        let d = datasheet::stm32f407();
        let p1 = d.run_power_w(42.0e6);
        let p2 = d.run_power_w(84.0e6);
        assert!((p2 / p1 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot clock")]
    fn overclocking_rejected() {
        let _ = datasheet::msp430().run_power_w(100.0e6);
    }

    #[test]
    fn sleep_far_below_run() {
        for d in datasheet::all() {
            assert!(
                d.sleep_power_w() < d.run_power_w(d.fmax_hz) / 20.0,
                "{}",
                d.name
            );
        }
    }

    #[test]
    fn msp430_pays_its_16bit_tax() {
        let d = datasheet::msp430();
        assert_eq!(d.effective_cycles(1000), 2200);
        assert_eq!(datasheet::stm32l476().effective_cycles(1000), 1000);
    }

    #[test]
    fn core_models_match_families() {
        assert_eq!(HostCoreKind::CortexM4.core_model().name, "cortex-m4");
        assert_eq!(HostCoreKind::CortexM3.core_model().name, "cortex-m3");
        assert_eq!(HostCoreKind::Msp430.core_model().name, "cortex-m3");
    }

    #[test]
    fn sweep_frequencies_within_fmax() {
        for d in datasheet::all() {
            for &f in d.sweep_hz {
                assert!(f <= d.fmax_hz, "{} sweep point above fmax", d.name);
            }
        }
    }

    #[test]
    fn energy_example() {
        let d = datasheet::stm32l476();
        // 32 M cycles at 32 MHz = 1 s at ~9.6 mW.
        let e = d.run_power_w(32.0e6) * (32_000_000.0 / 32.0e6);
        assert!((e - 9.6e-3).abs() < 1e-4);
    }
}
