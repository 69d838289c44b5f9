//! # ulp-mcu — host microcontroller models
//!
//! The host side of the heterogeneous platform: a Cortex-M-class core with
//! flat single-cycle SRAM, plus datasheet-derived device descriptions
//! (operating points, run/sleep currents) for the commercial MCUs the
//! paper's Fig. 3 compares against:
//!
//! | device | core | f_max | run current |
//! |---|---|---|---|
//! | STM32-L476 | M4 | 80 MHz | ≈100 µA/MHz |
//! | STM32-F407 | M4 | 168 MHz | ≈238 µA/MHz |
//! | STM32-F446 | M4 | 180 MHz | ≈112 µA/MHz |
//! | NXP LPC1800 | M3 | 180 MHz | ≈180 µA/MHz |
//! | SiliconLabs EFM32 | M3 | 48 MHz | ≈200 µA/MHz |
//! | TI MSP430 | 16-bit | 25 MHz | ≈100 µA/MHz |
//! | Ambiq Apollo | M4 | 24 MHz | ≈34 µA/MHz |
//!
//! Values are *typical-range approximations* transcribed from the public
//! datasheets the paper cites; see `DESIGN.md` for the calibration policy.
//! The paper models Cortex-M3 execution "by running the code on the
//! STM32-L476 with all Cortex-M4 specific flags deactivated" — we do the
//! same through [`ulp_isa::CoreModel::cortex_m3`]. The MSP430 is a 16-bit
//! machine; it reuses the M3 timing model with a
//! [`cycle_factor`](McuDevice::cycle_factor) representing the extra
//! instructions 32-bit arithmetic costs on a 16-bit datapath.
//!
//! # Example
//!
//! ```
//! use ulp_mcu::{datasheet, Mcu};
//! use ulp_isa::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! a.li(R1, 6);
//! a.mul(R2, R1, R1);
//! a.halt();
//! let prog = a.finish()?;
//!
//! let mut mcu = Mcu::new(datasheet::stm32l476(), 32.0e6);
//! let run = mcu.run_program(&prog, &[])?;
//! assert_eq!(mcu.reg(R2), 36);
//! assert!(run.seconds > 0.0 && run.energy_joules > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod device;
pub mod host;

pub use device::{datasheet, HostCoreKind, McuDevice};
pub use host::{Mcu, McuRun};

/// Base address of the host's unified code+data SRAM.
pub const MCU_MEM_BASE: u32 = 0x2000_0000;
/// Size of the host memory window (code + data + stack).
pub const MCU_MEM_SIZE: usize = 256 * 1024;
/// Conventional base address for kernel data buffers on the host.
pub const MCU_DATA_BASE: u32 = MCU_MEM_BASE + 0x1_0000;
