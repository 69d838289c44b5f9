//! Host MCU execution: a Cortex-M-class core over flat SRAM.

use std::error::Error;
use std::fmt;

use ulp_isa::{BusError, Core, CoreModel, ExecError, FlatMemory, Program, Reg};

use crate::device::McuDevice;
use crate::{MCU_MEM_BASE, MCU_MEM_SIZE};

/// Error raised while running a program on the host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McuError {
    /// The core faulted.
    Exec(ExecError),
    /// Loader or data access outside the SRAM window.
    Bus(BusError),
    /// The program exceeded the cycle budget.
    Timeout {
        /// The exceeded budget.
        max_cycles: u64,
    },
}

impl fmt::Display for McuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McuError::Exec(e) => write!(f, "host core faulted: {e}"),
            McuError::Bus(e) => write!(f, "host memory access failed: {e}"),
            McuError::Timeout { max_cycles } => {
                write!(f, "host program exceeded {max_cycles} cycles")
            }
        }
    }
}

impl Error for McuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            McuError::Exec(e) => Some(e),
            McuError::Bus(e) => Some(e),
            McuError::Timeout { .. } => None,
        }
    }
}

impl From<ExecError> for McuError {
    fn from(e: ExecError) -> Self {
        McuError::Exec(e)
    }
}

impl From<BusError> for McuError {
    fn from(e: BusError) -> Self {
        McuError::Bus(e)
    }
}

/// Outcome of a completed host run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct McuRun {
    /// Core cycles consumed (after the device's cycle factor).
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Wall-clock duration at the configured frequency.
    pub seconds: f64,
    /// Energy consumed at the device's run power.
    pub energy_joules: f64,
}

/// A host microcontroller: device description + core + SRAM.
///
/// See the [crate example](crate) for typical use.
#[derive(Clone, Debug)]
pub struct Mcu {
    device: McuDevice,
    freq_hz: f64,
    core: Core,
    mem: FlatMemory,
}

impl Mcu {
    /// Default cycle budget for [`Mcu::run_program`].
    pub const DEFAULT_MAX_CYCLES: u64 = 2_000_000_000;

    /// Creates a host MCU clocked at `freq_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` exceeds the device's maximum frequency or is not
    /// positive.
    #[must_use]
    pub fn new(device: McuDevice, freq_hz: f64) -> Self {
        assert!(freq_hz > 0.0, "frequency must be positive");
        assert!(
            freq_hz <= device.fmax_hz * 1.0001,
            "{} cannot clock at {:.1} MHz",
            device.name,
            freq_hz / 1.0e6
        );
        let model: CoreModel = device.core.core_model();
        Mcu {
            device,
            freq_hz,
            core: Core::new(0, model),
            mem: FlatMemory::new(MCU_MEM_BASE, MCU_MEM_SIZE),
        }
    }

    /// The device description.
    #[must_use]
    pub fn device(&self) -> &McuDevice {
        &self.device
    }

    /// Configured clock frequency in hertz.
    #[must_use]
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    /// Changes the clock frequency (DVFS).
    ///
    /// # Panics
    ///
    /// Panics if the frequency is invalid for the device.
    pub fn set_freq_hz(&mut self, freq_hz: f64) {
        assert!(freq_hz > 0.0 && freq_hz <= self.device.fmax_hz * 1.0001);
        self.freq_hz = freq_hz;
    }

    /// Selects whether [`Mcu::run_program`] uses the micro-op block engine
    /// (`true`, the default) or the classic one-instruction step loop
    /// (`false`). Both are bit-identical; see
    /// [`ulp_isa::Core::set_microop`].
    pub fn set_microop(&mut self, on: bool) {
        self.core.set_microop(on);
    }

    /// Reads a core register (for result inspection in tests/examples).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.core.reg(r)
    }

    /// Writes data into host SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::Bus`] outside the SRAM window.
    pub fn write_mem(&mut self, addr: u32, bytes: &[u8]) -> Result<(), McuError> {
        Ok(self.mem.write_bytes(addr, bytes)?)
    }

    /// Reads data from host SRAM.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::Bus`] outside the SRAM window.
    pub fn read_mem(&self, addr: u32, len: usize) -> Result<Vec<u8>, McuError> {
        Ok(self.mem.read_bytes(addr, len)?.to_vec())
    }

    /// Loads `prog` at the SRAM base and runs it to completion with the
    /// given initial register arguments, using the default cycle budget.
    ///
    /// # Errors
    ///
    /// Returns [`McuError`] on faults or timeout.
    pub fn run_program(&mut self, prog: &Program, args: &[(Reg, u32)]) -> Result<McuRun, McuError> {
        self.run_program_with_budget(prog, args, Self::DEFAULT_MAX_CYCLES)
    }

    /// Like [`Mcu::run_program`] with an explicit cycle budget.
    ///
    /// # Errors
    ///
    /// Returns [`McuError`] on faults or timeout.
    pub fn run_program_with_budget(
        &mut self,
        prog: &Program,
        args: &[(Reg, u32)],
        max_cycles: u64,
    ) -> Result<McuRun, McuError> {
        self.mem.load_program(prog, MCU_MEM_BASE)?;
        self.core.reset(MCU_MEM_BASE);
        for &(r, v) in args {
            self.core.set_reg(r, v);
        }
        let summary = self.core.run(&mut self.mem, max_cycles)?;
        if summary.state != ulp_isa::CoreState::Halted {
            return Err(McuError::Timeout { max_cycles });
        }
        let cycles = self.device.effective_cycles(summary.cycles);
        let seconds = cycles as f64 / self.freq_hz;
        Ok(McuRun {
            cycles,
            retired: summary.retired,
            seconds,
            energy_joules: self.device.run_power_w(self.freq_hz) * seconds,
        })
    }

    /// Absolute address of the rodata section when a program is loaded by
    /// [`Mcu::run_program`].
    #[must_use]
    pub fn rodata_base(prog: &Program) -> u32 {
        MCU_MEM_BASE + prog.rodata_offset() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasheet;
    use crate::MCU_DATA_BASE;
    use ulp_isa::prelude::*;

    fn sum_prog() -> Program {
        let mut a = Asm::new();
        a.la(R1, MCU_DATA_BASE);
        a.li(R2, 8);
        a.li(R3, 0);
        let top = a.new_label();
        a.bind(top);
        a.lw(R4, R1, 0);
        a.add(R3, R3, R4);
        a.addi(R1, R1, 4);
        a.addi(R2, R2, -1);
        a.bne(R2, R0, top);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn runs_kernel_over_sram_data() {
        let mut mcu = Mcu::new(datasheet::stm32l476(), 32.0e6);
        for i in 0..8u32 {
            mcu.write_mem(MCU_DATA_BASE + 4 * i, &(i + 1).to_le_bytes())
                .unwrap();
        }
        let run = mcu.run_program(&sum_prog(), &[]).unwrap();
        assert_eq!(mcu.reg(R3), 36);
        assert!(run.retired > 0);
        assert!(run.cycles >= run.retired);
    }

    #[test]
    fn seconds_scale_with_frequency() {
        let prog = sum_prog();
        let mut fast = Mcu::new(datasheet::stm32l476(), 32.0e6);
        let mut slow = Mcu::new(datasheet::stm32l476(), 4.0e6);
        let rf = fast.run_program(&prog, &[]).unwrap();
        let rs = slow.run_program(&prog, &[]).unwrap();
        assert_eq!(rf.cycles, rs.cycles);
        assert!((rs.seconds / rf.seconds - 8.0).abs() < 1e-9);
    }

    #[test]
    fn m3_slower_or_equal_to_m4_with_macs() {
        let mut a = Asm::new();
        a.li(R1, 3);
        a.li(R2, 4);
        for _ in 0..32 {
            a.mac(R3, R1, R2);
        }
        a.halt();
        let prog = a.finish().unwrap();
        // EFM32 is an M3, L476 an M4; compare raw simulated cycles at equal
        // frequency.
        let mut m3 = Mcu::new(datasheet::efm32(), 32.0e6);
        let mut m4 = Mcu::new(datasheet::stm32l476(), 32.0e6);
        let r3 = m3.run_program(&prog, &[]).unwrap();
        let r4 = m4.run_program(&prog, &[]).unwrap();
        assert!(r3.cycles > r4.cycles);
    }

    #[test]
    fn msp430_cycle_factor_applies() {
        let prog = sum_prog();
        let mut msp = Mcu::new(datasheet::msp430(), 16.0e6);
        let mut efm = Mcu::new(datasheet::efm32(), 16.0e6);
        for i in 0..8u32 {
            msp.write_mem(MCU_DATA_BASE + 4 * i, &1u32.to_le_bytes())
                .unwrap();
            efm.write_mem(MCU_DATA_BASE + 4 * i, &1u32.to_le_bytes())
                .unwrap();
        }
        let rm = msp.run_program(&prog, &[]).unwrap();
        let re = efm.run_program(&prog, &[]).unwrap();
        assert!((rm.cycles as f64 / re.cycles as f64 - 2.2).abs() < 0.01);
    }

    #[test]
    fn args_set_registers() {
        let mut a = Asm::new();
        a.add(R5, R3, R4);
        a.halt();
        let prog = a.finish().unwrap();
        let mut mcu = Mcu::new(datasheet::stm32l476(), 32.0e6);
        mcu.run_program(&prog, &[(R3, 30), (R4, 12)]).unwrap();
        assert_eq!(mcu.reg(R5), 42);
    }

    #[test]
    fn timeout_reported() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.nop();
        a.jmp(top);
        let prog = a.finish().unwrap();
        let mut mcu = Mcu::new(datasheet::stm32l476(), 32.0e6);
        assert!(matches!(
            mcu.run_program_with_budget(&prog, &[], 10_000),
            Err(McuError::Timeout { .. })
        ));
    }

    #[test]
    fn energy_consistent_with_device_model() {
        let mut mcu = Mcu::new(datasheet::stm32l476(), 32.0e6);
        let run = mcu.run_program(&sum_prog(), &[]).unwrap();
        let expect = mcu.device().run_energy_joules(run.cycles, 32.0e6);
        assert!((run.energy_joules - expect).abs() < 1e-15);
    }
}
