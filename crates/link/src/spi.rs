//! Bit-level SPI/QSPI transfer timing and link power.

use std::fmt;

/// Data width of the serial link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SpiWidth {
    /// Classic single-bit SPI (the physical prototype in the paper: the
    /// Nucleo board does not expose the QSPI pins).
    #[default]
    Single,
    /// Quad SPI, 4 bits per clock (used for the paper's Fig. 5b model).
    Quad,
}

impl SpiWidth {
    /// Bits moved per SPI clock cycle.
    #[must_use]
    pub fn bits_per_clock(self) -> u32 {
        match self {
            SpiWidth::Single => 1,
            SpiWidth::Quad => 4,
        }
    }
}

impl fmt::Display for SpiWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiWidth::Single => f.write_str("spi"),
            SpiWidth::Quad => f.write_str("qspi"),
        }
    }
}

/// How the serial link is clocked (paper §V discusses all three).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LinkClocking {
    /// The prototype's scheme: `f_spi = f_mcu / prescaler`. Lowering the
    /// MCU clock to free envelope power also throttles the link — the
    /// root cause of the Fig. 5b plateaus.
    McuDivided,
    /// DVFS boost: "the MCU frequency might be raised for enough time to
    /// efficiently perform the data exchange" (§IV-B). During transfer
    /// phases the MCU clocks at `mcu_hz` (and pays run power at that
    /// clock); compute phases keep the configured frequency.
    BoostedMcu {
        /// Temporary MCU clock during transfers.
        mcu_hz: f64,
    },
    /// The §V wish: "a low-power, high-throughput SPI link that is not
    /// tied to the MCU core frequency". The link runs at its own clock;
    /// the MCU stays at its configured frequency while managing the DMA.
    Independent {
        /// The link's own SPI clock.
        spi_hz: f64,
    },
}

/// Accumulated link statistics.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LinkStats {
    /// Bytes sent host → accelerator.
    pub bytes_tx: u64,
    /// Bytes received accelerator → host.
    pub bytes_rx: u64,
    /// Transactions performed.
    pub transactions: u64,
    /// Seconds the link spent shifting bits.
    pub busy_seconds: f64,
    /// Energy dissipated by the link drivers, in joules.
    pub energy_joules: f64,
}

/// Timing and power model of the serial coupling link.
///
/// Per-transaction protocol overhead covers the command/address phase and
/// chip-select framing.
#[derive(Clone, Debug)]
pub struct SpiLink {
    width: SpiWidth,
    prescaler: u32,
    overhead_bits: u32,
    energy_per_bit_j: f64,
    stats: LinkStats,
}

impl SpiLink {
    /// Default per-transaction overhead: 8 command bits + 32 address bits +
    /// 8 turnaround bits. The turnaround phase is also where the receiver's
    /// ACK/NACK of the previous frame shifts out (SPI is full duplex), so
    /// acknowledgements are free at this layer.
    pub const DEFAULT_OVERHEAD_BITS: u32 = 48;

    /// Default energy per transferred bit (drivers + pads), calibrated to a
    /// low-power SPI PHY: ≈1 pJ/bit.
    pub const DEFAULT_ENERGY_PER_BIT: f64 = 1.0e-12;

    /// Creates a link of the given width; the SPI clock is the MCU core
    /// clock divided by `prescaler`.
    ///
    /// # Panics
    ///
    /// Panics if `prescaler` is zero.
    #[must_use]
    pub fn new(width: SpiWidth, prescaler: u32) -> Self {
        assert!(prescaler >= 1, "prescaler must be at least 1");
        SpiLink {
            width,
            prescaler,
            overhead_bits: Self::DEFAULT_OVERHEAD_BITS,
            energy_per_bit_j: Self::DEFAULT_ENERGY_PER_BIT,
            stats: LinkStats::default(),
        }
    }

    /// Link width.
    #[must_use]
    pub fn width(&self) -> SpiWidth {
        self.width
    }

    /// Clock prescaler from the MCU core clock.
    #[must_use]
    pub fn prescaler(&self) -> u32 {
        self.prescaler
    }

    /// SPI clock frequency for a given MCU core frequency.
    #[must_use]
    pub fn clock_hz(&self, mcu_hz: f64) -> f64 {
        mcu_hz / f64::from(self.prescaler)
    }

    /// Wall-clock seconds to move `bytes` of payload in one transaction at
    /// the given MCU frequency (includes the protocol overhead bits).
    #[must_use]
    pub fn transfer_seconds(&self, bytes: usize, mcu_hz: f64) -> f64 {
        let bits = bytes as f64 * 8.0 + f64::from(self.overhead_bits);
        let clocks = bits / f64::from(self.width.bits_per_clock());
        clocks / self.clock_hz(mcu_hz)
    }

    /// Energy dissipated moving `bytes` (drivers + pads).
    #[must_use]
    pub fn transfer_energy_joules(&self, bytes: usize) -> f64 {
        (bytes as f64 * 8.0 + f64::from(self.overhead_bits)) * self.energy_per_bit_j
    }

    /// Records a host→accelerator transaction and returns its duration in
    /// seconds.
    pub fn send(&mut self, bytes: usize, mcu_hz: f64) -> f64 {
        let t = self.transfer_seconds(bytes, mcu_hz);
        self.stats.bytes_tx += bytes as u64;
        self.stats.transactions += 1;
        self.stats.busy_seconds += t;
        self.stats.energy_joules += self.transfer_energy_joules(bytes);
        t
    }

    /// Records an accelerator→host transaction and returns its duration in
    /// seconds.
    pub fn receive(&mut self, bytes: usize, mcu_hz: f64) -> f64 {
        let t = self.transfer_seconds(bytes, mcu_hz);
        self.stats.bytes_rx += bytes as u64;
        self.stats.transactions += 1;
        self.stats.busy_seconds += t;
        self.stats.energy_joules += self.transfer_energy_joules(bytes);
        t
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Resets the statistics.
    pub fn reset_stats(&mut self) {
        self.stats = LinkStats::default();
    }
}

impl Default for SpiLink {
    fn default() -> Self {
        SpiLink::new(SpiWidth::Single, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spi_clock_derived_from_mcu_clock() {
        let link = SpiLink::new(SpiWidth::Single, 2);
        assert!((link.clock_hz(32.0e6) - 16.0e6).abs() < 1.0);
    }

    #[test]
    fn quad_is_four_times_single() {
        let s = SpiLink::new(SpiWidth::Single, 2);
        let q = SpiLink::new(SpiWidth::Quad, 2);
        let t_s = s.transfer_seconds(4096, 16.0e6);
        let t_q = q.transfer_seconds(4096, 16.0e6);
        assert!((t_s / t_q - 4.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_scales_inverse_with_mcu_freq() {
        let link = SpiLink::default();
        let fast = link.transfer_seconds(4096, 32.0e6);
        let slow = link.transfer_seconds(4096, 4.0e6);
        assert!((slow / fast - 8.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_counts_in_small_transfers() {
        let link = SpiLink::default();
        let one = link.transfer_seconds(1, 16.0e6);
        // 8 payload bits + 48 overhead bits at 8 MHz single SPI = 7 µs.
        assert!((one - 56.0 / 8.0e6).abs() < 1e-12);
    }

    #[test]
    fn send_receive_accumulate_stats() {
        let mut link = SpiLink::default();
        let t1 = link.send(100, 16.0e6);
        let t2 = link.receive(50, 16.0e6);
        let s = link.stats();
        assert_eq!(s.bytes_tx, 100);
        assert_eq!(s.bytes_rx, 50);
        assert_eq!(s.transactions, 2);
        assert!((s.busy_seconds - (t1 + t2)).abs() < 1e-15);
        assert!(s.energy_joules > 0.0);
        link.reset_stats();
        assert_eq!(link.stats().transactions, 0);
    }
}
