//! # ulp-link — the SPI/QSPI coupling link between host MCU and accelerator
//!
//! The DATE'16 platform couples the STM32 host and the PULP accelerator
//! with a plain SPI (or quad-SPI) channel plus two GPIO event wires
//! ("a *fetch enable* used to trigger execution … and an *end of
//! computation* event triggered by PULP and used by the STM32 to resume
//! from sleep", paper §III-C). This crate models:
//!
//! * [`SpiLink`] ([`spi`]) — bit-level transfer timing. The SPI clock is
//!   derived from the MCU core clock (`f_spi = f_mcu / prescaler`), which
//!   is the root cause of the paper's Fig. 5b bottleneck: lowering the MCU
//!   frequency to free power for the accelerator also throttles the link.
//! * [`Frame`] ([`frame`]) — the on-wire command protocol for code offload
//!   and data exchange: CRC-16-protected, sequence-numbered frames with
//!   ACK/NACK acknowledgements.
//! * [`crc16`] ([`crc`]) — CRC-16/CCITT-FALSE frame integrity.
//! * [`FaultInjector`] ([`fault`]) — deterministic, seeded injection of
//!   bit errors, dropped/truncated frames, stuck event wires and
//!   accelerator hangs, with per-fault-type statistics.
//! * [`GpioEvent`] — the two synchronization wires.
//! * link power: simple CV²f-style active power per transferred bit.
//!
//! # Example
//!
//! ```
//! use ulp_link::{SpiLink, SpiWidth};
//!
//! let link = SpiLink::new(SpiWidth::Quad, 2);
//! // At a 16 MHz MCU clock the QSPI moves 4 bits per 8 MHz SPI cycle:
//! // 4 MB/s, less the per-transaction overhead bits.
//! let secs = link.transfer_seconds(1024, 16.0e6);
//! assert!(1024.0 / secs > 3.9e6);
//! ```
//!
//! Surviving an injected fault:
//!
//! ```
//! use ulp_link::{FaultConfig, FaultInjector, Frame, TxOutcome};
//!
//! let mut inj = FaultInjector::new(FaultConfig {
//!     seed: 7,
//!     bit_error_rate: 0.01,
//!     ..FaultConfig::default()
//! });
//! let frame = Frame::Write { addr: 0x1000_0000, data: vec![1, 2, 3, 4] };
//! let mut wire = frame.to_wire_seq(3);
//! match inj.transmit(&mut wire) {
//!     TxOutcome::Delivered => assert_eq!(Frame::from_wire(&wire).unwrap(), frame),
//!     // A detected corruption draws a NACK and a retransmission.
//!     TxOutcome::Corrupted { escaped: false } => assert!(Frame::from_wire(&wire).is_err()),
//!     _ => {}
//! }
//! ```

use std::fmt;

pub mod crc;
pub mod fault;
pub mod frame;
pub mod spi;

pub use crc::{crc16, crc16_step};
pub use fault::{EocOutcome, FaultConfig, FaultInjector, FaultStats, TxOutcome};
pub use frame::{Frame, FrameError, FRAME_OVERHEAD, MAX_PAYLOAD};
pub use spi::{LinkClocking, LinkStats, SpiLink, SpiWidth};

/// Most frames a sender may have unacknowledged at once: half the 4-bit
/// sequence space, the selective-repeat bound beyond which a
/// retransmitted frame is indistinguishable from a new one. The pipelined
/// offload engine's staging ring is clamped to it.
pub const MAX_WINDOW: usize = 8;

/// The two GPIO synchronization wires between host and accelerator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GpioEvent {
    /// Host → accelerator: start fetching/executing the offloaded binary.
    FetchEnable,
    /// Accelerator → host: computation finished, results ready.
    EndOfComputation,
}

impl fmt::Display for GpioEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpioEvent::FetchEnable => f.write_str("fetch-enable"),
            GpioEvent::EndOfComputation => f.write_str("end-of-computation"),
        }
    }
}
