//! # ulp-link — the SPI/QSPI coupling link between host MCU and accelerator
//!
//! The DATE'16 platform couples the STM32 host and the PULP accelerator
//! with a plain SPI (or quad-SPI) channel plus two GPIO event wires
//! ("a *fetch enable* used to trigger execution … and an *end of
//! computation* event triggered by PULP and used by the STM32 to resume
//! from sleep", paper §III-C). The link matters to the evaluation only
//! through its timing, so this crate models:
//!
//! * [`SpiLink`] ([`spi`]) — bit-level transfer timing. The SPI clock is
//!   derived from the MCU core clock (`f_spi = f_mcu / prescaler`), which
//!   is the root cause of the paper's Fig. 5b bottleneck: lowering the MCU
//!   frequency to free power for the accelerator also throttles the link.
//! * [`FRAME_OVERHEAD`] — the bytes every frame adds to its payload.
//!   Frames are priced by length alone; no byte is ever encoded.
//! * [`FaultInjector`] ([`fault`]) — deterministic, seeded draws of bit
//!   errors, dropped/truncated frames, stuck event wires and accelerator
//!   hangs, with per-fault-type statistics.
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

pub mod fault;
pub mod spi;

pub use fault::{EocOutcome, FaultConfig, FaultInjector, FaultStats, TxOutcome};
pub use spi::{LinkClocking, LinkStats, SpiLink, SpiWidth};

/// Per-frame wire overhead in bytes: a frame of `n` payload bytes
/// occupies `n + FRAME_OVERHEAD` bytes on the wire.
///
/// ```text
/// offset  size  field
/// 0       1     low nibble: command · high nibble: sequence number (mod 16)
/// 1       4     u32 LE: address (entry point for SetEntry, 0 for Ack/Nack)
/// 5       3     u24 LE: payload length (Write) or read length (Read)
/// 8       n     payload (Write only)
/// 8+n     2     CRC-16/CCITT-FALSE over bytes 0..8+n, big-endian
/// ```
///
/// The 10 bytes match the original `cmd(1) addr(4) len(4) checksum(1)`
/// framing: the sequence number rides in the unused high nibble of the
/// command byte and the length field gives up its top byte to the second
/// CRC byte.
pub const FRAME_OVERHEAD: usize = 10;

/// Most frames a sender may have unacknowledged at once: half the 4-bit
/// sequence space, the selective-repeat bound beyond which a
/// retransmitted frame is indistinguishable from a new one. The pipelined
/// offload engine's staging ring is clamped to it.
pub const MAX_WINDOW: usize = 8;
