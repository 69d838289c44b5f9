//! The UIR instruction set.
//!
//! UIR is a 32-bit load/store RISC ISA with a base subset (comparable to the
//! original MIPS / OpenRISC 1000, per the paper's definition of a "RISC op")
//! plus feature-gated extensions modelling the OR10N and ARMv7E-M
//! microarchitectural enhancements:
//!
//! * **`mac`** — register-register multiply-accumulate ([`Insn::Mac`]),
//! * **`simd_dot`** — sub-word ("infra-word") 4×8-bit and 2×16-bit dot
//!   products and packed adds ([`Insn::SdotV4`] et al.),
//! * **`hw_loops`** — two nested zero-overhead hardware loops
//!   ([`Insn::LpSetup`]),
//! * **`post_increment`** — post-incrementing loads/stores
//!   ([`Insn::LoadPi`]/[`Insn::StorePi`]),
//! * **`mul64`** — 32×32→64 multiply and multiply-accumulate
//!   ([`Insn::Mull`]/[`Insn::Mlal`], the ARM `UMULL`/`SMLAL` family that
//!   OR10N *lacks* — the root cause of the paper's `hog` slowdown),
//! * **`unaligned`** — hardware support for unaligned load/store.

use std::fmt;

use crate::reg::Reg;

/// Access width of a memory operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemSize {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Half,
    /// 32-bit access.
    Word,
}

impl MemSize {
    /// Number of bytes moved by an access of this size.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            MemSize::Byte => 1,
            MemSize::Half => 2,
            MemSize::Word => 4,
        }
    }
}

impl fmt::Display for MemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemSize::Byte => "b",
            MemSize::Half => "h",
            MemSize::Word => "w",
        };
        f.write_str(s)
    }
}

/// Control and status registers readable with [`Insn::Csrr`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Csr {
    /// Index of the executing core within its cluster (0-based).
    CoreId,
    /// Number of cores in the cluster.
    NumCores,
    /// Low 32 bits of the core-local cycle counter.
    CycleLo,
    /// Low 32 bits of the retired-instruction counter.
    InstRetLo,
}

impl Csr {
    /// Stable numeric id used by the binary encoding.
    #[must_use]
    pub fn id(self) -> u16 {
        match self {
            Csr::CoreId => 0,
            Csr::NumCores => 1,
            Csr::CycleLo => 2,
            Csr::InstRetLo => 3,
        }
    }

    /// Inverse of [`Csr::id`].
    #[must_use]
    pub fn from_id(id: u16) -> Option<Self> {
        Some(match id {
            0 => Csr::CoreId,
            1 => Csr::NumCores,
            2 => Csr::CycleLo,
            3 => Csr::InstRetLo,
            _ => return None,
        })
    }
}

/// A single UIR instruction.
///
/// Branch and jump offsets are in **bytes** relative to the address of the
/// branch instruction itself (the assembler computes them from labels).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Insn {
    // ---- base ALU, register-register ----------------------------------
    /// `rd = ra + rb`
    Add(Reg, Reg, Reg),
    /// `rd = ra - rb`
    Sub(Reg, Reg, Reg),
    /// `rd = ra & rb`
    And(Reg, Reg, Reg),
    /// `rd = ra | rb`
    Or(Reg, Reg, Reg),
    /// `rd = ra ^ rb`
    Xor(Reg, Reg, Reg),
    /// `rd = ra << (rb & 31)`
    Sll(Reg, Reg, Reg),
    /// `rd = ra >> (rb & 31)` (logical)
    Srl(Reg, Reg, Reg),
    /// `rd = ra >> (rb & 31)` (arithmetic)
    Sra(Reg, Reg, Reg),
    /// `rd = (ra as i32) < (rb as i32)`
    Slt(Reg, Reg, Reg),
    /// `rd = ra < rb` (unsigned)
    Sltu(Reg, Reg, Reg),
    /// `rd = min(ra, rb)` (signed)
    Min(Reg, Reg, Reg),
    /// `rd = max(ra, rb)` (signed)
    Max(Reg, Reg, Reg),
    /// `rd = low32(ra * rb)`
    Mul(Reg, Reg, Reg),
    /// `rd = (ra as i32) / (rb as i32)`; division by zero yields `-1`.
    Div(Reg, Reg, Reg),
    /// `rd = ra / rb` (unsigned); division by zero yields `u32::MAX`.
    Divu(Reg, Reg, Reg),

    // ---- extensions: multiply-accumulate ------------------------------
    /// `rd += low32(ra * rb)` — requires the `mac` feature.
    Mac(Reg, Reg, Reg),
    /// `{rd_hi,rd_lo} = ra * rb` (full 64-bit product) — requires `mul64`.
    Mull {
        /// High half destination.
        rd_hi: Reg,
        /// Low half destination.
        rd_lo: Reg,
        /// First operand.
        ra: Reg,
        /// Second operand.
        rb: Reg,
        /// Signed (`SMULL`) vs unsigned (`UMULL`) semantics.
        signed: bool,
    },
    /// `{rd_hi,rd_lo} += ra * rb` (64-bit accumulate) — requires `mul64`.
    Mlal {
        /// High half accumulator.
        rd_hi: Reg,
        /// Low half accumulator.
        rd_lo: Reg,
        /// First operand.
        ra: Reg,
        /// Second operand.
        rb: Reg,
        /// Signed (`SMLAL`) vs unsigned (`UMLAL`) semantics.
        signed: bool,
    },

    // ---- extensions: sub-word SIMD -------------------------------------
    /// `rd += Σ_{i<4} sext8(ra.byte[i]) * sext8(rb.byte[i])` — `simd_dot`.
    SdotV4(Reg, Reg, Reg),
    /// `rd += Σ_{i<2} sext16(ra.half[i]) * sext16(rb.half[i])` — `simd_dot`.
    SdotV2(Reg, Reg, Reg),
    /// Packed 4×8-bit add (wrapping lanes) — `simd_dot`.
    AddV4(Reg, Reg, Reg),
    /// Packed 2×16-bit add (wrapping lanes) — `simd_dot`.
    AddV2(Reg, Reg, Reg),
    /// Packed 4×8-bit subtract (wrapping lanes) — `simd_dot`.
    SubV4(Reg, Reg, Reg),
    /// Packed 2×16-bit subtract (wrapping lanes) — `simd_dot`.
    SubV2(Reg, Reg, Reg),

    // ---- ALU, immediate -------------------------------------------------
    /// `rd = ra + sext(imm)`
    Addi(Reg, Reg, i16),
    /// `rd = ra & zext(imm)`
    Andi(Reg, Reg, u16),
    /// `rd = ra | zext(imm)`
    Ori(Reg, Reg, u16),
    /// `rd = ra ^ zext(imm)`
    Xori(Reg, Reg, u16),
    /// `rd = ra << sh`
    Slli(Reg, Reg, u8),
    /// `rd = ra >> sh` (logical)
    Srli(Reg, Reg, u8),
    /// `rd = ra >> sh` (arithmetic)
    Srai(Reg, Reg, u8),
    /// `rd = imm << 14` — loads the upper 18 bits of a constant.
    Lui(Reg, u32),

    // ---- memory ---------------------------------------------------------
    /// `rd = sign_or_zero_extend(mem[ra + sext(offset)])`
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i16,
        /// Access width.
        size: MemSize,
        /// Sign-extend (`true`) or zero-extend the loaded value.
        signed: bool,
    },
    /// Post-incrementing load: `rd = mem[base]; base += inc` — requires
    /// `post_increment`.
    LoadPi {
        /// Destination register.
        rd: Reg,
        /// Base address register, updated after the access.
        base: Reg,
        /// Byte increment applied to `base` after the access.
        inc: i16,
        /// Access width.
        size: MemSize,
        /// Sign-extend (`true`) or zero-extend the loaded value.
        signed: bool,
    },
    /// `mem[base + sext(offset)] = truncate(rs)`
    Store {
        /// Source register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i16,
        /// Access width.
        size: MemSize,
    },
    /// Post-incrementing store: `mem[base] = rs; base += inc` — requires
    /// `post_increment`.
    StorePi {
        /// Source register.
        rs: Reg,
        /// Base address register, updated after the access.
        base: Reg,
        /// Byte increment applied to `base` after the access.
        inc: i16,
        /// Access width.
        size: MemSize,
    },
    /// Atomic test-and-set: `rd = mem32[ra]; mem32[ra] = 1`.
    ///
    /// Models the PULP TCDM test-and-set aliases used for locks.
    Tas(Reg, Reg),

    // ---- control flow ----------------------------------------------------
    /// Branch if `ra == rb`.
    Beq(Reg, Reg, i32),
    /// Branch if `ra != rb`.
    Bne(Reg, Reg, i32),
    /// Branch if `(ra as i32) < (rb as i32)`.
    Blt(Reg, Reg, i32),
    /// Branch if `(ra as i32) >= (rb as i32)`.
    Bge(Reg, Reg, i32),
    /// Branch if `ra < rb` (unsigned).
    Bltu(Reg, Reg, i32),
    /// Branch if `ra >= rb` (unsigned).
    Bgeu(Reg, Reg, i32),
    /// `rd = pc + 4; pc += offset`
    Jal(Reg, i32),
    /// `rd = pc + 4; pc = (ra + sext(imm)) & !3`
    Jalr(Reg, Reg, i16),
    /// Hardware-loop setup — requires `hw_loops`.
    ///
    /// Declares that the instructions in `(pc+4) ..= (pc+body_end)` form a
    /// zero-overhead loop body executed `count` times (read from the
    /// register at setup time). `idx` selects one of two nested loop units;
    /// loop 0 must nest inside loop 1.
    LpSetup {
        /// Loop unit index (0 = innermost, 1 = outer).
        idx: u8,
        /// Register holding the iteration count (sampled at setup).
        count: Reg,
        /// Byte offset from this instruction to the *last* instruction of
        /// the loop body.
        body_end: i32,
    },

    // ---- system -----------------------------------------------------------
    /// Read a control/status register.
    Csrr(Reg, Csr),
    /// No operation.
    Nop,
    /// Stop the core; it transitions to the halted state.
    Halt,
    /// Sleep until an event arrives (clock-gated, as in the PULP HW
    /// synchronizer).
    Wfe,
    /// Send event `id`: id 0 = the end-of-computation wire towards the host,
    /// ids `1..=32` wake cluster core `id - 1`, id 33 broadcasts to all
    /// cluster cores.
    Sev(u8),
    /// Arrive at the cluster barrier and sleep until all participating cores
    /// arrive (HW-synchronizer barrier).
    Barrier,
}

impl Insn {
    /// Whether this instruction may redirect control flow.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Insn::Beq(..)
                | Insn::Bne(..)
                | Insn::Blt(..)
                | Insn::Bge(..)
                | Insn::Bltu(..)
                | Insn::Bgeu(..)
                | Insn::Jal(..)
                | Insn::Jalr(..)
        )
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Insn::*;
        match *self {
            Add(d, a, b) => write!(f, "add {d}, {a}, {b}"),
            Sub(d, a, b) => write!(f, "sub {d}, {a}, {b}"),
            And(d, a, b) => write!(f, "and {d}, {a}, {b}"),
            Or(d, a, b) => write!(f, "or {d}, {a}, {b}"),
            Xor(d, a, b) => write!(f, "xor {d}, {a}, {b}"),
            Sll(d, a, b) => write!(f, "sll {d}, {a}, {b}"),
            Srl(d, a, b) => write!(f, "srl {d}, {a}, {b}"),
            Sra(d, a, b) => write!(f, "sra {d}, {a}, {b}"),
            Slt(d, a, b) => write!(f, "slt {d}, {a}, {b}"),
            Sltu(d, a, b) => write!(f, "sltu {d}, {a}, {b}"),
            Min(d, a, b) => write!(f, "min {d}, {a}, {b}"),
            Max(d, a, b) => write!(f, "max {d}, {a}, {b}"),
            Mul(d, a, b) => write!(f, "mul {d}, {a}, {b}"),
            Div(d, a, b) => write!(f, "div {d}, {a}, {b}"),
            Divu(d, a, b) => write!(f, "divu {d}, {a}, {b}"),
            Mac(d, a, b) => write!(f, "mac {d}, {a}, {b}"),
            Mull {
                rd_hi,
                rd_lo,
                ra,
                rb,
                signed,
            } => {
                write!(
                    f,
                    "{}mull {rd_hi}:{rd_lo}, {ra}, {rb}",
                    if signed { "s" } else { "u" }
                )
            }
            Mlal {
                rd_hi,
                rd_lo,
                ra,
                rb,
                signed,
            } => {
                write!(
                    f,
                    "{}mlal {rd_hi}:{rd_lo}, {ra}, {rb}",
                    if signed { "s" } else { "u" }
                )
            }
            SdotV4(d, a, b) => write!(f, "sdot.v4 {d}, {a}, {b}"),
            SdotV2(d, a, b) => write!(f, "sdot.v2 {d}, {a}, {b}"),
            AddV4(d, a, b) => write!(f, "add.v4 {d}, {a}, {b}"),
            AddV2(d, a, b) => write!(f, "add.v2 {d}, {a}, {b}"),
            SubV4(d, a, b) => write!(f, "sub.v4 {d}, {a}, {b}"),
            SubV2(d, a, b) => write!(f, "sub.v2 {d}, {a}, {b}"),
            Addi(d, a, i) => write!(f, "addi {d}, {a}, {i}"),
            Andi(d, a, i) => write!(f, "andi {d}, {a}, {i:#x}"),
            Ori(d, a, i) => write!(f, "ori {d}, {a}, {i:#x}"),
            Xori(d, a, i) => write!(f, "xori {d}, {a}, {i:#x}"),
            Slli(d, a, s) => write!(f, "slli {d}, {a}, {s}"),
            Srli(d, a, s) => write!(f, "srli {d}, {a}, {s}"),
            Srai(d, a, s) => write!(f, "srai {d}, {a}, {s}"),
            Lui(d, i) => write!(f, "lui {d}, {i:#x}"),
            Load {
                rd,
                base,
                offset,
                size,
                signed,
            } => {
                write!(
                    f,
                    "l{size}{} {rd}, {offset}({base})",
                    if signed { "" } else { "u" }
                )
            }
            LoadPi {
                rd,
                base,
                inc,
                size,
                signed,
            } => {
                write!(
                    f,
                    "l{size}{}.pi {rd}, ({base})+{inc}",
                    if signed { "" } else { "u" }
                )
            }
            Store {
                rs,
                base,
                offset,
                size,
            } => write!(f, "s{size} {rs}, {offset}({base})"),
            StorePi {
                rs,
                base,
                inc,
                size,
            } => write!(f, "s{size}.pi {rs}, ({base})+{inc}"),
            Tas(d, a) => write!(f, "tas {d}, ({a})"),
            Beq(a, b, o) => write!(f, "beq {a}, {b}, {o:+}"),
            Bne(a, b, o) => write!(f, "bne {a}, {b}, {o:+}"),
            Blt(a, b, o) => write!(f, "blt {a}, {b}, {o:+}"),
            Bge(a, b, o) => write!(f, "bge {a}, {b}, {o:+}"),
            Bltu(a, b, o) => write!(f, "bltu {a}, {b}, {o:+}"),
            Bgeu(a, b, o) => write!(f, "bgeu {a}, {b}, {o:+}"),
            Jal(d, o) => write!(f, "jal {d}, {o:+}"),
            Jalr(d, a, i) => write!(f, "jalr {d}, {a}, {i}"),
            LpSetup {
                idx,
                count,
                body_end,
            } => {
                write!(f, "lp.setup l{idx}, {count}, {body_end:+}")
            }
            Csrr(d, c) => write!(f, "csrr {d}, {c:?}"),
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
            Wfe => write!(f, "wfe"),
            Sev(id) => write!(f, "sev {id}"),
            Barrier => write!(f, "barrier"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::named::*;

    #[test]
    fn mem_size_bytes() {
        assert_eq!(MemSize::Byte.bytes(), 1);
        assert_eq!(MemSize::Half.bytes(), 2);
        assert_eq!(MemSize::Word.bytes(), 4);
    }

    #[test]
    fn csr_id_roundtrip() {
        for csr in [Csr::CoreId, Csr::NumCores, Csr::CycleLo, Csr::InstRetLo] {
            assert_eq!(Csr::from_id(csr.id()), Some(csr));
        }
        assert_eq!(Csr::from_id(999), None);
    }

    #[test]
    fn classification_predicates() {
        assert!(Insn::Beq(R1, R2, -8).is_control());
    }

    #[test]
    fn display_is_never_empty() {
        let samples = [
            Insn::Nop,
            Insn::Add(R1, R2, R3),
            Insn::Load {
                rd: R1,
                base: R2,
                offset: -4,
                size: MemSize::Half,
                signed: false,
            },
            Insn::LpSetup {
                idx: 0,
                count: R5,
                body_end: 16,
            },
            Insn::Mull {
                rd_hi: R4,
                rd_lo: R5,
                ra: R6,
                rb: R7,
                signed: true,
            },
        ];
        for insn in samples {
            assert!(!insn.to_string().is_empty());
        }
    }

    #[test]
    fn display_examples() {
        assert_eq!(Insn::SdotV4(R3, R4, R5).to_string(), "sdot.v4 r3, r4, r5");
        assert_eq!(
            Insn::Load {
                rd: R1,
                base: R2,
                offset: 8,
                size: MemSize::Byte,
                signed: false
            }
            .to_string(),
            "lbu r1, 8(r2)"
        );
    }
}
