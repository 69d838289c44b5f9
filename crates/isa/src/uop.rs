//! Pre-decoded micro-op basic blocks and the per-memory-image block cache.
//!
//! The interpreter's hot loop historically paid, per retired instruction, a
//! fetch through the [`DecodeCache`], a match over the full [`Insn`] enum,
//! feature-gate checks and operand field extraction. This module performs
//! all of that **once per basic block**: a translation pass walks the image
//! from a fetch PC to the first control-flow or system instruction and emits
//! a flat `Vec<MicroOp>` whose operands (register indices, sign-extended
//! immediates, pre-resolved timing/penalty values) are ready for a direct
//! dispatch on a dense [`UopKind`] discriminant. The executing core (see
//! `Core::exec_block` in [`exec`](crate::exec)) then retires the whole block
//! without touching the decoder.
//!
//! Equivalence with the reference `Core::step` path is preserved by
//! construction:
//!
//! * every uop keeps its originating [`Insn`], so traces, errors and the
//!   rare/cold operations (`div`, `csrr`, `lp.setup`, system ops — the
//!   [`UopKind::Generic`] escape hatch) go through the *same* code the
//!   reference engine runs;
//! * feature gating is resolved at translation time: an instruction whose
//!   extension the core lacks translates to `Generic`, whose executor
//!   raises the identical [`ExecError`](crate::exec::ExecError);
//! * blocks are validated against [`DecodeCache::generation`] on every
//!   lookup (and after every potentially-writing uop while executing), so
//!   self-modifying code invalidates in O(1) exactly when the decoded-insn
//!   side table it was built from is invalidated.
//!
//! The cache itself is a dense one-slot-per-word table (like the
//! [`DecodeCache`]) with FIFO capacity eviction; a block is keyed by its
//! exact entry byte offset plus the generation it was built at, so stale or
//! aliased (unaligned-entry) hits rebuild in place.

use std::sync::Arc;

use crate::decode_cache::DecodeCache;
use crate::features::CoreModel;
use crate::insn::{Insn, MemSize};

/// Default number of cached blocks per memory image.
pub const DEFAULT_BLOCK_CAPACITY: usize = 4096;
/// Default maximum number of instructions per block.
pub const DEFAULT_MAX_BLOCK_LEN: usize = 64;

/// Direct-dispatch handler index of a [`MicroOp`].
///
/// Hot operations get a dedicated variant with pre-resolved operands; the
/// cold/rare rest funnels through [`UopKind::Generic`], which re-executes
/// the original [`Insn`] on the reference path (bit-identical by
/// construction, and terminal ops end the block anyway).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum UopKind {
    /// `rd = ra + rb`
    Add,
    /// `rd = ra - rb`
    Sub,
    /// `rd = ra & rb`
    And,
    /// `rd = ra | rb`
    Or,
    /// `rd = ra ^ rb`
    Xor,
    /// `rd = ra << (rb & 31)`
    Sll,
    /// `rd = ra >> (rb & 31)` (logical)
    Srl,
    /// `rd = ra >> (rb & 31)` (arithmetic)
    Sra,
    /// `rd = (ra as i32) < (rb as i32)`
    Slt,
    /// `rd = ra < rb` (unsigned)
    Sltu,
    /// `rd = min(ra, rb)` (signed)
    Min,
    /// `rd = max(ra, rb)` (signed)
    Max,
    /// `rd = low32(ra * rb)`; `aux` = cycle count.
    Mul,
    /// `rd += low32(ra * rb)`; `aux` = cycle count (feature pre-checked).
    Mac,
    /// `rd = ra + imm`
    Addi,
    /// `rd = ra & imm`
    Andi,
    /// `rd = ra | imm`
    Ori,
    /// `rd = ra ^ imm`
    Xori,
    /// `rd = ra << imm` (pre-masked shift amount)
    Slli,
    /// `rd = ra >> imm` (logical, pre-masked)
    Srli,
    /// `rd = ra >> imm` (arithmetic, pre-masked)
    Srai,
    /// `rd = imm` (the `<< 14` applied at translation)
    Lui,
    /// 4×8-bit signed dot product accumulate (feature pre-checked).
    SdotV4,
    /// 2×16-bit signed dot product accumulate (feature pre-checked).
    SdotV2,
    /// Word load; `imm` = byte offset, `aux` = misalign penalty/fault.
    LdW,
    /// Signed half load.
    LdH,
    /// Unsigned half load.
    LdHu,
    /// Signed byte load.
    LdB,
    /// Unsigned byte load.
    LdBu,
    /// Post-incrementing word load; `imm` = increment.
    LdPiW,
    /// Post-incrementing signed half load.
    LdPiH,
    /// Post-incrementing unsigned half load.
    LdPiHu,
    /// Post-incrementing signed byte load.
    LdPiB,
    /// Post-incrementing unsigned byte load.
    LdPiBu,
    /// Word store; the source register rides in the `rd` field.
    StW,
    /// Half store.
    StH,
    /// Byte store.
    StB,
    /// Post-incrementing word store; `imm` = increment.
    StPiW,
    /// Post-incrementing half store.
    StPiH,
    /// Post-incrementing byte store.
    StPiB,
    /// Branch if `ra == rb`; `imm` = byte offset, `aux` = taken penalty.
    Beq,
    /// Branch if `ra != rb`.
    Bne,
    /// Branch if `(ra as i32) < (rb as i32)`.
    Blt,
    /// Branch if `(ra as i32) >= (rb as i32)`.
    Bge,
    /// Branch if `ra < rb` (unsigned).
    Bltu,
    /// Branch if `ra >= rb` (unsigned).
    Bgeu,
    /// `rd = pc + 4; pc += imm`; `aux` = taken penalty.
    Jal,
    /// `rd = pc + 4; pc = (ra + imm) & !3`; `aux` = taken penalty.
    Jalr,
    /// No operation.
    Nop,
    /// Anything else: re-execute the embedded [`Insn`] on the reference
    /// path (cold ops, system ops, and feature-gated ops the core lacks).
    Generic,
}

/// One pre-decoded micro-operation.
///
/// Field meaning depends on [`UopKind`] (see its variants); `insn` is the
/// originating instruction, kept for traces, `Generic` execution and
/// debugging.
#[derive(Clone, Copy, Debug)]
pub struct MicroOp {
    /// Dispatch index.
    pub kind: UopKind,
    /// Destination register index (source register for stores).
    pub rd: u8,
    /// First source register index.
    pub ra: u8,
    /// Second source register index.
    pub rb: u8,
    /// Pre-extended immediate / byte offset / post-increment.
    pub imm: i32,
    /// Pre-resolved timing: multi-cycle op latency, taken-branch penalty,
    /// or misalignment penalty (`u32::MAX` = misalignment faults).
    pub aux: u32,
    /// The originating instruction.
    pub insn: Insn,
}

/// A translated basic block: straight-line micro-ops from an entry offset
/// up to (and including) the first control-flow or system instruction.
#[derive(Debug)]
pub struct Block {
    /// [`DecodeCache::generation`] at build time; any later invalidation of
    /// decoded code bumps the generation and makes this block stale.
    pub gen: u64,
    /// Exact entry byte offset within the memory image (distinguishes
    /// unaligned entries that share a word slot).
    pub off: u32,
    /// The micro-ops; `uops[k]` executes at byte offset `off + 4k`.
    pub uops: Vec<MicroOp>,
}

/// Sentinel for "a misaligned access faults" in [`MicroOp::aux`].
const ALIGN_FAULT: u32 = u32::MAX;

/// Whether `insn` ends a basic block (control flow or a system op that
/// yields to the scheduler).
#[must_use]
pub fn is_terminal(insn: &Insn) -> bool {
    insn.is_control() || matches!(insn, Insn::Halt | Insn::Wfe | Insn::Sev(_) | Insn::Barrier)
}

/// Translates one instruction into a micro-op for `model`, resolving
/// feature gates and timing at translation time. Instructions the model
/// cannot execute (missing extension) become [`UopKind::Generic`] so the
/// reference path raises the identical error.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn translate(insn: Insn, model: &CoreModel) -> MicroOp {
    use Insn as I;
    let f = model.features;
    let t = model.timing;
    let mut uop = MicroOp {
        kind: UopKind::Generic,
        rd: 0,
        ra: 0,
        rb: 0,
        imm: 0,
        aux: 0,
        insn,
    };
    // Misalignment resolution for a non-byte access: penalty cycles when
    // the core supports unaligned accesses, fault otherwise.
    let mem_aux = if f.unaligned {
        t.unaligned_penalty
    } else {
        ALIGN_FAULT
    };
    fn rrr(uop: &mut MicroOp, kind: UopKind, d: crate::Reg, a: crate::Reg, b: crate::Reg) {
        uop.kind = kind;
        uop.rd = d.index();
        uop.ra = a.index();
        uop.rb = b.index();
    }
    match insn {
        I::Add(d, a, b) => rrr(&mut uop, UopKind::Add, d, a, b),
        I::Sub(d, a, b) => rrr(&mut uop, UopKind::Sub, d, a, b),
        I::And(d, a, b) => rrr(&mut uop, UopKind::And, d, a, b),
        I::Or(d, a, b) => rrr(&mut uop, UopKind::Or, d, a, b),
        I::Xor(d, a, b) => rrr(&mut uop, UopKind::Xor, d, a, b),
        I::Sll(d, a, b) => rrr(&mut uop, UopKind::Sll, d, a, b),
        I::Srl(d, a, b) => rrr(&mut uop, UopKind::Srl, d, a, b),
        I::Sra(d, a, b) => rrr(&mut uop, UopKind::Sra, d, a, b),
        I::Slt(d, a, b) => rrr(&mut uop, UopKind::Slt, d, a, b),
        I::Sltu(d, a, b) => rrr(&mut uop, UopKind::Sltu, d, a, b),
        I::Min(d, a, b) => rrr(&mut uop, UopKind::Min, d, a, b),
        I::Max(d, a, b) => rrr(&mut uop, UopKind::Max, d, a, b),
        I::Mul(d, a, b) => {
            rrr(&mut uop, UopKind::Mul, d, a, b);
            uop.aux = t.mul;
        }
        I::Mac(d, a, b) if f.mac => {
            rrr(&mut uop, UopKind::Mac, d, a, b);
            uop.aux = t.mac;
        }
        I::SdotV4(d, a, b) if f.simd_dot => rrr(&mut uop, UopKind::SdotV4, d, a, b),
        I::SdotV2(d, a, b) if f.simd_dot => rrr(&mut uop, UopKind::SdotV2, d, a, b),
        I::Addi(d, a, i) => {
            rrr(&mut uop, UopKind::Addi, d, a, crate::Reg::ZERO);
            uop.imm = i32::from(i);
        }
        I::Andi(d, a, i) => {
            rrr(&mut uop, UopKind::Andi, d, a, crate::Reg::ZERO);
            uop.imm = i32::from(i);
        }
        I::Ori(d, a, i) => {
            rrr(&mut uop, UopKind::Ori, d, a, crate::Reg::ZERO);
            uop.imm = i32::from(i);
        }
        I::Xori(d, a, i) => {
            rrr(&mut uop, UopKind::Xori, d, a, crate::Reg::ZERO);
            uop.imm = i32::from(i);
        }
        I::Slli(d, a, s) => {
            rrr(&mut uop, UopKind::Slli, d, a, crate::Reg::ZERO);
            uop.imm = i32::from(s & 31);
        }
        I::Srli(d, a, s) => {
            rrr(&mut uop, UopKind::Srli, d, a, crate::Reg::ZERO);
            uop.imm = i32::from(s & 31);
        }
        I::Srai(d, a, s) => {
            rrr(&mut uop, UopKind::Srai, d, a, crate::Reg::ZERO);
            uop.imm = i32::from(s & 31);
        }
        I::Lui(d, i) => {
            rrr(
                &mut uop,
                UopKind::Lui,
                d,
                crate::Reg::ZERO,
                crate::Reg::ZERO,
            );
            uop.imm = (i << 14) as i32;
        }
        I::Load {
            rd,
            base,
            offset,
            size,
            signed,
        } => {
            uop.kind = match (size, signed) {
                (MemSize::Word, _) => UopKind::LdW,
                (MemSize::Half, true) => UopKind::LdH,
                (MemSize::Half, false) => UopKind::LdHu,
                (MemSize::Byte, true) => UopKind::LdB,
                (MemSize::Byte, false) => UopKind::LdBu,
            };
            uop.rd = rd.index();
            uop.ra = base.index();
            uop.imm = i32::from(offset);
            uop.aux = mem_aux;
        }
        I::LoadPi {
            rd,
            base,
            inc,
            size,
            signed,
        } if f.post_increment => {
            uop.kind = match (size, signed) {
                (MemSize::Word, _) => UopKind::LdPiW,
                (MemSize::Half, true) => UopKind::LdPiH,
                (MemSize::Half, false) => UopKind::LdPiHu,
                (MemSize::Byte, true) => UopKind::LdPiB,
                (MemSize::Byte, false) => UopKind::LdPiBu,
            };
            uop.rd = rd.index();
            uop.ra = base.index();
            uop.imm = i32::from(inc);
            uop.aux = mem_aux;
        }
        I::Store {
            rs,
            base,
            offset,
            size,
        } => {
            uop.kind = match size {
                MemSize::Word => UopKind::StW,
                MemSize::Half => UopKind::StH,
                MemSize::Byte => UopKind::StB,
            };
            uop.rd = rs.index();
            uop.ra = base.index();
            uop.imm = i32::from(offset);
            uop.aux = mem_aux;
        }
        I::StorePi {
            rs,
            base,
            inc,
            size,
        } if f.post_increment => {
            uop.kind = match size {
                MemSize::Word => UopKind::StPiW,
                MemSize::Half => UopKind::StPiH,
                MemSize::Byte => UopKind::StPiB,
            };
            uop.rd = rs.index();
            uop.ra = base.index();
            uop.imm = i32::from(inc);
            uop.aux = mem_aux;
        }
        I::Beq(a, b, o)
        | I::Bne(a, b, o)
        | I::Blt(a, b, o)
        | I::Bge(a, b, o)
        | I::Bltu(a, b, o)
        | I::Bgeu(a, b, o) => {
            uop.kind = match insn {
                I::Beq(..) => UopKind::Beq,
                I::Bne(..) => UopKind::Bne,
                I::Blt(..) => UopKind::Blt,
                I::Bge(..) => UopKind::Bge,
                I::Bltu(..) => UopKind::Bltu,
                _ => UopKind::Bgeu,
            };
            uop.ra = a.index();
            uop.rb = b.index();
            uop.imm = o;
            uop.aux = t.taken_branch;
        }
        I::Jal(d, o) => {
            uop.kind = UopKind::Jal;
            uop.rd = d.index();
            uop.imm = o;
            uop.aux = t.taken_branch;
        }
        I::Jalr(d, a, i) => {
            uop.kind = UopKind::Jalr;
            uop.rd = d.index();
            uop.ra = a.index();
            uop.imm = i32::from(i);
            uop.aux = t.taken_branch;
        }
        I::Nop => uop.kind = UopKind::Nop,
        // Cold, system, or feature-lacking ops (including the guarded
        // arms above falling through): reference path.
        _ => {}
    }
    uop
}

/// Walks the image from byte offset `off` and translates one basic block.
///
/// Instruction words are pulled through `decoded` — exactly the fetch path
/// of the reference engine — so every word a block covers has a decoded
/// slot, which is what ties block staleness to
/// [`DecodeCache::generation`]: any store that clears one of those slots
/// bumps the generation. The walk stops at (and includes) the first
/// terminal instruction, and also ends at an undecodable word, at
/// `max_len` micro-ops, or at the end of the image.
#[must_use]
pub fn build_uops(
    off: usize,
    data: &[u8],
    decoded: &mut DecodeCache,
    model: &CoreModel,
    max_len: usize,
) -> Vec<MicroOp> {
    // Size for the longest block this walk can produce: `max_len` uops or
    // every remaining word in the image, whichever cuts first. Blocks end
    // early at terminals, but the slack never exceeds one small block and
    // the translation loop stops re-allocating entirely.
    let mut uops = Vec::with_capacity(max_len.min(data.len().saturating_sub(off) / 4));
    let mut o = off;
    while uops.len() < max_len && o + 4 <= data.len() {
        let Some(insn) = decoded.fetch(o, data) else {
            break;
        };
        uops.push(translate(insn, model));
        if is_terminal(&insn) {
            break;
        }
        o += 4;
    }
    uops
}

/// Per-memory-image cache of translated [`Block`]s.
///
/// Dense layout: one slot per 4-byte word (same indexing as the
/// [`DecodeCache`] it validates against), plus a FIFO order queue for
/// capacity eviction. Blocks are shared out as [`Arc`]s so an eviction or
/// invalidation cannot pull a block out from under an executing core.
#[derive(Clone, Debug)]
pub struct BlockCache {
    slots: Vec<Option<Arc<Block>>>,
    /// Slot indices currently occupied, oldest first (FIFO eviction).
    /// Invariant: contains exactly the `Some` slots, each once.
    order: std::collections::VecDeque<u32>,
    /// Core model the cached blocks were translated for; a lookup with a
    /// different model flushes (images are re-run across models in tests
    /// and sweeps, never concurrently).
    model: Option<CoreModel>,
    capacity: usize,
    max_block_len: usize,
}

impl BlockCache {
    /// Creates a cache for an image of `size_bytes` with default limits.
    #[must_use]
    pub fn new(size_bytes: usize) -> Self {
        Self::with_limits(size_bytes, DEFAULT_BLOCK_CAPACITY, DEFAULT_MAX_BLOCK_LEN)
    }

    /// Creates a cache with explicit capacity (blocks) and block length
    /// (instructions) limits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_block_len` is zero.
    #[must_use]
    pub fn with_limits(size_bytes: usize, capacity: usize, max_block_len: usize) -> Self {
        assert!(capacity > 0 && max_block_len > 0);
        BlockCache {
            slots: vec![None; size_bytes.div_ceil(4)],
            order: std::collections::VecDeque::new(),
            model: None,
            capacity,
            max_block_len,
        }
    }

    /// Number of blocks currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the cache holds no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Drops every cached block.
    pub fn flush(&mut self) {
        while let Some(slot) = self.order.pop_front() {
            self.slots[slot as usize] = None;
        }
    }

    /// Returns the block entered at byte offset `off`, building (or
    /// rebuilding, when stale) it from `data` through `decoded`. `None`
    /// means no block starts here — the first word is undecodable or out of
    /// range — and the caller must fall back to a reference step, which
    /// reproduces the exact fetch error.
    pub fn lookup(
        &mut self,
        off: usize,
        data: &[u8],
        decoded: &mut DecodeCache,
        model: &CoreModel,
    ) -> Option<Arc<Block>> {
        if self.model.as_ref() != Some(model) {
            self.flush();
            self.model = Some(*model);
        }
        let slot = off / 4;
        if slot >= self.slots.len() {
            return None;
        }
        if let Some(b) = &self.slots[slot] {
            if b.gen == decoded.generation() && b.off == off as u32 {
                return Some(Arc::clone(b));
            }
        }
        let uops = build_uops(off, data, decoded, model, self.max_block_len);
        if uops.is_empty() {
            return None;
        }
        let block = Arc::new(Block {
            gen: decoded.generation(),
            off: off as u32,
            uops,
        });
        if self.slots[slot].is_none() {
            while self.order.len() >= self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.slots[old as usize] = None;
                }
            }
            self.order.push_back(slot as u32);
        }
        self.slots[slot] = Some(Arc::clone(&block));
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::named::*;

    /// Assembles `build`'s program and returns (bytes, fresh decode cache).
    fn image(build: impl FnOnce(&mut Asm)) -> (Vec<u8>, DecodeCache) {
        let mut a = Asm::new();
        build(&mut a);
        let prog = a.finish().expect("assembles");
        let mut bytes = Vec::new();
        for w in prog.words() {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let decoded = DecodeCache::new(bytes.len());
        (bytes, decoded)
    }

    #[test]
    fn block_ends_at_first_terminal_inclusive() {
        let (data, mut dec) = image(|a| {
            a.addi(R1, R0, 1);
            a.addi(R2, R0, 2);
            let l = a.new_label();
            a.bind(l);
            a.bne(R1, R2, l);
            a.addi(R3, R0, 3);
            a.halt();
        });
        let model = CoreModel::or10n();
        let b = build_uops(0, &data, &mut dec, &model, DEFAULT_MAX_BLOCK_LEN);
        assert_eq!(b.len(), 3, "two addis plus the terminal branch");
        assert_eq!(b[2].kind, UopKind::Bne);
    }

    #[test]
    fn cross_block_fallthrough_starts_a_new_block_after_the_branch() {
        let (data, mut dec) = image(|a| {
            let l = a.new_label();
            a.bind(l);
            a.beq(R1, R1, l); // terminal for block 0
            a.addi(R3, R0, 3); // block 1 entry on fall-through
            a.addi(R4, R0, 4);
            a.halt();
        });
        let model = CoreModel::risc_baseline();
        let mut cache = BlockCache::new(data.len());
        let b0 = cache.lookup(0, &data, &mut dec, &model).unwrap();
        assert_eq!(b0.uops.len(), 1);
        assert_eq!(b0.uops[0].kind, UopKind::Beq);
        // The fall-through successor is its own block, covering the rest.
        let b1 = cache.lookup(4, &data, &mut dec, &model).unwrap();
        assert_eq!(b1.off, 4);
        assert_eq!(b1.uops.len(), 3);
        assert_eq!(b1.uops[2].kind, UopKind::Generic); // halt
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn max_block_length_clamp() {
        let (data, mut dec) = image(|a| {
            for _ in 0..50 {
                a.nop();
            }
            a.halt();
        });
        let model = CoreModel::risc_baseline();
        let mut cache = BlockCache::with_limits(data.len(), 16, 8);
        let b = cache.lookup(0, &data, &mut dec, &model).unwrap();
        assert_eq!(b.uops.len(), 8, "clamped below the 51-insn extent");
        // The continuation block picks up where the clamp cut.
        let b2 = cache.lookup(8 * 4, &data, &mut dec, &model).unwrap();
        assert_eq!(b2.off, 32);
        assert_eq!(b2.uops.len(), 8);
    }

    #[test]
    fn block_ending_exactly_at_image_boundary() {
        // No terminal instruction at all: straight-line code running into
        // the end of the image. The block must stop cleanly at the last
        // whole word and never read past `data.len()`.
        let (data, mut dec) = image(|a| {
            a.addi(R1, R0, 1);
            a.addi(R2, R0, 2);
            a.addi(R3, R0, 3);
        });
        assert_eq!(data.len(), 12);
        let model = CoreModel::risc_baseline();
        let b = build_uops(0, &data, &mut dec, &model, DEFAULT_MAX_BLOCK_LEN);
        assert_eq!(b.len(), 3);
        // An entry at the exact boundary yields no block (nothing to run).
        let mut cache = BlockCache::new(data.len());
        assert!(cache.lookup(12, &data, &mut dec, &model).is_none());
        // And an unaligned entry near the boundary cannot read past it.
        let tail = build_uops(10, &data, &mut dec, &model, DEFAULT_MAX_BLOCK_LEN);
        assert!(tail.is_empty() || tail.len() == 1);
    }

    #[test]
    fn generation_bump_on_store_to_code_rebuilds_block() {
        let (data, mut dec) = image(|a| {
            a.addi(R1, R0, 1);
            a.addi(R2, R0, 2);
            a.halt();
        });
        let model = CoreModel::risc_baseline();
        let mut cache = BlockCache::new(data.len());
        let b0 = cache.lookup(0, &data, &mut dec, &model).unwrap();
        let again = cache.lookup(0, &data, &mut dec, &model).unwrap();
        assert!(Arc::ptr_eq(&b0, &again), "clean hit reuses the block");
        // A store into the *decoded* range bumps the generation: the next
        // lookup must rebuild even though the slot is occupied.
        dec.invalidate(4, 4);
        let rebuilt = cache.lookup(0, &data, &mut dec, &model).unwrap();
        assert!(!Arc::ptr_eq(&b0, &rebuilt), "stale block was rebuilt");
        assert_eq!(cache.len(), 1, "rebuild replaces in place");
        assert_eq!(rebuilt.gen, dec.generation());
    }

    #[test]
    fn capacity_eviction_is_fifo() {
        let (data, mut dec) = image(|a| {
            for _ in 0..8 {
                a.nop();
            }
            a.halt();
        });
        let model = CoreModel::risc_baseline();
        // Every entry offset makes a distinct block; capacity 2.
        let mut cache = BlockCache::with_limits(data.len(), 2, 4);
        let b0 = cache.lookup(0, &data, &mut dec, &model).unwrap();
        let _b1 = cache.lookup(4, &data, &mut dec, &model).unwrap();
        assert_eq!(cache.len(), 2);
        let _b2 = cache.lookup(8, &data, &mut dec, &model).unwrap();
        assert_eq!(cache.len(), 2, "capacity holds");
        // Oldest (offset 0) was evicted: looking it up again rebuilds.
        let b0_again = cache.lookup(0, &data, &mut dec, &model).unwrap();
        assert!(!Arc::ptr_eq(&b0, &b0_again), "FIFO evicted the oldest");
    }

    #[test]
    fn unaligned_entry_does_not_alias_the_word_slot() {
        let (data, mut dec) = image(|a| {
            for _ in 0..4 {
                a.nop();
            }
            a.halt();
        });
        let model = CoreModel::or10n();
        let mut cache = BlockCache::new(data.len());
        let aligned = cache.lookup(0, &data, &mut dec, &model).unwrap();
        // Entry at pc 2 shares word slot 0 but must not hit the aligned
        // block: the stored entry offset disambiguates.
        if let Some(b) = cache.lookup(2, &data, &mut dec, &model) {
            assert_eq!(b.off, 2);
            assert!(!Arc::ptr_eq(&aligned, &b));
        }
        // And the aligned entry re-verifies `off`, rebuilding as needed.
        let back = cache.lookup(0, &data, &mut dec, &model).unwrap();
        assert_eq!(back.off, 0);
    }

    #[test]
    fn model_switch_flushes() {
        let (data, mut dec) = image(|a| {
            a.insn(Insn::Mac(R3, R1, R2));
            a.halt();
        });
        let mut cache = BlockCache::new(data.len());
        let or10n = cache
            .lookup(0, &data, &mut dec, &CoreModel::or10n())
            .unwrap();
        assert_eq!(or10n.uops[0].kind, UopKind::Mac);
        // The baseline lacks `mac`: same bytes must translate to Generic
        // (which faults at execution, like the reference engine).
        let base = cache
            .lookup(0, &data, &mut dec, &CoreModel::risc_baseline())
            .unwrap();
        assert_eq!(base.uops[0].kind, UopKind::Generic);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn translate_preresolves_immediates_and_timing() {
        let m = CoreModel::cortex_m3();
        let lui = translate(Insn::Lui(R1, 3), &m);
        assert_eq!((lui.kind, lui.imm), (UopKind::Lui, 3 << 14));
        let addi = translate(Insn::Addi(R1, R2, -5), &m);
        assert_eq!(addi.imm, -5);
        let b = translate(Insn::Beq(R1, R2, -16), &m);
        assert_eq!((b.imm, b.aux), (-16, m.timing.taken_branch));
        let mul = translate(Insn::Mul(R1, R2, R3), &m);
        assert_eq!(mul.aux, m.timing.mul);
        // Misalignment policy: penalty on unaligned-capable cores, fault
        // sentinel otherwise.
        let ld = |model: &CoreModel| {
            translate(
                Insn::Load {
                    rd: R1,
                    base: R2,
                    offset: 8,
                    size: MemSize::Word,
                    signed: true,
                },
                model,
            )
        };
        assert_eq!(ld(&m).aux, m.timing.unaligned_penalty);
        assert_eq!(ld(&CoreModel::risc_baseline()).aux, u32::MAX);
        // Post-increment without the feature goes Generic.
        let pi = translate(
            Insn::LoadPi {
                rd: R1,
                base: R2,
                inc: 4,
                size: MemSize::Word,
                signed: true,
            },
            &CoreModel::or10n(),
        );
        assert_eq!(pi.kind, UopKind::Generic);
    }
}
