//! Compiler runtime library: software emulation of wide arithmetic.
//!
//! OR10N has no 32×32→64 multiplier and no hardware divider, so the
//! paper's `hog` benchmark pays for "SW-emulated 64-bit variables for
//! accumulation" (§IV-B) — the very reason it shows an architectural
//! *slowdown* versus Cortex-M, whose `SMULL`/`SMLAL`/`UDIV` do the same
//! work in 1–8 cycles. This module is that software runtime:
//!
//! * [`emit_mul64`] / [`emit_mac64`] — signed 64-bit multiply
//!   (-accumulate): one `mull`/`mlal` instruction on `mul64` targets, a
//!   ~25-instruction 16-bit partial-product sequence elsewhere;
//! * [`emit_add64`] — carry-propagating pair addition;
//! * [`Rtlib`] subroutines `udiv32` (restoring division) and `isqrt64`
//!   (bit-by-bit square root), shared across call sites via `jal`.

use ulp_isa::reg::named::*;
use ulp_isa::{Asm, Insn, Label, Reg};

use super::TargetEnv;

/// Emits `hi:lo = x * y` (signed 64-bit product).
///
/// Uses the single `smull` instruction on `mul64` targets; otherwise emits
/// the 16-bit partial-product sequence. `hi`, `lo`, `x`, `y` and the four
/// temporaries must all be distinct registers; `x`/`y` are preserved.
#[allow(clippy::many_single_char_names)]
pub fn emit_mul64(a: &mut Asm, env: &TargetEnv, hi: Reg, lo: Reg, x: Reg, y: Reg, t: [Reg; 4]) {
    assert_distinct(&[hi, lo, x, y, t[0], t[1], t[2], t[3]]);
    if env.features().mul64 {
        a.insn(Insn::Mull {
            rd_hi: hi,
            rd_lo: lo,
            ra: x,
            rb: y,
            signed: true,
        });
        return;
    }
    let [t0, t1, t2, t3] = t;
    // Split into 16-bit halves: x = x1:x0, y = y1:y0.
    a.srli(t0, x, 16); // x1
    a.slli(t1, x, 16);
    a.srli(t1, t1, 16); // x0
    a.srli(t2, y, 16); // y1
    a.slli(t3, y, 16);
    a.srli(t3, t3, 16); // y0
    a.mul(lo, t1, t3); // p00 = x0*y0
    a.insn(Insn::Mul(hi, t0, t2)); // p11 = x1*y1
    a.mul(t1, t1, t2); // p01 = x0*y1
    a.mul(t0, t0, t3); // p10 = x1*y0
                       // mid = (p00 >> 16) + (p01 & 0xffff) + (p10 & 0xffff)
    a.srli(t2, lo, 16);
    a.slli(t3, t1, 16);
    a.srli(t3, t3, 16);
    a.add(t2, t2, t3);
    a.slli(t3, t0, 16);
    a.srli(t3, t3, 16);
    a.add(t2, t2, t3);
    // lo = (p00 & 0xffff) | (mid << 16)
    a.slli(lo, lo, 16);
    a.srli(lo, lo, 16);
    a.slli(t3, t2, 16);
    a.insn(Insn::Or(lo, lo, t3));
    // hi += (p01 >> 16) + (p10 >> 16) + (mid >> 16)
    a.srli(t1, t1, 16);
    a.add(hi, hi, t1);
    a.srli(t0, t0, 16);
    a.add(hi, hi, t0);
    a.srli(t2, t2, 16);
    a.add(hi, hi, t2);
    // Signed correction: hi -= (x < 0 ? y : 0) + (y < 0 ? x : 0).
    a.srai(t0, x, 31);
    a.insn(Insn::And(t0, t0, y));
    a.sub(hi, hi, t0);
    a.srai(t0, y, 31);
    a.insn(Insn::And(t0, t0, x));
    a.sub(hi, hi, t0);
}

/// Emits `acc_hi:acc_lo += x * y` (signed 64-bit multiply-accumulate).
///
/// One `smlal` on `mul64` targets; otherwise [`emit_mul64`] into the first
/// two temporaries plus a carry-propagating add. Six distinct temporaries
/// are required in the software case.
pub fn emit_mac64(
    a: &mut Asm,
    env: &TargetEnv,
    acc_hi: Reg,
    acc_lo: Reg,
    x: Reg,
    y: Reg,
    t: [Reg; 6],
) {
    if env.features().mul64 {
        a.insn(Insn::Mlal {
            rd_hi: acc_hi,
            rd_lo: acc_lo,
            ra: x,
            rb: y,
            signed: true,
        });
        return;
    }
    let [p_hi, p_lo, t0, t1, t2, t3] = t;
    emit_mul64(a, env, p_hi, p_lo, x, y, [t0, t1, t2, t3]);
    emit_add64(a, acc_hi, acc_lo, p_hi, p_lo, t0);
}

/// Emits `hi:lo += add_hi:add_lo` with carry (4 instructions).
///
/// `tmp` must differ from all operands; `add_lo` is read after `lo` is
/// written, so `lo` must not alias `add_lo`.
pub fn emit_add64(a: &mut Asm, hi: Reg, lo: Reg, add_hi: Reg, add_lo: Reg, tmp: Reg) {
    assert_distinct(&[hi, lo, add_lo, tmp]);
    a.add(lo, lo, add_lo);
    a.insn(Insn::Sltu(tmp, lo, add_lo)); // carry out
    a.add(hi, hi, add_hi);
    a.add(hi, hi, tmp);
}

/// Emits an arithmetic shift right of the pair `hi:lo` by a constant
/// `0 < sh < 32` (sign-propagating, result back in `hi:lo`).
pub fn emit_sra64_const(a: &mut Asm, hi: Reg, lo: Reg, sh: u8, tmp: Reg) {
    assert!(sh > 0 && sh < 32, "shift must be in 1..32");
    assert_distinct(&[hi, lo, tmp]);
    a.srli(lo, lo, sh);
    a.slli(tmp, hi, 32 - sh);
    a.insn(Insn::Or(lo, lo, tmp));
    a.srai(hi, hi, sh);
}

fn assert_distinct(regs: &[Reg]) {
    for (i, r) in regs.iter().enumerate() {
        for s in &regs[i + 1..] {
            assert_ne!(r, s, "register operands must be distinct");
        }
    }
}

/// Shared software routines, called by `jal r31, <label>`.
///
/// # ABI
///
/// * `udiv32`: numerator in `r11`, denominator in `r12` → quotient in
///   `r13`; clobbers `r11, r14–r16`. Division by zero yields `u32::MAX`.
/// * `isqrt64`: operand in `r11:r12` (hi:lo) → floor square root in `r13`;
///   clobbers `r11–r19`.
///
/// Create before generating kernel code, call
/// [`Rtlib::emit_bodies`] once after the final `halt`.
#[derive(Debug, Default)]
pub struct Rtlib {
    udiv32: Option<Label>,
    isqrt64: Option<Label>,
}

impl Rtlib {
    /// Creates an empty runtime library; routine bodies are only emitted
    /// for the routines actually referenced.
    #[must_use]
    pub fn new() -> Self {
        Rtlib::default()
    }

    /// Emits `quot = num / den` (unsigned). Uses the hardware divider when
    /// the target has one, otherwise calls the shared `udiv32` routine
    /// (clobbering `r11–r16` and `r31`).
    pub fn emit_udiv32(&mut self, a: &mut Asm, env: &TargetEnv, quot: Reg, num: Reg, den: Reg) {
        if env.features().div {
            a.insn(Insn::Divu(quot, num, den));
            return;
        }
        let label = *self.udiv32.get_or_insert_with(|| a.new_label());
        a.mv(R11, num);
        a.mv(R12, den);
        a.jal_to(R31, label);
        if quot != R13 {
            a.mv(quot, R13);
        }
    }

    /// Emits `result = floor(sqrt(hi:lo))` by calling the shared `isqrt64`
    /// routine (clobbers `r11–r19` and `r31`). All targets use the same
    /// bit-by-bit algorithm — neither ARM-M nor OR10N has a hardware root.
    pub fn emit_isqrt64(
        &mut self,
        a: &mut Asm,
        _env: &TargetEnv,
        result: Reg,
        x_hi: Reg,
        x_lo: Reg,
    ) {
        let label = *self.isqrt64.get_or_insert_with(|| a.new_label());
        if x_hi != R11 {
            a.mv(R11, x_hi);
        }
        if x_lo != R12 {
            a.mv(R12, x_lo);
        }
        a.jal_to(R31, label);
        if result != R13 {
            a.mv(result, R13);
        }
    }

    /// Emits the bodies of every referenced routine. Call once, after the
    /// kernel's final `halt`.
    pub fn emit_bodies(self, a: &mut Asm) {
        if let Some(label) = self.udiv32 {
            a.bind(label);
            Self::body_udiv32(a);
        }
        if let Some(label) = self.isqrt64 {
            a.bind(label);
            Self::body_isqrt64(a);
        }
    }

    /// Restoring (shift-subtract) unsigned division, 32 iterations.
    fn body_udiv32(a: &mut Asm) {
        let loop_top = a.new_label();
        let skip = a.new_label();
        let div0 = a.new_label();
        let out = a.new_label();
        a.beq(R12, R0, div0);
        a.li(R13, 0); // quotient
        a.li(R14, 0); // remainder
        a.li(R15, 32); // bit counter
        a.bind(loop_top);
        a.slli(R14, R14, 1);
        a.srli(R16, R11, 31);
        a.insn(Insn::Or(R14, R14, R16));
        a.slli(R11, R11, 1);
        a.slli(R13, R13, 1);
        a.bltu(R14, R12, skip);
        a.sub(R14, R14, R12);
        a.insn(Insn::Ori(R13, R13, 1));
        a.bind(skip);
        a.addi(R15, R15, -1);
        a.bne(R15, R0, loop_top);
        a.jmp(out);
        a.bind(div0);
        a.li(R13, -1); // u32::MAX, matching `divu` semantics
        a.bind(out);
        a.ret(R31);
    }

    /// Bit-by-bit 64-bit integer square root (the algorithm of
    /// `ulp_kernels::fixed::isqrt_u64`).
    fn body_isqrt64(a: &mut Asm) {
        // x = r11:r12, res = r13:r14, bit = r15:r16, temps r17-r19.
        let find = a.new_label();
        let do_shift = a.new_label();
        let start = a.new_label();
        let loop_top = a.new_label();
        let less = a.new_label();
        let geq = a.new_label();
        let next = a.new_label();
        let done = a.new_label();

        a.li(R13, 0);
        a.li(R14, 0);
        // bit = 1 << 62: bit 30 of the high word.
        a.addi(R15, R0, 1);
        a.slli(R15, R15, 30); // bit_hi = 1 << 30
        a.li(R16, 0); // bit_lo = 0

        // while bit > x: bit >>= 2
        a.bind(find);
        a.bltu(R15, R11, start); // bit_hi < x_hi  => bit < x
        a.bne(R15, R11, do_shift); // bit_hi > x_hi => shift
        a.bgeu(R12, R16, start); // hi equal, x_lo >= bit_lo => start
        a.bind(do_shift);
        a.srli(R16, R16, 2);
        a.slli(R17, R15, 30);
        a.insn(Insn::Or(R16, R16, R17));
        a.srli(R15, R15, 2);
        a.insn(Insn::Or(R17, R15, R16));
        a.bne(R17, R0, find);
        a.jmp(done); // x == 0

        a.bind(start);
        a.bind(loop_top);
        // t(r17:r18) = res + bit
        a.add(R18, R14, R16);
        a.insn(Insn::Sltu(R19, R18, R16));
        a.add(R17, R13, R15);
        a.add(R17, R17, R19);
        // compare x with t
        a.bltu(R11, R17, less);
        a.bne(R11, R17, geq);
        a.bltu(R12, R18, less);
        a.bind(geq);
        // x -= t
        a.insn(Insn::Sltu(R19, R12, R18));
        a.sub(R12, R12, R18);
        a.sub(R11, R11, R17);
        a.sub(R11, R11, R19);
        // res = (res >> 1) + bit
        a.slli(R19, R13, 31);
        a.srli(R14, R14, 1);
        a.insn(Insn::Or(R14, R14, R19));
        a.srli(R13, R13, 1);
        a.add(R14, R14, R16);
        a.insn(Insn::Sltu(R19, R14, R16));
        a.add(R13, R13, R15);
        a.add(R13, R13, R19);
        a.jmp(next);
        a.bind(less);
        // res >>= 1
        a.slli(R19, R13, 31);
        a.srli(R14, R14, 1);
        a.insn(Insn::Or(R14, R14, R19));
        a.srli(R13, R13, 1);
        a.bind(next);
        // bit >>= 2; loop while bit != 0
        a.srli(R16, R16, 2);
        a.slli(R19, R15, 30);
        a.insn(Insn::Or(R16, R16, R19));
        a.srli(R15, R15, 2);
        a.insn(Insn::Or(R19, R15, R16));
        a.bne(R19, R0, loop_top);
        a.bind(done);
        a.mv(R13, R14);
        a.ret(R31);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed;
    use ulp_isa::prelude::*;
    use ulp_isa::CoreState;
    use ulp_rng::XorShiftRng;

    fn run(env: &TargetEnv, build: impl FnOnce(&mut Asm)) -> Core {
        let mut a = Asm::new();
        build(&mut a);
        let prog = a.finish().expect("assembles");
        let mut mem = FlatMemory::new(0x2000_0000, 128 * 1024);
        mem.load_program(&prog, 0x2000_0000).unwrap();
        let mut core = Core::new(0, env.model);
        core.reset(0x2000_0000);
        core.run(&mut mem, 100_000_000).unwrap();
        assert_eq!(core.state(), CoreState::Halted);
        core
    }

    fn mul64_on(env: &TargetEnv, x: i32, y: i32) -> i64 {
        let core = run(env, |a| {
            a.li(R20, x);
            a.li(R21, y);
            a.li(R22, 0);
            a.li(R23, 0);
            emit_mul64(a, env, R22, R23, R20, R21, [R10, R11, R12, R13]);
            a.halt();
        });
        (i64::from(core.reg(R22) as i32) << 32) | i64::from(core.reg(R23))
    }

    #[test]
    fn mul64_matches_native_product() {
        let cases = [
            (0i32, 0i32),
            (1, 1),
            (-1, 1),
            (-1, -1),
            (i32::MAX, i32::MAX),
            (i32::MIN, 2),
            (i32::MIN, i32::MIN),
            (100_000, 100_000),
            (-100_000, 99_999),
            (65536, 65536),
            (-65536, 65537),
        ];
        for env in [
            TargetEnv::pulp_single(),
            TargetEnv::host_m4(),
            TargetEnv::baseline(),
        ] {
            for &(x, y) in &cases {
                assert_eq!(
                    mul64_on(&env, x, y),
                    i64::from(x) * i64::from(y),
                    "{x}*{y} on {}",
                    env.model.name
                );
            }
        }
    }

    #[test]
    fn mul64_random_against_reference() {
        let mut rng = XorShiftRng::seed_from_u64(42);
        let env = TargetEnv::pulp_single(); // software path
        for _ in 0..40 {
            let x: i32 = rng.gen();
            let y: i32 = rng.gen();
            assert_eq!(mul64_on(&env, x, y), i64::from(x) * i64::from(y), "{x}*{y}");
        }
    }

    #[test]
    fn mac64_accumulates() {
        for env in [TargetEnv::pulp_single(), TargetEnv::host_m4()] {
            let core = run(&env, |a| {
                a.li(R20, -7);
                a.li(R21, 100_000);
                a.li(R22, 0);
                a.li(R23, 0);
                for _ in 0..3 {
                    emit_mac64(a, &env, R22, R23, R20, R21, [R10, R11, R12, R13, R14, R15]);
                }
                a.halt();
            });
            let acc = (i64::from(core.reg(R22) as i32) << 32) | i64::from(core.reg(R23));
            assert_eq!(acc, -2_100_000, "on {}", env.model.name);
        }
    }

    #[test]
    fn add64_carry_chains() {
        let env = TargetEnv::baseline();
        let core = run(&env, |a| {
            // acc = 0x00000001_FFFFFFFF; add 0x0_00000001 -> 0x2_00000000
            a.li(R20, 1);
            a.li(R21, -1); // 0xFFFF_FFFF
            a.li(R22, 0);
            a.li(R23, 1);
            emit_add64(a, R20, R21, R22, R23, R10);
            a.halt();
        });
        assert_eq!(core.reg(R20), 2);
        assert_eq!(core.reg(R21), 0);
    }

    #[test]
    fn sra64_shifts_pair() {
        let env = TargetEnv::baseline();
        let core = run(&env, |a| {
            // value = -(1 << 40); >> 15 = -(1 << 25)
            a.li(R20, -256); // hi = 0xFFFFFF00 = -(1<<40) >> 32
            a.li(R21, 0);
            emit_sra64_const(a, R20, R21, 15, R10);
            a.halt();
        });
        let v = (i64::from(core.reg(R20) as i32) << 32) | i64::from(core.reg(R21));
        assert_eq!(v, -(1i64 << 40) >> 15);
    }

    fn isqrt_on(env: &TargetEnv, v: u64) -> u32 {
        let core = run(env, |a| {
            let mut rt = Rtlib::new();
            a.li(R20, (v >> 32) as i32);
            a.li(R21, v as i32);
            rt.emit_isqrt64(a, env, R22, R20, R21);
            a.halt();
            rt.emit_bodies(a);
        });
        core.reg(R22)
    }

    #[test]
    fn isqrt64_matches_reference() {
        let env = TargetEnv::pulp_single();
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            15,
            16,
            144,
            1 << 20,
            (1 << 20) + 1,
            u64::from(u32::MAX),
            1 << 40,
            u64::MAX,
        ] {
            assert_eq!(isqrt_on(&env, v), fixed::isqrt_u64(v), "sqrt({v})");
        }
    }

    #[test]
    fn isqrt64_random() {
        let mut rng = XorShiftRng::seed_from_u64(7);
        let env = TargetEnv::host_m4();
        for _ in 0..25 {
            let v: u64 = rng.gen();
            assert_eq!(isqrt_on(&env, v), fixed::isqrt_u64(v), "sqrt({v})");
        }
    }

    fn udiv_on(env: &TargetEnv, n: u32, d: u32) -> u32 {
        let core = run(env, |a| {
            let mut rt = Rtlib::new();
            a.li(R20, n as i32);
            a.li(R21, d as i32);
            rt.emit_udiv32(a, env, R22, R20, R21);
            a.halt();
            rt.emit_bodies(a);
        });
        core.reg(R22)
    }

    #[test]
    fn udiv32_matches_reference_on_both_paths() {
        let cases = [
            (0u32, 1u32),
            (1, 1),
            (100, 7),
            (u32::MAX, 1),
            (u32::MAX, u32::MAX),
            (5, 10),
            (1 << 31, 3),
        ];
        // or10n takes the software loop, M4 the hardware divider.
        for env in [TargetEnv::pulp_single(), TargetEnv::host_m4()] {
            for &(n, d) in &cases {
                assert_eq!(udiv_on(&env, n, d), n / d, "{n}/{d} on {}", env.model.name);
            }
            assert_eq!(
                udiv_on(&env, 123, 0),
                u32::MAX,
                "div by zero on {}",
                env.model.name
            );
        }
    }

    #[test]
    fn udiv32_random() {
        let mut rng = XorShiftRng::seed_from_u64(11);
        let env = TargetEnv::pulp_single();
        for _ in 0..25 {
            let n: u32 = rng.gen();
            let d: u32 = rng.gen_range(1..=u32::MAX);
            assert_eq!(udiv_on(&env, n, d), n / d);
        }
    }

    #[test]
    fn m4_wide_mac_much_cheaper_than_or10n() {
        // The root cause of the paper's hog slowdown: count cycles for 64
        // wide MACs on each target.
        let cycles = |env: &TargetEnv| {
            let core = run(env, |a| {
                a.li(R20, 12345);
                a.li(R21, -6789);
                for _ in 0..64 {
                    emit_mac64(a, env, R22, R23, R20, R21, [R10, R11, R12, R13, R14, R15]);
                }
                a.halt();
            });
            core.time()
        };
        let m4 = cycles(&TargetEnv::host_m4());
        let or10n = cycles(&TargetEnv::pulp_single());
        assert!(
            or10n > m4 * 5,
            "software 64-bit MAC ({or10n} cy) must dwarf SMLAL ({m4} cy)"
        );
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn aliased_registers_rejected() {
        let env = TargetEnv::baseline();
        let mut a = Asm::new();
        emit_mul64(&mut a, &env, R1, R1, R2, R3, [R4, R5, R6, R7]);
    }
}
