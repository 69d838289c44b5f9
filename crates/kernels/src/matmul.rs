//! Matrix multiplication benchmarks (`matmul`, `matmul (short)`,
//! `matmul (fixed)` of Table I).
//!
//! `C = A · B` on 64×64 matrices. As in optimized embedded kernels
//! (including the PULP test suite the paper draws from), the second
//! operand is stored **transposed** (`BT`), so both the `A` row and the
//! `BT` row are walked with unit stride — that is what lets OR10N's
//! sub-word dot products (`sdot.v4`/`sdot.v2`) consume packed operands
//! with plain word loads.
//!
//! Per-target lowering of the inner dot product:
//!
//! | target | char | short | fixed (Q2.13) |
//! |---|---|---|---|
//! | OR10N      | `lw ×2, sdot.v4` per 4 | `lw ×2, sdot.v2` ×2 per 4 | `lh ×2, mul, srai, add` ×2, HW loop |
//! | Cortex-M   | `lb.pi ×2, mla` ×4 | `lh.pi ×2, mla` ×4 | `lh.pi ×2, mul, asr, add` ×2 |
//! | baseline   | `lb ×2, mul, add, addi ×2` | same with `lh` | `lh ×2, mul, srai, add, addi ×2` |
//!
//! The fixed-point variant shifts **every product** before accumulating
//! ("there is no multiply-shift-add operation", paper §IV-B), so neither
//! the MAC nor the SIMD dot product applies — exactly why the paper's
//! fixed-point kernels gain less from the OR10N extensions.

use ulp_isa::reg::named::*;
use ulp_isa::{Asm, Insn, MemSize, Reg};
use ulp_rng::XorShiftRng;

use crate::codegen::emit::{counted_loop, range_loop, spmd_kernel, static_chunk};
use crate::codegen::{DataLayout, KernelBuild, TargetEnv};

/// Matrix dimension of the Table I configuration.
pub const N: usize = 64;

/// Element type of a matmul variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatVariant {
    /// 8-bit integers (`matmul` — 8 kB in, 4 kB out).
    Char,
    /// 16-bit integers (`matmul (short)` — 16 kB in, 8 kB out).
    Short,
    /// Q2.13 fixed-point (`matmul (fixed)` — per-product shift).
    Fixed,
}

impl MatVariant {
    /// Element size in bytes.
    #[must_use]
    pub fn elem_bytes(self) -> usize {
        match self {
            MatVariant::Char => 1,
            MatVariant::Short | MatVariant::Fixed => 2,
        }
    }

    /// Table I row name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MatVariant::Char => "matmul",
            MatVariant::Short => "matmul (short)",
            MatVariant::Fixed => "matmul (fixed)",
        }
    }
}

/// Bit-exact reference: `char` variant (i32 accumulation, truncating
/// store to i8).
#[must_use]
pub fn reference_char(a: &[i8], bt: &[i8], n: usize) -> Vec<i8> {
    let mut c = vec![0i8; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0i32;
            for k in 0..n {
                acc = acc
                    .wrapping_add(i32::from(a[i * n + k]).wrapping_mul(i32::from(bt[j * n + k])));
            }
            c[i * n + j] = acc as i8;
        }
    }
    c
}

/// Bit-exact reference: `short` variant (i32 accumulation, truncating
/// store to i16).
#[must_use]
pub fn reference_short(a: &[i16], bt: &[i16], n: usize) -> Vec<i16> {
    let mut c = vec![0i16; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0i32;
            for k in 0..n {
                acc = acc
                    .wrapping_add(i32::from(a[i * n + k]).wrapping_mul(i32::from(bt[j * n + k])));
            }
            c[i * n + j] = acc as i16;
        }
    }
    c
}

/// Bit-exact reference: Q2.13 variant — every product is shifted before
/// accumulation.
#[must_use]
pub fn reference_fixed(a: &[i16], bt: &[i16], n: usize) -> Vec<i16> {
    let mut c = vec![0i16; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0i32;
            for k in 0..n {
                acc = acc.wrapping_add(crate::fixed::q13_mul_wide(a[i * n + k], bt[j * n + k]));
            }
            c[i * n + j] = acc as i16;
        }
    }
    c
}

fn log2(v: usize) -> u8 {
    debug_assert!(v.is_power_of_two());
    v.trailing_zeros() as u8
}

/// Emits the inner dot-product loop: `acc(R17) = Σ_k a_row[k]·bt_row[k]`,
/// advancing `a_ptr` (R18) and `bt_ptr` (R14) across the full row.
///
/// Register contract: acc R17, a_ptr R18, bt_ptr R14, count R7,
/// scratch R1, temps R20–R22.
fn emit_dot(a: &mut Asm, env: &TargetEnv, variant: MatVariant, n: usize) {
    let f = env.features();
    let acc = R17;
    let ap = R18;
    let bp = R14;
    let (t0, t1, t2) = (R20, R21, R22);

    a.li(acc, 0);
    match variant {
        MatVariant::Char if f.simd_dot => {
            // 4 elements per iteration: two word loads + sdot.v4.
            a.li(R7, (n / 4) as i32);
            counted_loop(a, env, 0, R7, R1, |a| {
                a.lw(t0, ap, 0);
                a.lw(t1, bp, 0);
                a.insn(Insn::SdotV4(acc, t0, t1));
                a.addi(ap, ap, 4);
                a.addi(bp, bp, 4);
            });
        }
        MatVariant::Short if f.simd_dot => {
            // 4 elements per iteration: two sdot.v2 pairs.
            a.li(R7, (n / 4) as i32);
            counted_loop(a, env, 0, R7, R1, |a| {
                a.lw(t0, ap, 0);
                a.lw(t1, bp, 0);
                a.insn(Insn::SdotV2(acc, t0, t1));
                a.lw(t0, ap, 4);
                a.lw(t1, bp, 4);
                a.insn(Insn::SdotV2(acc, t0, t1));
                a.addi(ap, ap, 8);
                a.addi(bp, bp, 8);
            });
        }
        MatVariant::Char | MatVariant::Short if f.mac => {
            // Cortex-M path: unrolled 4-element MAC with post-indexed loads.
            let (size, step) = match variant {
                MatVariant::Char => (MemSize::Byte, 1i16),
                _ => (MemSize::Half, 2i16),
            };
            a.li(R7, (n / 4) as i32);
            counted_loop(a, env, 0, R7, R1, |a| {
                for u in 0..4i16 {
                    if f.post_increment {
                        a.insn(Insn::LoadPi {
                            rd: t0,
                            base: ap,
                            inc: step,
                            size,
                            signed: true,
                        });
                        a.insn(Insn::LoadPi {
                            rd: t1,
                            base: bp,
                            inc: step,
                            size,
                            signed: true,
                        });
                    } else {
                        let off = u * step;
                        a.insn(Insn::Load {
                            rd: t0,
                            base: ap,
                            offset: off,
                            size,
                            signed: true,
                        });
                        a.insn(Insn::Load {
                            rd: t1,
                            base: bp,
                            offset: off,
                            size,
                            signed: true,
                        });
                    }
                    a.mac(acc, t0, t1);
                }
                if !f.post_increment {
                    a.addi(ap, ap, 4 * step);
                    a.addi(bp, bp, 4 * step);
                }
            });
        }
        MatVariant::Fixed if f.mac || f.hw_loops => {
            // Optimized fixed-point: per-product shift, unrolled ×2.
            a.li(R7, (n / 2) as i32);
            counted_loop(a, env, 0, R7, R1, |a| {
                for u in 0..2i16 {
                    if f.post_increment {
                        a.insn(Insn::LoadPi {
                            rd: t0,
                            base: ap,
                            inc: 2,
                            size: MemSize::Half,
                            signed: true,
                        });
                        a.insn(Insn::LoadPi {
                            rd: t1,
                            base: bp,
                            inc: 2,
                            size: MemSize::Half,
                            signed: true,
                        });
                    } else {
                        a.lh(t0, ap, u * 2);
                        a.lh(t1, bp, u * 2);
                    }
                    a.mul(t2, t0, t1);
                    a.srai(t2, t2, 13);
                    a.add(acc, acc, t2);
                }
                if !f.post_increment {
                    a.addi(ap, ap, 4);
                    a.addi(bp, bp, 4);
                }
            });
        }
        _ => {
            // RISC baseline: plain element loop, no unrolling.
            let (size, step) = match variant {
                MatVariant::Char => (MemSize::Byte, 1i16),
                _ => (MemSize::Half, 2i16),
            };
            a.li(R7, n as i32);
            counted_loop(a, env, 0, R7, R1, |a| {
                a.insn(Insn::Load {
                    rd: t0,
                    base: ap,
                    offset: 0,
                    size,
                    signed: true,
                });
                a.insn(Insn::Load {
                    rd: t1,
                    base: bp,
                    offset: 0,
                    size,
                    signed: true,
                });
                a.mul(t2, t0, t1);
                if variant == MatVariant::Fixed {
                    a.srai(t2, t2, 13);
                }
                a.add(acc, acc, t2);
                a.addi(ap, ap, step);
                a.addi(bp, bp, step);
            });
        }
    }
}

/// Builds the Table I matmul (64×64). See [`build_sized`] for reduced
/// problem sizes used in fast tests.
#[must_use]
pub fn build(variant: MatVariant, env: &TargetEnv) -> KernelBuild {
    build_sized(variant, env, N)
}

/// Builds an `n×n` matmul kernel for the given target. `n` must be a
/// multiple of 8.
///
/// # Panics
///
/// Panics if `n` is not a power of two multiple of 8 (the generator uses
/// shift-based addressing).
#[must_use]
pub fn build_sized(variant: MatVariant, env: &TargetEnv, n: usize) -> KernelBuild {
    assert!(
        n >= 8 && n.is_power_of_two(),
        "n must be a power of two ≥ 8"
    );
    let mut rng = XorShiftRng::seed_from_u64(0xDA7E_2016 ^ n as u64 ^ variant.elem_bytes() as u64);

    let esz = variant.elem_bytes();
    let (a_bytes, bt_bytes, expect): (Vec<u8>, Vec<u8>, Vec<u8>) = match variant {
        MatVariant::Char => {
            let a: Vec<i8> = (0..n * n).map(|_| rng.gen()).collect();
            let bt: Vec<i8> = (0..n * n).map(|_| rng.gen()).collect();
            let c = reference_char(&a, &bt, n);
            (
                a.iter().map(|v| *v as u8).collect(),
                bt.iter().map(|v| *v as u8).collect(),
                c.iter().map(|v| *v as u8).collect(),
            )
        }
        MatVariant::Short => {
            let a: Vec<i16> = (0..n * n).map(|_| rng.gen()).collect();
            let bt: Vec<i16> = (0..n * n).map(|_| rng.gen()).collect();
            let c = reference_short(&a, &bt, n);
            (
                a.iter().flat_map(|v| v.to_le_bytes()).collect(),
                bt.iter().flat_map(|v| v.to_le_bytes()).collect(),
                c.iter().flat_map(|v| v.to_le_bytes()).collect(),
            )
        }
        MatVariant::Fixed => {
            // Values in (-1, 1) Q2.13, the typical normalized-data regime.
            let a: Vec<i16> = (0..n * n).map(|_| rng.gen_range(-8192..8192)).collect();
            let bt: Vec<i16> = (0..n * n).map(|_| rng.gen_range(-8192..8192)).collect();
            let c = reference_fixed(&a, &bt, n);
            (
                a.iter().flat_map(|v| v.to_le_bytes()).collect(),
                bt.iter().flat_map(|v| v.to_le_bytes()).collect(),
                c.iter().flat_map(|v| v.to_le_bytes()).collect(),
            )
        }
    };

    let mut l = DataLayout::new(env, 64 * 1024);
    let a_addr = l.input("A", a_bytes);
    let bt_addr = l.input("BT", bt_bytes);
    let c_addr = l.output("C", n * n * esz);
    let buffers = l.finish();

    let in_row_shift = log2(n * esz);
    let out_row_shift = in_row_shift; // C has the same element size

    let mut asm = Asm::new();
    spmd_kernel(&mut asm, env, |a, env| {
        // Work-share the rows of C.
        static_chunk(a, env, n as u32, R10, R11, R12);
        range_loop(a, R12, R10, R11, |a| {
            // a_row = A + i·n·esz ; c_ptr = C + i·n·esz ; bt_ptr = BT
            a.slli(R13, R12, in_row_shift);
            a.add(R16, R3, R13);
            a.slli(R13, R12, out_row_shift);
            a.add(R15, R5, R13);
            a.mv(R14, R4);
            a.li(R6, n as i32);
            counted_loop(a, env, 1, R6, R2, |a| {
                a.mv(R18, R16);
                emit_dot(a, env, variant, n);
                let size = match variant {
                    MatVariant::Char => MemSize::Byte,
                    _ => MemSize::Half,
                };
                a.insn(Insn::Store {
                    rs: R17,
                    base: R15,
                    offset: 0,
                    size,
                });
                a.addi(R15, R15, esz as i16);
            });
        });
    });
    let program = asm.finish().expect("matmul generator emits valid code");

    KernelBuild {
        name: format!("{}[{}x{n}]", variant.name(), env.model.name),
        program,
        args: vec![(R3, a_addr), (R4, bt_addr), (R5, c_addr)],
        buffers,
        expected: vec![(2, expect)],
    }
}

/// Registers used as kernel arguments by the matmul builds.
pub const ARG_REGS: [Reg; 3] = [R3, R4, R5];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;

    /// Every power-of-two size from 8 to 32: small enough to simulate on
    /// every target, large enough to exercise the tiling.
    const TEST_SIZES: [usize; 3] = [8, 16, 32];

    fn all_envs() -> [TargetEnv; 5] {
        [
            TargetEnv::baseline(),
            TargetEnv::host_m3(),
            TargetEnv::host_m4(),
            TargetEnv::pulp_single(),
            TargetEnv::pulp_parallel(),
        ]
    }

    #[test]
    fn char_correct_on_all_targets() {
        for env in all_envs() {
            for n in TEST_SIZES {
                let build = build_sized(MatVariant::Char, &env, n);
                run(&build, &env).unwrap_or_else(|e| panic!("{} n={n}: {e}", build.name));
            }
        }
    }

    #[test]
    fn short_correct_on_all_targets() {
        for env in all_envs() {
            for n in TEST_SIZES {
                let build = build_sized(MatVariant::Short, &env, n);
                run(&build, &env).unwrap_or_else(|e| panic!("{} n={n}: {e}", build.name));
            }
        }
    }

    #[test]
    fn fixed_correct_on_all_targets() {
        for env in all_envs() {
            for n in TEST_SIZES {
                let build = build_sized(MatVariant::Fixed, &env, n);
                run(&build, &env).unwrap_or_else(|e| panic!("{} n={n}: {e}", build.name));
            }
        }
    }

    #[test]
    fn table1_sizes_match_paper() {
        for (variant, input_kb, output_kb) in [
            (MatVariant::Char, 8, 4),
            (MatVariant::Short, 16, 8),
            (MatVariant::Fixed, 16, 8),
        ] {
            let build = build(variant, &TargetEnv::pulp_single());
            assert_eq!(build.input_bytes(), input_kb * 1024, "{}", variant.name());
            assert_eq!(build.output_bytes(), output_kb * 1024, "{}", variant.name());
        }
    }

    #[test]
    fn architectural_speedup_in_paper_band() {
        // Paper Fig. 4 left: integer matmul 2–2.5×, fixed-point lower but
        // above 1. We accept a slightly wider band (see EXPERIMENTS.md).
        let n = 32;
        for (variant, lo, hi) in [
            (MatVariant::Char, 2.0, 4.0),
            (MatVariant::Short, 1.5, 3.5),
            (MatVariant::Fixed, 1.0, 2.2),
        ] {
            let m4 = run(
                &build_sized(variant, &TargetEnv::host_m4(), n),
                &TargetEnv::host_m4(),
            )
            .unwrap();
            let or10n = run(
                &build_sized(variant, &TargetEnv::pulp_single(), n),
                &TargetEnv::pulp_single(),
            )
            .unwrap();
            let speedup = m4.cycles as f64 / or10n.cycles as f64;
            assert!(
                (lo..hi).contains(&speedup),
                "{}: arch speedup {speedup:.2} outside [{lo}, {hi})",
                variant.name()
            );
        }
    }

    #[test]
    fn parallel_speedup_near_ideal() {
        let n = 32;
        let single = run(
            &build_sized(MatVariant::Char, &TargetEnv::pulp_single(), n),
            &TargetEnv::pulp_single(),
        )
        .unwrap();
        let quad = run(
            &build_sized(MatVariant::Char, &TargetEnv::pulp_parallel(), n),
            &TargetEnv::pulp_parallel(),
        )
        .unwrap();
        let speedup = single.cycles as f64 / quad.cycles as f64;
        assert!(
            (3.0..4.0).contains(&speedup),
            "4-core matmul speedup {speedup:.2} outside [3, 4)"
        );
    }

    #[test]
    fn m3_not_faster_than_m4() {
        let n = 16;
        for variant in [MatVariant::Char, MatVariant::Fixed] {
            let m4 = run(
                &build_sized(variant, &TargetEnv::host_m4(), n),
                &TargetEnv::host_m4(),
            )
            .unwrap();
            let m3 = run(
                &build_sized(variant, &TargetEnv::host_m3(), n),
                &TargetEnv::host_m3(),
            )
            .unwrap();
            assert!(m3.cycles >= m4.cycles, "{}", variant.name());
        }
    }

    #[test]
    fn riscops_of_table1_config_near_paper() {
        // Paper Table I: matmul = 2.4M RISC ops. Count retired instructions
        // on the baseline core for the full 64×64 problem.
        let env = TargetEnv::baseline();
        let r = run(&build(MatVariant::Char, &env), &env).unwrap();
        let mops = r.retired as f64 / 1.0e6;
        assert!(
            (1.8..3.0).contains(&mops),
            "matmul RISC ops {mops:.2}M outside the 2.4M anchor band"
        );
    }

    #[test]
    fn reference_known_values() {
        // 2×2-ish sanity on the 8×8 minimum size: identity times X = X.
        let n = 8;
        let mut ident = vec![0i8; n * n];
        for i in 0..n {
            ident[i * n + i] = 1;
        }
        let x: Vec<i8> = (0..(n * n) as i32).map(|v| v as i8).collect();
        // C = I·X with BT = X^T ... using reference directly: A=I, BT = X^T
        let mut xt = vec![0i8; n * n];
        for i in 0..n {
            for j in 0..n {
                xt[j * n + i] = x[i * n + j];
            }
        }
        assert_eq!(reference_char(&ident, &xt, n), x);
    }
}
