//! Differential testing of instruction semantics: every ALU operation is
//! executed on the interpreter with random operands and compared against
//! an independently written Rust evaluation of the architected semantics.
//!
//! The seeded battery below runs in the default `cargo test` with no
//! external dependencies: 10 000 corner-biased operand triples per opcode
//! from the in-tree `ulp-rng` stream, reproducible from the fixed seed.
//! The same stream also checks the binary and text front ends on hostile
//! input: the decoder is total and its canonical form stable on random
//! words, and the assembly parser never panics on random text.

use ulp_isa::prelude::*;
use ulp_isa::{decode, encode};
use ulp_rng::gen::{choose, operand32};
use ulp_rng::XorShiftRng;

/// Independently evaluates the architected result of a 3-register ALU
/// instruction (a *second implementation* of the semantics, deliberately
/// written differently from the interpreter).
fn eval(insn: &Insn, a: u32, b: u32, d: u32) -> u32 {
    let (ai, bi) = (a as i32, b as i32);
    match insn {
        Insn::Add(..) => a.wrapping_add(b),
        Insn::Sub(..) => a.wrapping_sub(b),
        Insn::And(..) => a & b,
        Insn::Or(..) => a | b,
        Insn::Xor(..) => a ^ b,
        Insn::Sll(..) => a.wrapping_shl(b & 31),
        Insn::Srl(..) => a.wrapping_shr(b & 31),
        Insn::Sra(..) => ai.wrapping_shr(b & 31) as u32,
        Insn::Slt(..) => u32::from(ai < bi),
        Insn::Sltu(..) => u32::from(a < b),
        Insn::Min(..) => ai.min(bi) as u32,
        Insn::Max(..) => ai.max(bi) as u32,
        Insn::Mul(..) => a.wrapping_mul(b),
        Insn::Mac(..) => d.wrapping_add(a.wrapping_mul(b)),
        Insn::SdotV4(..) => {
            let mut acc = d as i32;
            for lane in 0..4 {
                let x = (a >> (8 * lane)) as i8 as i32;
                let y = (b >> (8 * lane)) as i8 as i32;
                acc = acc.wrapping_add(x.wrapping_mul(y));
            }
            acc as u32
        }
        Insn::SdotV2(..) => {
            let mut acc = d as i32;
            for lane in 0..2 {
                let x = (a >> (16 * lane)) as i16 as i32;
                let y = (b >> (16 * lane)) as i16 as i32;
                acc = acc.wrapping_add(x.wrapping_mul(y));
            }
            acc as u32
        }
        Insn::AddV4(..) => {
            let mut out = 0u32;
            for lane in 0..4 {
                let x = (a >> (8 * lane)) as u8;
                let y = (b >> (8 * lane)) as u8;
                out |= u32::from(x.wrapping_add(y)) << (8 * lane);
            }
            out
        }
        Insn::SubV4(..) => {
            let mut out = 0u32;
            for lane in 0..4 {
                let x = (a >> (8 * lane)) as u8;
                let y = (b >> (8 * lane)) as u8;
                out |= u32::from(x.wrapping_sub(y)) << (8 * lane);
            }
            out
        }
        Insn::AddV2(..) => {
            let mut out = 0u32;
            for lane in 0..2 {
                let x = (a >> (16 * lane)) as u16;
                let y = (b >> (16 * lane)) as u16;
                out |= u32::from(x.wrapping_add(y)) << (16 * lane);
            }
            out
        }
        Insn::SubV2(..) => {
            let mut out = 0u32;
            for lane in 0..2 {
                let x = (a >> (16 * lane)) as u16;
                let y = (b >> (16 * lane)) as u16;
                out |= u32::from(x.wrapping_sub(y)) << (16 * lane);
            }
            out
        }
        Insn::Div(..) => {
            if bi == 0 {
                u32::MAX
            } else {
                ai.wrapping_div(bi) as u32
            }
        }
        Insn::Divu(..) => a.checked_div(b).unwrap_or(u32::MAX),
        other => panic!("not a covered ALU instruction: {other}"),
    }
}

fn run_one(insn: Insn, a: u32, b: u32, d: u32) -> u32 {
    let mut asm = Asm::new();
    asm.insn(insn);
    asm.halt();
    let prog = asm.finish().unwrap();
    let mut mem = FlatMemory::new(0, 256);
    mem.load_program(&prog, 0).unwrap();
    // Cortex-M4 has div+mac; use it for everything except the SIMD ops.
    let model = if matches!(
        insn,
        Insn::SdotV4(..)
            | Insn::SdotV2(..)
            | Insn::AddV4(..)
            | Insn::AddV2(..)
            | Insn::SubV4(..)
            | Insn::SubV2(..)
    ) {
        CoreModel::or10n()
    } else {
        CoreModel::cortex_m4()
    };
    let mut core = Core::new(0, model);
    core.reset(0);
    core.set_reg(R2, a);
    core.set_reg(R3, b);
    core.set_reg(R1, d);
    core.run(&mut mem, 1000).unwrap();
    core.reg(R1)
}

/// Operand triples per opcode in the always-on battery, multiplied by
/// `ULP_BATTERY_SCALE` (default 1; the nightly CI job raises it).
const TRIPLES: usize = 10_000;

/// Triples to run right now, honouring the scale knob.
fn scaled_triples() -> usize {
    TRIPLES * ulp_par::battery_scale()
}

macro_rules! alu_case {
    ($name:ident, $variant:ident, $seed:expr) => {
        #[test]
        fn $name() {
            let scale = ulp_par::battery_scale();
            let mut rng = XorShiftRng::seed_from_u64($seed);
            let insn = Insn::$variant(R1, R2, R3);
            for i in 0..scaled_triples() {
                let (a, b, d) = (
                    operand32(&mut rng),
                    operand32(&mut rng),
                    operand32(&mut rng),
                );
                // A failing triple appends its reproduction line to
                // target/battery-failures/ before panicking, so the
                // nightly job can upload it as an artifact.
                let repro = format!(
                    "{}: seed={:#x} triple={} ULP_BATTERY_SCALE={}",
                    stringify!($name),
                    $seed,
                    i,
                    scale
                );
                ulp_par::battery_case("isa_differential", &repro, || {
                    let got = run_one(insn, a, b, d);
                    let want = eval(&insn, a, b, d);
                    assert_eq!(
                        got, want,
                        "{insn} diverged on triple #{i}: a={a:#010x} b={b:#010x} d={d:#010x} \
                         (got {got:#010x}, want {want:#010x})"
                    );
                });
            }
        }
    };
}

alu_case!(diff_add, Add, 0x0A01);
alu_case!(diff_sub, Sub, 0x0A02);
alu_case!(diff_and, And, 0x0A03);
alu_case!(diff_or, Or, 0x0A04);
alu_case!(diff_xor, Xor, 0x0A05);
alu_case!(diff_sll, Sll, 0x0A06);
alu_case!(diff_srl, Srl, 0x0A07);
alu_case!(diff_sra, Sra, 0x0A08);
alu_case!(diff_slt, Slt, 0x0A09);
alu_case!(diff_sltu, Sltu, 0x0A0A);
alu_case!(diff_min, Min, 0x0A0B);
alu_case!(diff_max, Max, 0x0A0C);
alu_case!(diff_mul, Mul, 0x0A0D);
alu_case!(diff_mac, Mac, 0x0A0E);
alu_case!(diff_sdotv4, SdotV4, 0x0A0F);
alu_case!(diff_sdotv2, SdotV2, 0x0A10);
alu_case!(diff_addv4, AddV4, 0x0A11);
alu_case!(diff_addv2, AddV2, 0x0A12);
alu_case!(diff_subv4, SubV4, 0x0A13);
alu_case!(diff_subv2, SubV2, 0x0A14);
alu_case!(diff_div, Div, 0x0A15);
alu_case!(diff_divu, Divu, 0x0A16);

/// 64-bit multiply-accumulate against native i64/u64 arithmetic.
#[test]
fn diff_mlal() {
    let mut rng = XorShiftRng::seed_from_u64(0x0B01);
    for _ in 0..scaled_triples() {
        let (a, b) = (operand32(&mut rng), operand32(&mut rng));
        let (hi, lo) = (operand32(&mut rng), operand32(&mut rng));
        let signed: bool = rng.gen();
        let insn = Insn::Mlal {
            rd_hi: R4,
            rd_lo: R5,
            ra: R2,
            rb: R3,
            signed,
        };
        let mut asm = Asm::new();
        asm.insn(insn);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = FlatMemory::new(0, 256);
        mem.load_program(&prog, 0).unwrap();
        let mut core = Core::new(0, CoreModel::cortex_m4());
        core.reset(0);
        core.set_reg(R2, a);
        core.set_reg(R3, b);
        core.set_reg(R4, hi);
        core.set_reg(R5, lo);
        core.run(&mut mem, 100).unwrap();
        let got = (u64::from(core.reg(R4)) << 32) | u64::from(core.reg(R5));
        let acc = (u64::from(hi) << 32) | u64::from(lo);
        let prod = if signed {
            (i64::from(a as i32).wrapping_mul(i64::from(b as i32))) as u64
        } else {
            u64::from(a).wrapping_mul(u64::from(b))
        };
        assert_eq!(
            got,
            acc.wrapping_add(prod),
            "mlal signed={signed} a={a:#x} b={b:#x}"
        );
    }
}

/// Branch predicates agree with the architected comparison semantics:
/// a taken branch skips the `r6 = 1` marker instruction.
#[test]
fn diff_branches() {
    let mut rng = XorShiftRng::seed_from_u64(0x0B02);
    for _ in 0..scaled_triples() {
        let (a, b) = (operand32(&mut rng), operand32(&mut rng));
        let kind = rng.gen_range(0usize..6);
        let taken_expected = match kind {
            0 => a == b,
            1 => a != b,
            2 => (a as i32) < (b as i32),
            3 => (a as i32) >= (b as i32),
            4 => a < b,
            _ => a >= b,
        };
        let mut asm = Asm::new();
        let target = asm.new_label();
        match kind {
            0 => asm.beq(R2, R3, target),
            1 => asm.bne(R2, R3, target),
            2 => asm.blt(R2, R3, target),
            3 => asm.bge(R2, R3, target),
            4 => asm.bltu(R2, R3, target),
            _ => asm.bgeu(R2, R3, target),
        };
        asm.li(R6, 1);
        asm.bind(target);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = FlatMemory::new(0, 128);
        mem.load_program(&prog, 0).unwrap();
        let mut core = Core::new(0, CoreModel::risc_baseline());
        core.reset(0);
        core.set_reg(R2, a);
        core.set_reg(R3, b);
        core.run(&mut mem, 100).unwrap();
        assert_eq!(
            core.reg(R6) == 0,
            taken_expected,
            "branch kind {kind} a={a:#x} b={b:#x}"
        );
    }
}

/// Immediate forms agree with their register forms.
#[test]
fn diff_addi_vs_add() {
    let mut rng = XorShiftRng::seed_from_u64(0x0B03);
    for _ in 0..scaled_triples() {
        let a = operand32(&mut rng);
        let imm: i16 = rng.gen_range(-8192i16..8192);
        let mut asm = Asm::new();
        asm.addi(R1, R2, imm);
        asm.halt();
        let prog = asm.finish().unwrap();
        let mut mem = FlatMemory::new(0, 128);
        mem.load_program(&prog, 0).unwrap();
        let mut core = Core::new(0, CoreModel::risc_baseline());
        core.reset(0);
        core.set_reg(R2, a);
        core.run(&mut mem, 100).unwrap();
        assert_eq!(
            core.reg(R1),
            a.wrapping_add(imm as i32 as u32),
            "addi a={a:#x} imm={imm}"
        );
    }
}

/// Decoding is total on arbitrary words, and canonicalization is stable:
/// any word that decodes re-encodes (when its operands fit) to a word that
/// decodes to the same instruction. Half the words are uniformly random;
/// the other half flip a few bits of a known-good encoding, so the
/// decodable space is sampled densely too.
#[test]
fn decode_is_total_and_decode_encode_is_stable() {
    let seeds: Vec<u32> = {
        let mut a = Asm::new();
        a.add(R1, R2, R3);
        a.lw(R4, R5, 12);
        a.sw(R6, R7, -8);
        a.mac(R8, R9, R10);
        a.slli(R11, R12, 5);
        a.addi(R13, R14, -100);
        a.insn(Insn::Csrr(R15, Csr::CoreId));
        a.sev(3);
        a.wfe();
        a.barrier();
        a.halt();
        a.finish().unwrap().words().to_vec()
    };
    let mut rng = XorShiftRng::seed_from_u64(0x0C01);
    let mut decoded = 0usize;
    let cases = 20_000 * ulp_par::battery_scale();
    for _ in 0..cases {
        let word = if rng.gen_bool(0.5) {
            rng.next_u32()
        } else {
            let mut w = *choose(&mut rng, &seeds);
            for _ in 0..rng.gen_range(1u32..=3) {
                w ^= 1 << rng.gen_range(0u32..32);
            }
            w
        };
        let Ok(insn) = decode(word) else { continue };
        decoded += 1;
        if let Ok(word2) = encode(&insn) {
            assert_eq!(
                decode(word2),
                Ok(insn),
                "{word:#010x} decodes to `{insn}`, whose encoding {word2:#010x} does not"
            );
        }
    }
    assert!(
        decoded * 10 >= cases,
        "only {decoded}/{cases} words decoded: the stream misses the valid space"
    );
}

/// Random character from a mix that reaches every parser branch: mostly
/// assembly-ish ASCII, plus arbitrary non-control Unicode and newlines.
fn text_char(rng: &mut XorShiftRng) -> char {
    const ASCII: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ,():+-.#;_xXrR\t\n";
    if rng.gen_bool(0.8) {
        char::from(*choose(rng, ASCII))
    } else {
        char::from_u32(rng.gen_range(0x20u32..=0x10_FFFF))
            .filter(|c| !c.is_control())
            .unwrap_or('?')
    }
}

/// The assembly parser never panics, whatever text it is fed: random
/// strings up to 200 characters, and mnemonic-shaped near misses (a real
/// mnemonic followed by up to 40 characters of operand-alphabet junk).
#[test]
fn text_parser_survives_random_and_mnemonic_shaped_garbage() {
    const MNEMONICS: &[&str] = &["add", "lw", "beq", "lp.setup", "smull", "csrr", "sev"];
    const JUNK: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ,():+-";
    let mut rng = XorShiftRng::seed_from_u64(0x0C02);
    for _ in 0..5_000 * ulp_par::battery_scale() {
        let len = rng.gen_range(0usize..=200);
        let text: String = (0..len).map(|_| text_char(&mut rng)).collect();
        let _ = ulp_isa::parse_insn(&text);
        let _ = ulp_isa::parse_program(&text);

        let junk: String = (0..rng.gen_range(0usize..=40))
            .map(|_| char::from(*choose(&mut rng, JUNK)))
            .collect();
        let line = format!("{} {junk}", choose(&mut rng, MNEMONICS));
        let _ = ulp_isa::parse_insn(&line);
        let _ = ulp_isa::parse_program(&line);
    }
}
