//! Differential battery for the epoch cluster engine.
//!
//! The epoch engine speculates whole per-core windows over pre-decoded
//! micro-op blocks and repairs the arbitration afterwards, falling back to
//! an exact micro-op interleaving on conflicts and running traced runs
//! through that exact loop wholesale (see `DESIGN.md`). Its contract is
//! *bit-identity* with the reference scheduler — not "close", identical:
//! same `RunResult` (retired counts included), same error (deadlocks and
//! timeouts included), same memory image, same trace, on every program and
//! every configuration.
//!
//! Part A drives both engines over hundreds of seeded random SPMD
//! programs on random cluster shapes (core count, TCDM banking, cache and
//! barrier latencies), including programs that deadlock or fault, plus a
//! dedicated stream of self-modifying programs that rewrite instructions
//! both inside and across cached block boundaries, plus a stream biased
//! toward TCDM bank-contention-heavy and I$-thrashing shapes — the exact
//! programs the epoch engine's conflict repair must not get wrong — plus
//! contended non-halting loops run into a sweep of cycle budgets. Part B
//! replays the full offload pipeline — all ten Table I benchmarks, with
//! the link fault injector both off and on, on the quad-core and the
//! eight-core cluster — through `HetSystem` instances that differ only in
//! engine choice. Part C reconciles the epoch engine's decision counters
//! on the same kernels.

use ulp_cluster::{
    Cluster, ClusterConfig, ClusterError, Engine, RunResult, EVT_BROADCAST, EVT_EOC, L2_BASE,
    TCDM_BASE,
};
use ulp_isa::prelude::*;
use ulp_rng::gen::choose;
use ulp_rng::XorShiftRng;
use ulp_trace::Tracer;

/// Bytes of the per-run TCDM scratch window compared across engines.
const SCRATCH_BYTES: usize = 512;

fn random_config(rng: &mut XorShiftRng) -> ClusterConfig {
    ClusterConfig {
        num_cores: *choose(rng, &[1, 2, 2, 3, 4, 4, 4, 8]),
        tcdm_banks: *choose(rng, &[1, 2, 4, 8]),
        icache_miss_penalty: rng.gen_range(1u32..=20),
        l2_data_latency: rng.gen_range(1u32..=10),
        barrier_latency: rng.gen_range(0u32..=8),
        ..ClusterConfig::default()
    }
}

/// A seeded random SPMD program: every core runs the same text, with
/// per-core divergence coming from the core-id CSR (different register
/// values, different branch outcomes, colliding TCDM accesses). Some
/// programs include a fork/join prologue; ~halting is likely but not
/// guaranteed — non-halting programs must produce the *same* deadlock or
/// timeout under both engines.
fn random_program(rng: &mut XorShiftRng) -> Program {
    let regs = [R1, R2, R3, R4, R5, R6];
    let mut a = Asm::new();
    a.insn(Insn::Csrr(R20, Csr::CoreId));

    if rng.gen_bool(0.3) {
        // fork/join prologue: workers sleep until the master broadcasts.
        let worker = a.new_label();
        let body = a.new_label();
        a.bne(R20, R0, worker);
        a.sev(EVT_BROADCAST);
        a.jmp(body);
        a.bind(worker);
        a.wfe();
        a.bind(body);
    }

    // Seed the register pool, then a per-core scratch pointer.
    for (k, &r) in regs.iter().enumerate() {
        a.li(r, rng.gen::<u32>() as i32 ^ k as i32);
    }
    a.la(R10, TCDM_BASE);
    a.slli(R11, R20, 4);
    a.add(R10, R10, R11);

    let blocks = rng.gen_range(5usize..=30);
    for _ in 0..blocks {
        match rng.gen_range(0u32..1000) {
            // Rare hazard blocks: orphan wfe (→ deadlock unless a latched
            // broadcast absorbs it), misaligned access (→ exec fault on a
            // specific core), and an infinite loop (→ timeout). Engines
            // must agree on the exact error, faulting core included.
            980..=983 => {
                a.wfe();
            }
            984..=986 => {
                let off = rng.gen_range(0i16..=15) * 4 + rng.gen_range(1i16..=3);
                a.lw(*choose(rng, &regs), R10, off);
            }
            987..=989 => {
                let spin = a.new_label();
                a.bind(spin);
                a.jmp(spin);
            }
            0..=349 => {
                let (rd, ra, rb) = (
                    *choose(rng, &regs),
                    *choose(rng, &regs),
                    *choose(rng, &regs),
                );
                match rng.gen_range(0u32..5) {
                    0 => a.add(rd, ra, rb),
                    1 => a.sub(rd, ra, rb),
                    2 => a.mul(rd, ra, rb),
                    3 => a.mac(rd, ra, rb),
                    _ => a.addi(rd, ra, rng.gen_range(-128i16..=127)),
                };
            }
            350..=499 => {
                let (rd, ra) = (*choose(rng, &regs), *choose(rng, &regs));
                let sh = rng.gen_range(0u8..=31);
                match rng.gen_range(0u32..3) {
                    0 => a.slli(rd, ra, sh),
                    1 => a.srli(rd, ra, sh),
                    _ => a.srai(rd, ra, sh),
                };
            }
            500..=799 => {
                // TCDM traffic: word/half/byte, offsets overlap between
                // cores so bank arbitration and ordering are exercised.
                let r = *choose(rng, &regs);
                match rng.gen_range(0u32..6) {
                    0 => a.sw(r, R10, rng.gen_range(0i16..=63) * 4),
                    1 => a.lw(r, R10, rng.gen_range(0i16..=63) * 4),
                    2 => a.sh(r, R10, rng.gen_range(0i16..=127) * 2),
                    3 => a.lh(r, R10, rng.gen_range(0i16..=127) * 2),
                    4 => a.sb(r, R10, rng.gen_range(0i16..=255)),
                    _ => a.lbu(r, R10, rng.gen_range(0i16..=255)),
                };
            }
            800..=899 => {
                // Forward branch over 1–2 ALU ops; outcome differs per
                // core, so engines must agree on divergent control flow.
                let skip = a.new_label();
                let (ra, rb) = (*choose(rng, &regs), *choose(rng, &regs));
                match rng.gen_range(0u32..3) {
                    0 => a.beq(ra, rb, skip),
                    1 => a.blt(ra, rb, skip),
                    _ => a.bgeu(ra, rb, skip),
                };
                for _ in 0..rng.gen_range(1usize..=2) {
                    let (rd, r1, r2) = (
                        *choose(rng, &regs),
                        *choose(rng, &regs),
                        *choose(rng, &regs),
                    );
                    a.add(rd, r1, r2);
                }
                a.bind(skip);
            }
            _ => {
                a.barrier();
            }
        }
    }

    // Epilogue: rendezvous, master raises EOC, everyone halts.
    a.barrier();
    let done = a.new_label();
    a.bne(R20, R0, done);
    a.sev(EVT_EOC);
    a.bind(done);
    a.halt();
    a.finish().expect("generated program must assemble")
}

/// Runs one (config, program) pair on the given engine and returns every
/// observable: the run result or error, the TCDM scratch window, and the
/// attached tracer (if any) for trace comparison.
fn run_engine(
    cfg: &ClusterConfig,
    prog: &Program,
    engine: Engine,
    tracer: Option<Tracer>,
) -> (Result<RunResult, ClusterError>, (Vec<u8>, Option<Tracer>)) {
    let mut cl = Cluster::new(ClusterConfig { engine, ..*cfg });
    if let Some(t) = &tracer {
        cl.set_tracer(t.clone());
    }
    cl.load_binary(prog, L2_BASE).expect("program fits in L2");
    cl.start(L2_BASE, &[], 0);
    let result = cl.run_until_halt(200_000);
    let scratch = cl
        .read_tcdm(TCDM_BASE, SCRATCH_BYTES)
        .expect("scratch readback");
    (result, (scratch, tracer))
}

/// Seed of the Part A battery stream.
const BATTERY_SEED: u64 = 0x70B0_D1FF;

/// Runs one (config, program) pair on both engines and asserts every
/// observable is identical, the reference scan being the oracle. Every
/// `trace`d case also attaches a tracer per engine and compares the
/// exported Chrome JSON byte-for-byte — the traced epoch run goes through
/// the exact micro-op loop wholesale, so this keeps that loop checked.
/// Returns the reference outcome.
fn assert_two_way(
    cfg: &ClusterConfig,
    prog: &Program,
    trace: bool,
    battery: &str,
    ctx: &str,
    repro: &str,
) -> Result<RunResult, ClusterError> {
    let tracer = |on: bool| {
        if on {
            Some(Tracer::with_capacity(8192))
        } else {
            None
        }
    };
    let (reference, ref_mem) = run_engine(cfg, prog, Engine::Reference, tracer(trace));
    let ref_json = ref_mem.1.as_ref().map(|t| t.chrome_json());
    ulp_par::battery_case(battery, repro, || {
        let (result, mem) = run_engine(cfg, prog, Engine::Epoch, tracer(trace));
        assert_eq!(result, reference, "{ctx}: epoch result diverged");
        assert_eq!(mem.0, ref_mem.0, "{ctx}: epoch TCDM image diverged");
        if let (Some(golden), Some(t)) = (&ref_json, &mem.1) {
            assert_eq!(&t.chrome_json(), golden, "{ctx}: epoch trace diverged");
        }
    });
    reference
}

/// Part A: 600 seeded random (config, program) pairs per unit of
/// `ULP_BATTERY_SCALE` (default 1; CI raises it), both engines, every
/// observable compared for equality. Every 16th pair
/// also runs with a tracer attached on each side and compares the exported
/// Chrome JSON byte-for-byte. A failing case appends its reproduction
/// line to `target/battery-failures/` before panicking.
#[test]
fn engines_match_reference_on_600_random_programs() {
    let scale = ulp_par::battery_scale();
    let cases = 600 * scale;
    let mut rng = XorShiftRng::seed_from_u64(BATTERY_SEED);
    let mut halted = 0usize;
    let mut errored = 0usize;
    for case in 0..cases {
        let cfg = random_config(&mut rng);
        let prog = random_program(&mut rng);
        let ctx = format!(
            "case {case} ({} cores, {} banks)",
            cfg.num_cores, cfg.tcdm_banks
        );
        let repro = format!(
            "engines_match_reference_on_600_random_programs: \
             seed={BATTERY_SEED:#x} case={case} ULP_BATTERY_SCALE={scale}"
        );
        match assert_two_way(
            &cfg,
            &prog,
            case % 16 == 0,
            "engine_differential",
            &ctx,
            &repro,
        ) {
            Ok(_) => halted += 1,
            Err(_) => errored += 1,
        }
    }
    // The battery must exercise both completion and failure paths.
    assert!(
        halted * 3 >= cases * 2,
        "only {halted}/{cases} programs completed"
    );
    assert!(
        errored * 60 >= cases,
        "only {errored}/{cases} programs hit an error path"
    );
}

/// Seed of the self-modifying-code battery stream.
const SMC_SEED: u64 = 0x5E1F_C0DE;

/// A seeded self-modifying SPMD program: the text contains 1–4 patch sites
/// (each an `addi r1, r0, imm` feeding an accumulator), and before every
/// site the program stores a replacement instruction word over it, then
/// falls through and executes it. Per site the store is either in the
/// *same* straight line as the site (the patch lands inside the currently
/// executing cached block) or separated from it by a jump (the patch
/// crosses a block boundary). An outer loop runs the whole region twice,
/// so on the second pass every site's block is already cached and must be
/// detected stale.
fn random_smc_program(rng: &mut XorShiftRng) -> Program {
    let sites = rng.gen_range(1usize..=4);
    let plan: Vec<(bool, i16, i16)> = (0..sites)
        .map(|_| {
            (
                rng.gen_bool(0.5),
                rng.gen_range(1i16..=100),
                rng.gen_range(101i16..=200),
            )
        })
        .collect();
    let build = |addrs: &[u32]| -> (Program, Vec<u32>) {
        let mut a = Asm::new();
        let mut offs = Vec::new();
        a.insn(Insn::Csrr(R20, Csr::CoreId));
        a.li(R9, 2); // run the patch region twice: cold build, then stale hit
        a.li(R8, 0);
        let top = a.new_label();
        a.bind(top);
        for (k, &(cross, before, after)) in plan.iter().enumerate() {
            let patched = ulp_isa::encode(&Insn::Addi(R1, R0, after)).unwrap();
            a.li(R3, patched as i32);
            a.la(R2, addrs.get(k).copied().unwrap_or(L2_BASE + 4));
            a.sw(R3, R2, 0);
            if cross {
                // A control-flow edge between store and site: the patch
                // lands in a different (and, on pass 2, cached) block.
                let over = a.new_label();
                a.jmp(over);
                a.bind(over);
            }
            offs.push(a.here());
            a.insn(Insn::Addi(R1, R0, before)); // the patch target
            a.add(R8, R8, R1);
        }
        a.addi(R9, R9, -1);
        a.bne(R9, R0, top);
        // Publish the accumulator to a per-core TCDM slot.
        a.la(R10, TCDM_BASE);
        a.slli(R11, R20, 2);
        a.add(R10, R10, R11);
        a.sw(R8, R10, 0);
        a.barrier();
        let done = a.new_label();
        a.bne(R20, R0, done);
        a.sev(EVT_EOC);
        a.bind(done);
        a.halt();
        (a.finish().expect("smc program must assemble"), offs)
    };
    // Two-pass assembly: measure the site offsets with same-length
    // placeholder addresses, then rebuild pointing the stores at the real
    // sites. (All involved `li`/`la` constants keep nonzero low 14 bits,
    // so every encoding is two words in both passes.)
    let (_, offs) = build(&[]);
    let addrs: Vec<u32> = offs.iter().map(|&o| L2_BASE + o).collect();
    let (prog, offs2) = build(&addrs);
    assert_eq!(offs, offs2, "site offsets must be stable across passes");
    prog
}

/// Part A': 120 seeded self-modifying programs per unit of
/// `ULP_BATTERY_SCALE`, both engines, every observable compared —
/// the stress case for the micro-op block cache's generation-based
/// invalidation (in-block staleness after a store, cross-block staleness
/// on re-entry of a cached block). Every case must halt: an SMC program
/// that faults means an engine executed a stale instruction.
#[test]
fn engines_match_reference_on_self_modifying_programs() {
    let scale = ulp_par::battery_scale();
    let cases = 120 * scale;
    let mut rng = XorShiftRng::seed_from_u64(SMC_SEED);
    for case in 0..cases {
        let cfg = random_config(&mut rng);
        let prog = random_smc_program(&mut rng);
        let ctx = format!(
            "smc case {case} ({} cores, {} banks)",
            cfg.num_cores, cfg.tcdm_banks
        );
        let repro = format!(
            "engines_match_reference_on_self_modifying_programs: \
             seed={SMC_SEED:#x} case={case} ULP_BATTERY_SCALE={scale}"
        );
        let outcome = assert_two_way(&cfg, &prog, case % 8 == 0, "smc_differential", &ctx, &repro);
        assert!(outcome.is_ok(), "{ctx}: SMC program must halt: {outcome:?}");
    }
}

/// Seed of the contention battery stream.
const CONTENTION_SEED: u64 = 0xBA2C_0217;

/// Cluster shapes for the contention battery: few banks against many
/// cores, and an instruction cache small enough that the generated text
/// cannot fit — every loop iteration re-misses lines.
fn contention_config(rng: &mut XorShiftRng) -> ClusterConfig {
    ClusterConfig {
        num_cores: *choose(rng, &[2, 4, 4, 4, 8]),
        tcdm_banks: *choose(rng, &[1, 2, 2, 4]),
        icache_size: *choose(rng, &[256, 512, 1024]),
        icache_line: 16,
        icache_miss_penalty: rng.gen_range(5u32..=20),
        l2_data_latency: rng.gen_range(1u32..=10),
        barrier_latency: rng.gen_range(0u32..=8),
        ..ClusterConfig::default()
    }
}

/// A seeded SPMD program biased toward the shapes the epoch engine's
/// conflict repair must not get wrong: every core hammers the *same* TCDM
/// bank (offsets strided by the bank count keep the whole burst on bank
/// 0), barriers re-align the cores so the bursts keep colliding, shared
/// hot words create cross-core read-after-write hazards inside a window,
/// and straight-line filler bloats the text past the (deliberately small)
/// I$ so an outer loop re-misses every line. Always halts: a fault or
/// deadlock here means a generator bug, not an interesting schedule.
fn random_contention_program(rng: &mut XorShiftRng, banks: usize) -> Program {
    let regs = [R1, R2, R3, R4, R5, R6];
    let stride = 4 * banks as i16;
    let mut a = Asm::new();
    a.insn(Insn::Csrr(R20, Csr::CoreId));
    for (k, &r) in regs.iter().enumerate() {
        a.li(r, rng.gen::<u32>() as i32 ^ k as i32);
    }
    // Shared scratch base — deliberately *not* per-core — and a per-core
    // divergence value for branch variety.
    a.la(R10, TCDM_BASE);
    a.slli(R11, R20, 3);
    a.li(R9, rng.gen_range(2i32..=4)); // outer loop: re-run the whole text
    let top = a.new_label();
    a.bind(top);
    for _ in 0..rng.gen_range(6usize..=14) {
        match rng.gen_range(0u32..1000) {
            // Single-bank hammer burst: every access in the burst (from
            // every core at once) lands on bank 0.
            0..=449 => {
                for _ in 0..rng.gen_range(3usize..=8) {
                    let r = *choose(rng, &regs);
                    let off = rng.gen_range(0i16..=15) * stride;
                    match rng.gen_range(0u32..4) {
                        0 => a.sw(r, R10, off),
                        1 => a.lw(r, R10, off),
                        2 => a.sh(r, R10, off),
                        _ => a.lbu(r, R10, off),
                    };
                }
            }
            // Straight-line filler: bloats the text so the outer loop
            // thrashes the small I$; mul/mac add multi-cycle timing.
            450..=649 => {
                for _ in 0..rng.gen_range(12usize..=32) {
                    let (rd, ra, rb) = (
                        *choose(rng, &regs),
                        *choose(rng, &regs),
                        *choose(rng, &regs),
                    );
                    match rng.gen_range(0u32..4) {
                        0 => a.add(rd, ra, rb),
                        1 => a.mul(rd, ra, rb),
                        2 => a.mac(rd, ra, rb),
                        _ => a.addi(rd, ra, rng.gen_range(-128i16..=127)),
                    };
                }
            }
            // Re-align the cores so the next burst collides again.
            650..=799 => {
                a.barrier();
            }
            // Shared hot word: cross-core write/read on the same address
            // inside one speculation window (the data-flow hazard case).
            800..=899 => {
                let r = *choose(rng, &regs);
                a.sw(r, R10, 0);
                a.lw(*choose(rng, &regs), R10, 0);
            }
            // Core-divergent skip: cores fall out of lockstep briefly.
            _ => {
                let skip = a.new_label();
                a.blt(R11, *choose(rng, &regs), skip);
                a.add(*choose(rng, &regs), R11, *choose(rng, &regs));
                a.bind(skip);
            }
        }
    }
    a.addi(R9, R9, -1);
    a.bne(R9, R0, top);
    a.barrier();
    let done = a.new_label();
    a.bne(R20, R0, done);
    a.sev(EVT_EOC);
    a.bind(done);
    a.halt();
    a.finish().expect("contention program must assemble")
}

/// Part A'': 150 seeded contention-heavy programs per unit of
/// `ULP_BATTERY_SCALE`, both engines, every observable compared — the
/// adversarial stream for the epoch engine's bank-conflict repair,
/// data-flow hazard abort, and I$-miss fallback. Every case must halt.
#[test]
fn engines_match_reference_on_contention_heavy_programs() {
    let scale = ulp_par::battery_scale();
    let cases = 150 * scale;
    let mut rng = XorShiftRng::seed_from_u64(CONTENTION_SEED);
    for case in 0..cases {
        let cfg = contention_config(&mut rng);
        let prog = random_contention_program(&mut rng, cfg.tcdm_banks);
        let ctx = format!(
            "contention case {case} ({} cores, {} banks, {}B I$)",
            cfg.num_cores, cfg.tcdm_banks, cfg.icache_size
        );
        let repro = format!(
            "engines_match_reference_on_contention_heavy_programs: \
             seed={CONTENTION_SEED:#x} case={case} ULP_BATTERY_SCALE={scale}"
        );
        let outcome = assert_two_way(
            &cfg,
            &prog,
            case % 16 == 0,
            "contention_differential",
            &ctx,
            &repro,
        );
        assert!(
            outcome.is_ok(),
            "{ctx}: contention program must halt: {outcome:?}"
        );
    }
}

/// A non-halting SPMD program in which every core stores to and loads
/// from its own word of TCDM bank 0 forever (word offsets strided by the
/// bank count), so every access contends with every other core's and the
/// exact issue times run well past the modelled ones.
fn bank_hammer_loop(banks: usize) -> Program {
    let mut a = Asm::new();
    a.insn(Insn::Csrr(R20, Csr::CoreId));
    a.la(R10, TCDM_BASE);
    a.li(R11, 4 * banks as i32);
    a.mul(R11, R11, R20);
    a.add(R10, R10, R11);
    let top = a.new_label();
    a.bind(top);
    a.sw(R1, R10, 0);
    a.lw(R2, R10, 0);
    a.addi(R1, R2, 1);
    a.sw(R1, R10, 0);
    a.jmp(top);
    a.finish().expect("hammer loop must assemble")
}

/// Part A''': contended multi-core programs that never halt, run into
/// their cycle budget over a sweep of budgets — every budget up to 1,200
/// cycles, then every 47th up to 6,000 — so epochs and their boundary
/// top-ups end at every distance from the deadline. The epoch engine must
/// return the reference's `Timeout` and TCDM image every time, and return
/// at all: a top-up round cannot move a core whose clock is past the
/// deadline, which used to retry forever (on 4 cores with 1 or 2 banks at
/// budgets 385, 386, 388 and 389).
#[test]
fn engines_time_out_alike_on_contended_infinite_loops() {
    for (cores, banks) in [(4, 1), (4, 2), (8, 1), (8, 2), (8, 16)] {
        let cfg = ClusterConfig {
            num_cores: cores,
            tcdm_banks: banks,
            ..ClusterConfig::default()
        };
        let prog = bank_hammer_loop(banks);
        for max_cycles in (300..1_200).chain((1_200..6_000).step_by(47)) {
            let run = |engine: Engine| {
                let mut cl = Cluster::new(ClusterConfig { engine, ..cfg });
                cl.load_binary(&prog, L2_BASE).expect("program fits in L2");
                cl.start(L2_BASE, &[], 0);
                let result = cl.run_until_halt(max_cycles);
                let scratch = cl.read_tcdm(TCDM_BASE, SCRATCH_BYTES).expect("readback");
                (result, scratch)
            };
            let reference = run(Engine::Reference);
            assert_eq!(
                reference.0,
                Err(ClusterError::Timeout { max_cycles }),
                "{cores} cores, {banks} banks"
            );
            assert_eq!(
                run(Engine::Epoch),
                reference,
                "{cores} cores, {banks} banks, max_cycles {max_cycles}: epoch diverged"
            );
        }
    }
}

/// The `f407-pulp4-octa` platform's system configuration: eight cores,
/// 128 kB TCDM in 16 banks.
fn octa_config() -> ulp_offload::HetSystemConfig {
    let text = include_str!("../platforms/f407-pulp4-octa.toml");
    let spec = ulp_platform::PlatformSpec::parse("f407-pulp4-octa.toml", text)
        .unwrap_or_else(|e| panic!("{e}"));
    ulp_offload::config_from_platform(&spec)
}

/// Part B: the full offload pipeline on every Table I benchmark, link
/// faults off and on, through systems differing only in engine choice —
/// on the default quad-core cluster and on the eight-core
/// `f407-pulp4-octa` shape, with kernels built for each shape's env.
/// Reports, resilience stats and link counters are compared via their
/// `Debug` rendering, which covers every field.
#[test]
fn engines_match_reference_on_all_benchmarks_with_and_without_faults() {
    use ulp_kernels::{Benchmark, TargetEnv};
    use ulp_offload::{cluster_env, FaultConfig, HetSystem, HetSystemConfig, OffloadOptions};

    let fault_modes = [
        FaultConfig::default(),
        FaultConfig {
            seed: 0xFA17,
            bit_error_rate: 2e-6,
            drop_rate: 1e-3,
            late_eoc_rate: 5e-3,
            ..FaultConfig::default()
        },
    ];
    let octa = octa_config();
    let shapes = [
        (
            "quad",
            HetSystemConfig::default(),
            TargetEnv::pulp_parallel(),
        ),
        ("f407-pulp4-octa", octa.clone(), cluster_env(&octa)),
    ];
    for (shape, base, env) in &shapes {
        for benchmark in Benchmark::ALL {
            let accel = benchmark.build(env);
            let host = benchmark.build(&TargetEnv::host_m4());
            for fault in &fault_modes {
                let observe = |engine: Engine| {
                    let mut sys = HetSystem::new(HetSystemConfig {
                        fault: *fault,
                        cluster: ClusterConfig {
                            engine,
                            ..base.cluster
                        },
                        ..base.clone()
                    });
                    let opts = OffloadOptions {
                        iterations: 2,
                        ..OffloadOptions::default()
                    };
                    let report = sys
                        .offload_with_fallback(&accel, &host, &opts)
                        .unwrap_or_else(|e| panic!("{shape} {benchmark:?} offload failed: {e}"));
                    format!("{report:?} {:?}", sys.link_stats())
                };
                assert_eq!(
                    observe(Engine::Epoch),
                    observe(Engine::Reference),
                    "{shape} {benchmark:?} (faults active: {}) diverged: epoch vs reference",
                    fault.is_active()
                );
            }
        }
    }
}

/// Part C: the epoch engine's decision counters reconcile on real runs.
/// Every Table I kernel runs cold and warm (one binary load, two runs, as
/// `HetSystem::measure_cost` does) on the baseline quad-core platform
/// and on the eight-core `f407-pulp4-octa` shape. After every run the
/// epochs decided add up to the epochs attempted, and the instructions
/// retired by committed epochs plus those retired by exact windows add
/// up to the runs' `ClusterActivity::total_retired()`. The boundary
/// top-ups converge on every one of those epochs: none ends on the
/// top-up budget.
#[test]
fn epoch_counters_reconcile_on_every_benchmark() {
    use ulp_cluster::EpochAbort;
    use ulp_kernels::{Benchmark, BufferInit};
    use ulp_offload::{cluster_env, HetSystemConfig};

    for (shape, cfg) in [
        ("quad", HetSystemConfig::default()),
        ("f407-pulp4-octa", octa_config()),
    ] {
        let env = cluster_env(&cfg);
        let mut speculated = 0;
        for benchmark in Benchmark::ALL {
            let build = benchmark.build(&env);
            let mut cl = Cluster::new(cfg.cluster);
            cl.load_binary(&build.program, L2_BASE).expect("image fits");
            let mut retired = 0;
            for run in ["cold", "warm"] {
                for buf in &build.buffers {
                    let zeros;
                    let bytes = match &buf.init {
                        BufferInit::Data(d) => d,
                        BufferInit::Zero => {
                            zeros = vec![0u8; buf.len];
                            &zeros
                        }
                    };
                    cl.write_tcdm(buf.addr, bytes).expect("buffer fits");
                }
                cl.start(L2_BASE, &build.args, 0);
                let res = cl
                    .run_until_halt(ulp_kernels::runner::MAX_KERNEL_CYCLES)
                    .unwrap_or_else(|e| panic!("{shape} {benchmark:?} {run}: {e}"));
                retired += res.activity.total_retired();
                let s = cl.epoch_stats();
                let ctx = format!("{shape} {benchmark:?} {run}: {s:?}");
                assert_eq!(
                    s.committed + s.salvaged + s.rolled_back,
                    s.attempted,
                    "{ctx}"
                );
                assert_eq!(
                    s.aborts.iter().sum::<u64>(),
                    s.salvaged + s.rolled_back,
                    "{ctx}"
                );
                assert_eq!(s.retired_epoch + s.retired_exact, retired, "{ctx}");
            }
            let s = cl.epoch_stats();
            assert_eq!(
                s.aborts_of(EpochAbort::TopupBudget),
                0,
                "{shape} {benchmark:?}: a boundary top-up ran out of budget: {s:?}"
            );
            speculated += s.retired_epoch;
        }
        assert!(speculated > 0, "{shape}: no epoch ever committed");
    }
}
