//! Structured emission helpers: SPMD fork/join harness, counted loops,
//! static work distribution.
//!
//! The SPMD harness is the streamlined OpenMP runtime of the paper in
//! generated-code form: a `#pragma omp parallel` region becomes
//!
//! * master (core 0): serial prologue → `sev`-broadcast to release the
//!   team (fork) → its chunk of the work-shared loop → HW barrier (join)
//!   → serial epilogue → end-of-computation event → halt;
//! * workers: `wfe` in the idle pool → their chunk → HW barrier → halt.
//!
//! The measured gap between ideal and actual 4-core speedup therefore has
//! exactly the paper's two components: Amdahl serial sections and the
//! runtime's fork/join/barrier overhead (reported at ≈6 % on average).

use ulp_isa::reg::named::*;
use ulp_isa::{Asm, Csr, Insn, Reg};

use super::{TargetEnv, CORE_ID_REG};

/// Event id of the end-of-computation wire (shared constant with
/// `ulp_cluster::EVT_EOC`).
pub const EVT_EOC: u8 = 0;
/// Event id of the broadcast wake (shared constant with
/// `ulp_cluster::EVT_BROADCAST`).
pub const EVT_BROADCAST: u8 = 33;

/// Wraps `body` in the SPMD fork/join harness appropriate for the target.
///
/// `body` receives the assembler and must leave the core-id register
/// ([`CORE_ID_REG`]) intact; it runs on every core. Phase changes inside
/// the body synchronize with [`Asm::barrier`] directly.
///
/// For `num_cores == 1` no harness is emitted: the body runs serially and
/// the end-of-computation event is still raised (host offload needs it).
pub fn spmd_kernel(a: &mut Asm, env: &TargetEnv, body: impl FnOnce(&mut Asm, &TargetEnv)) {
    if env.is_parallel() {
        let worker = a.new_label();
        let begin = a.new_label();
        a.insn(Insn::Csrr(CORE_ID_REG, Csr::CoreId));
        a.bne(CORE_ID_REG, R0, worker);
        // Master: release the sleeping team (fork).
        a.sev(EVT_BROADCAST);
        a.jmp(begin);
        // Workers: sleep in the pool until the master forks.
        a.bind(worker);
        a.wfe();
        a.bind(begin);
        body(a, env);
        // Join barrier, then the master signals the host.
        a.barrier();
        let not_master = a.new_label();
        a.bne(CORE_ID_REG, R0, not_master);
        a.sev(EVT_EOC);
        a.bind(not_master);
        a.halt();
    } else {
        // Serial code: core id is constant zero.
        a.insn(Insn::Csrr(CORE_ID_REG, Csr::CoreId));
        body(a, env);
        a.sev(EVT_EOC);
        a.halt();
    }
}

/// Computes this core's `[start, end)` slice of `0..n` into
/// `start_reg`/`end_reg` using a static (compile-time chunk size) schedule,
/// the OpenMP `schedule(static)` of the runtime.
///
/// Uses `tmp` as scratch. With one core it degenerates to `0..n`.
pub fn static_chunk(a: &mut Asm, env: &TargetEnv, n: u32, start_reg: Reg, end_reg: Reg, tmp: Reg) {
    if env.num_cores <= 1 {
        a.li(start_reg, 0);
        a.li(end_reg, n as i32);
        return;
    }
    let chunk = n.div_ceil(env.num_cores as u32);
    a.li(tmp, chunk as i32);
    a.mul(start_reg, CORE_ID_REG, tmp);
    a.add(end_reg, start_reg, tmp);
    a.li(tmp, n as i32);
    a.insn(Insn::Min(end_reg, end_reg, tmp));
    // start may exceed n when n < cores·chunk; clamp.
    a.insn(Insn::Min(start_reg, start_reg, tmp));
}

/// Emits a loop executing `body` the number of times held in `count`
/// (runtime value, may be zero). Uses a zero-overhead hardware loop when
/// the target has one (`hw_idx` selects the loop unit, 0 = innermost),
/// otherwise a decrement-and-branch software loop on `scratch`.
///
/// The body must not clobber `scratch` (software-loop case) and must emit
/// at least two instructions when hardware loops are in use.
pub fn counted_loop(
    a: &mut Asm,
    env: &TargetEnv,
    hw_idx: u8,
    count: Reg,
    scratch: Reg,
    body: impl FnOnce(&mut Asm),
) {
    if env.features().hw_loops {
        a.hw_loop(hw_idx, count, body);
    } else {
        let end = a.new_label();
        let top = a.new_label();
        a.beq(count, R0, end);
        a.mv(scratch, count);
        a.bind(top);
        body(a);
        a.addi(scratch, scratch, -1);
        a.bne(scratch, R0, top);
        a.bind(end);
    }
}

/// Emits a loop over `start..end` register range: `idx` runs from `start`
/// (inclusive) to `end` (exclusive). Software loop only (range loops drive
/// outer dimensions where the HW loop's fixed count does not fit).
///
/// The body must preserve `idx` and `end`.
pub fn range_loop(a: &mut Asm, idx: Reg, start: Reg, end: Reg, body: impl FnOnce(&mut Asm)) {
    let done = a.new_label();
    let top = a.new_label();
    a.mv(idx, start);
    a.bge(idx, end, done);
    a.bind(top);
    body(a);
    a.addi(idx, idx, 1);
    a.blt(idx, end, top);
    a.bind(done);
}

/// Emits an OpenMP `schedule(dynamic, 1)` work-shared loop: every core
/// repeatedly claims the next undone item of `0..n` from a shared counter
/// in TCDM and runs `body` with the item index in `idx`.
///
/// The counter lives at `queue_addr` (8 bytes: a test-and-set lock word
/// followed by the next-item counter, both zero-initialised). Claiming an
/// item costs a lock/fetch/increment/unlock sequence (~10 cycles plus
/// contention) — the classic dynamic-scheduling overhead that static
/// chunking avoids, now measurable in simulation.
///
/// Register contract: `idx` receives the item; `t0`, `t1` are clobbered
/// (`t1` holds the lock address across the body, so the body must
/// preserve it). The body must preserve `idx` only until it finishes
/// using it.
#[allow(clippy::too_many_arguments)]
pub fn dynamic_loop(
    a: &mut Asm,
    _env: &TargetEnv,
    queue_addr: u32,
    n: u32,
    idx: Reg,
    t0: Reg,
    t1: Reg,
    body: impl FnOnce(&mut Asm),
) {
    let claim = a.new_label();
    let retry = a.new_label();
    let done = a.new_label();
    a.la(t1, queue_addr);
    a.bind(claim);
    // Acquire the queue lock.
    a.bind(retry);
    a.insn(Insn::Tas(t0, t1));
    a.bne(t0, R0, retry);
    // idx = counter++ under the lock.
    a.lw(idx, t1, 4);
    a.addi(t0, idx, 1);
    a.sw(t0, t1, 4);
    a.sw(R0, t1, 0); // release
                     // Past the end? Then this core is done.
    a.li(t0, n as i32);
    a.bge(idx, t0, done);
    body(a);
    a.jmp(claim);
    a.bind(done);
}

/// Emits a loop with a live index register: `idx` counts `0..n`
/// (compile-time bound). `tmp` holds the bound for the comparison; the
/// body must preserve both. Software loop on every target (the index is
/// needed as a value, which the HW-loop counter does not expose).
pub fn index_loop(a: &mut Asm, idx: Reg, tmp: Reg, n: u32, body: impl FnOnce(&mut Asm)) {
    if n == 0 {
        return;
    }
    a.li(idx, 0);
    a.li(tmp, n as i32);
    let top = a.new_label();
    a.bind(top);
    body(a);
    a.addi(idx, idx, 1);
    a.blt(idx, tmp, top);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_isa::prelude::*;
    use ulp_isa::CoreState;

    fn run_serial(env: &TargetEnv, build: impl FnOnce(&mut Asm)) -> (Core, FlatMemory) {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let prog = a.finish().expect("assembles");
        let mut mem = FlatMemory::new(0x2000_0000, 256 * 1024);
        mem.load_program(&prog, 0x2000_0000).unwrap();
        let mut core = Core::new(0, env.model);
        core.reset(0x2000_0000);
        core.run(&mut mem, 100_000_000).unwrap();
        assert_eq!(core.state(), CoreState::Halted);
        (core, mem)
    }

    #[test]
    fn counted_loop_sw_and_hw_agree() {
        for env in [TargetEnv::baseline(), TargetEnv::pulp_single()] {
            let (core, _) = run_serial(&env, |a| {
                a.li(R10, 0);
                a.li(R1, 17);
                counted_loop(a, &env, 0, R1, R2, |a| {
                    a.addi(R10, R10, 3);
                    a.nop();
                });
            });
            assert_eq!(core.reg(R10), 51, "on {}", env.model.name);
        }
    }

    #[test]
    fn counted_loop_zero_trip() {
        for env in [TargetEnv::baseline(), TargetEnv::pulp_single()] {
            let (core, _) = run_serial(&env, |a| {
                a.li(R10, 7);
                a.li(R1, 0);
                counted_loop(a, &env, 0, R1, R2, |a| {
                    a.li(R10, 999);
                    a.nop();
                });
            });
            assert_eq!(
                core.reg(R10),
                7,
                "zero-trip body must not run on {}",
                env.model.name
            );
        }
    }

    #[test]
    fn nested_counted_loops() {
        for env in [TargetEnv::baseline(), TargetEnv::pulp_single()] {
            let (core, _) = run_serial(&env, |a| {
                a.li(R10, 0);
                a.li(R1, 5);
                counted_loop(a, &env, 1, R1, R2, |a| {
                    a.nop();
                    a.li(R3, 3);
                    counted_loop(a, &env, 0, R3, R4, |a| {
                        a.addi(R10, R10, 1);
                        a.nop();
                    });
                });
            });
            assert_eq!(core.reg(R10), 15, "on {}", env.model.name);
        }
    }

    #[test]
    fn range_loop_sums_indices() {
        let env = TargetEnv::baseline();
        let (core, _) = run_serial(&env, |a| {
            a.li(R11, 2);
            a.li(R12, 7);
            a.li(R10, 0);
            range_loop(a, R13, R11, R12, |a| {
                a.add(R10, R10, R13);
            });
        });
        assert_eq!(core.reg(R10), 2 + 3 + 4 + 5 + 6);
    }

    #[test]
    fn range_loop_empty_when_start_ge_end() {
        let env = TargetEnv::baseline();
        let (core, _) = run_serial(&env, |a| {
            a.li(R11, 7);
            a.li(R12, 7);
            a.li(R10, 42);
            range_loop(a, R13, R11, R12, |a| {
                a.li(R10, 0);
            });
        });
        assert_eq!(core.reg(R10), 42);
    }

    #[test]
    fn static_chunk_serial_covers_all() {
        let env = TargetEnv::pulp_single();
        let (core, _) = run_serial(&env, |a| {
            a.insn(Insn::Csrr(CORE_ID_REG, Csr::CoreId));
            static_chunk(a, &env, 64, R10, R11, R12);
        });
        assert_eq!(core.reg(R10), 0);
        assert_eq!(core.reg(R11), 64);
    }

    #[test]
    fn static_chunk_partitions_exactly() {
        // Simulate the chunk computation on 4 cores for n = 64 and an
        // uneven n = 10.
        for (n, cores) in [(64u32, 4usize), (10, 4), (3, 4), (1, 4)] {
            let env = TargetEnv::pulp_with_cores(cores);
            let chunk = n.div_ceil(cores as u32);
            let mut covered = vec![false; n as usize];
            for id in 0..cores as u32 {
                let start = (id * chunk).min(n);
                let end = (start + chunk).min(n);
                for i in start..end {
                    assert!(!covered[i as usize], "overlap at {i} (n={n})");
                    covered[i as usize] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "gap for n={n} cores={cores}");
            let _ = env;
        }
    }

    /// Builds a deliberately imbalanced workload: item `i` performs `i·8`
    /// additions into `out[i]`. Compares `schedule(static)` against
    /// `schedule(dynamic)`.
    fn imbalanced_build(
        env: &TargetEnv,
        dynamic: bool,
        n: u32,
        per_item: u32,
    ) -> crate::KernelBuild {
        use crate::codegen::DataLayout;
        let mut l = DataLayout::new(env, 64 * 1024);
        let queue = l.scratch("queue", 8);
        let out = l.output("out", n as usize * 4);
        let buffers = l.finish();
        let expect: Vec<u8> = (0..n)
            .flat_map(|i| (3 * i * per_item).to_le_bytes())
            .collect();

        let mut a = Asm::new();
        spmd_kernel(&mut a, env, |a, env| {
            let body = |a: &mut Asm| {
                // acc(R15) = 3 · idx · per_item via a unit-work loop.
                a.li(R15, 0);
                a.li(R16, per_item as i32);
                a.mul(R16, R12, R16);
                let top = a.new_label();
                let skip = a.new_label();
                a.beq(R16, R0, skip);
                a.bind(top);
                a.addi(R15, R15, 3);
                a.addi(R16, R16, -1);
                a.bne(R16, R0, top);
                a.bind(skip);
                a.slli(R17, R12, 2);
                a.add(R17, R17, R3); // R3 = out
                a.sw(R15, R17, 0);
            };
            if dynamic {
                dynamic_loop(a, env, queue, n, R12, R13, R14, body);
            } else {
                static_chunk(a, env, n, R10, R11, R13);
                range_loop(a, R12, R10, R11, body);
            }
        });
        crate::KernelBuild {
            name: format!("imbalanced/{}", if dynamic { "dynamic" } else { "static" }),
            program: a.finish().unwrap(),
            args: vec![(R3, out)],
            buffers,
            expected: vec![(1, expect)],
        }
    }

    #[test]
    fn dynamic_schedule_balances_triangular_work() {
        let env = TargetEnv::pulp_parallel();
        let stat = crate::runner::run(&imbalanced_build(&env, false, 32, 64), &env).unwrap();
        let dyn_ = crate::runner::run(&imbalanced_build(&env, true, 32, 64), &env).unwrap();
        // Static chunking hands the heavy tail (items 24..32) to one core;
        // the dynamic queue balances it.
        assert!(
            (dyn_.cycles as f64) < stat.cycles as f64 * 0.75,
            "dynamic {} should clearly beat static {} on triangular work",
            dyn_.cycles,
            stat.cycles
        );
    }

    #[test]
    fn static_schedule_wins_on_uniform_tiny_items() {
        // With uniform unit-work items, the dynamic queue's lock traffic
        // is pure overhead.
        let env = TargetEnv::pulp_parallel();
        let mk = |dynamic: bool| {
            use crate::codegen::DataLayout;
            let mut l = DataLayout::new(&env, 64 * 1024);
            let queue = l.scratch("queue", 8);
            let out = l.output("out", 64 * 4);
            let buffers = l.finish();
            let expect: Vec<u8> = (0..64u32).flat_map(|i| (i * 2).to_le_bytes()).collect();
            let mut a = Asm::new();
            spmd_kernel(&mut a, &env, |a, env| {
                let body = |a: &mut Asm| {
                    a.slli(R17, R12, 1);
                    a.slli(R16, R12, 2);
                    a.add(R16, R16, R3);
                    a.sw(R17, R16, 0);
                };
                if dynamic {
                    dynamic_loop(a, env, queue, 64, R12, R13, R14, body);
                } else {
                    static_chunk(a, env, 64, R10, R11, R13);
                    range_loop(a, R12, R10, R11, body);
                }
            });
            crate::KernelBuild {
                name: "uniform".into(),
                program: a.finish().unwrap(),
                args: vec![(R3, out)],
                buffers,
                expected: vec![(1, expect)],
            }
        };
        let stat = crate::runner::run(&mk(false), &env).unwrap();
        let dyn_ = crate::runner::run(&mk(true), &env).unwrap();
        assert!(
            stat.cycles < dyn_.cycles,
            "static {} must beat dynamic {} on uniform tiny items",
            stat.cycles,
            dyn_.cycles
        );
    }

    #[test]
    fn dynamic_schedule_correct_on_single_core() {
        let env = TargetEnv::pulp_single();
        crate::runner::run(&imbalanced_build(&env, true, 16, 8), &env).unwrap();
    }
}
