//! Seeded randomized tests of the cluster memory system, always on in the
//! default `cargo test`: the timed, banked TCDM must be functionally
//! identical to a plain byte array under arbitrary access interleavings,
//! arbitration must respect its serialization invariants, the I$ must stay
//! within its penalty bounds, and whole-cluster runs must be deterministic.
//!
//! Inputs come from the in-tree `ulp-rng` stream — no shrinking, but
//! reproducible from the fixed seeds with no registry access.

use ulp_cluster::{Cluster, ClusterConfig, ICache, Tcdm, L2_BASE, TCDM_BASE};
use ulp_isa::prelude::*;
use ulp_isa::MemSize;
use ulp_rng::XorShiftRng;

const SIZE: usize = 4096;

#[derive(Clone, Copy, Debug)]
enum Op {
    Load {
        addr: u32,
        size: MemSize,
    },
    Store {
        addr: u32,
        size: MemSize,
        value: u32,
    },
    Tas {
        addr: u32,
    },
}

fn any_size(rng: &mut XorShiftRng) -> MemSize {
    *ulp_rng::gen::choose(rng, &[MemSize::Byte, MemSize::Half, MemSize::Word])
}

fn any_op(rng: &mut XorShiftRng) -> Op {
    match rng.gen_range(0u32..3) {
        0 => Op::Load {
            addr: TCDM_BASE + rng.gen_range(0u32..(SIZE as u32 - 4)),
            size: any_size(rng),
        },
        1 => Op::Store {
            addr: TCDM_BASE + rng.gen_range(0u32..(SIZE as u32 - 4)),
            size: any_size(rng),
            value: rng.gen(),
        },
        _ => Op::Tas {
            addr: TCDM_BASE + rng.gen_range(0u32..(SIZE as u32 / 4 - 1)) * 4,
        },
    }
}

/// Reference model: plain byte array with the same semantics.
struct Model(Vec<u8>);

impl Model {
    fn load(&self, addr: u32, size: MemSize) -> u32 {
        let off = (addr - TCDM_BASE) as usize;
        let mut v = 0u32;
        for i in (0..size.bytes() as usize).rev() {
            v = (v << 8) | u32::from(self.0[off + i]);
        }
        v
    }
    fn store(&mut self, addr: u32, size: MemSize, value: u32) {
        let off = (addr - TCDM_BASE) as usize;
        for i in 0..size.bytes() as usize {
            self.0[off + i] = (value >> (8 * i)) as u8;
        }
    }
}

/// Functional equivalence of the banked TCDM with a flat byte array under
/// arbitrary interleavings of loads, stores and test-and-sets.
#[test]
fn tcdm_matches_flat_model() {
    let mut rng = XorShiftRng::seed_from_u64(0x7CD1);
    for _ in 0..200 {
        let mut tcdm = Tcdm::new(TCDM_BASE, SIZE, 8);
        let mut model = Model(vec![0; SIZE]);
        let n_ops = rng.gen_range(1usize..200);
        for t in 0..n_ops {
            match any_op(&mut rng) {
                Op::Load { addr, size } => {
                    let (got, ready) = tcdm.load(t as u64, addr, size).unwrap();
                    assert_eq!(got, model.load(addr, size), "load {addr:#x} {size:?}");
                    assert!(ready > t as u64, "loads take at least a cycle");
                }
                Op::Store { addr, size, value } => {
                    tcdm.store(t as u64, addr, size, value).unwrap();
                    model.store(addr, size, value);
                }
                Op::Tas { addr } => {
                    let (old, _) = tcdm.tas(t as u64, addr).unwrap();
                    assert_eq!(old, model.load(addr, MemSize::Word), "tas {addr:#x}");
                    model.store(addr, MemSize::Word, 1);
                }
            }
        }
    }
}

/// Bank timing: a burst of same-cycle accesses to one bank serializes
/// (k-th access ready at now + k + 1), while a unit-stride burst over
/// distinct banks all completes in one cycle.
#[test]
fn tcdm_arbitration_invariants() {
    let mut rng = XorShiftRng::seed_from_u64(0x7CD2);
    for _ in 0..200 {
        let n = rng.gen_range(1usize..8);
        let base_word = rng.gen_range(0u32..64);
        let mut same = Tcdm::new(TCDM_BASE, SIZE, 8);
        let addr = TCDM_BASE + base_word * 32; // bank is (word % 8): stride 32B = same bank
        for k in 0..n {
            let (_, ready) = same.load(100, addr, MemSize::Word).unwrap();
            assert_eq!(ready, 100 + k as u64 + 1);
        }
        let mut spread = Tcdm::new(TCDM_BASE, SIZE, 8);
        for k in 0..n {
            let a = TCDM_BASE + base_word * 4 + (k as u32) * 4;
            let (_, ready) = spread.load(100, a, MemSize::Word).unwrap();
            assert_eq!(ready, 101, "distinct banks must not serialize");
        }
    }
}

/// The instruction cache never charges more than the miss penalty and is
/// deterministic for a repeated trace.
#[test]
fn icache_penalty_bounds() {
    let mut rng = XorShiftRng::seed_from_u64(0x7CD3);
    for _ in 0..200 {
        let n_pcs = rng.gen_range(1usize..200);
        let pcs: Vec<u32> = (0..n_pcs).map(|_| rng.gen_range(0u32..4096)).collect();
        let mut c1 = ICache::new(1024, 16, 10);
        let mut c2 = ICache::new(1024, 16, 10);
        for pc in &pcs {
            let pc = pc & !3;
            let a = c1.access(pc);
            let b = c2.access(pc);
            assert!(a == 0 || a == 10);
            assert_eq!(a, b, "identical traces must behave identically");
        }
        assert_eq!(c1.hits() + c1.misses(), pcs.len() as u64);
    }
}

/// Cluster determinism: the same program produces the same cycle count and
/// results when re-run after reloading, and the sums match a host-side
/// reference computation.
#[test]
fn cluster_runs_are_deterministic() {
    let mut rng = XorShiftRng::seed_from_u64(0x7CD4);
    for _ in 0..10 {
        let n = rng.gen_range(4usize..32);
        let values: Vec<i32> = (0..n).map(|_| rng.gen()).collect();

        let mut a = Asm::new();
        // Each core sums a strided slice of the array into TCDM.
        a.insn(Insn::Csrr(R20, Csr::CoreId));
        a.la(R1, TCDM_BASE + 0x100);
        a.slli(R2, R20, 2);
        a.add(R1, R1, R2); // &data[core]
        a.li(R3, 0);
        a.li(R4, (values.len() / 4) as i32);
        let top = a.new_label();
        let done = a.new_label();
        a.beq(R4, R0, done);
        a.bind(top);
        a.lw(R5, R1, 0);
        a.add(R3, R3, R5);
        a.addi(R1, R1, 16);
        a.addi(R4, R4, -1);
        a.bne(R4, R0, top);
        a.bind(done);
        a.la(R6, TCDM_BASE);
        a.slli(R2, R20, 2);
        a.add(R6, R6, R2);
        a.sw(R3, R6, 0);
        a.halt();
        let prog = a.finish().unwrap();

        let run = || {
            let mut cl = Cluster::new(ClusterConfig::default());
            cl.load_binary(&prog, L2_BASE).unwrap();
            for (i, v) in values.iter().enumerate() {
                cl.write_tcdm(TCDM_BASE + 0x100 + 4 * i as u32, &v.to_le_bytes())
                    .unwrap();
            }
            cl.start(L2_BASE, &[], 0);
            let res = cl.run_until_halt(10_000_000).unwrap();
            let sums: Vec<u32> = (0..4)
                .map(|c| cl.read_tcdm_u32(TCDM_BASE + 4 * c).unwrap())
                .collect();
            (res.cycles, sums)
        };
        let (c1, s1) = run();
        let (c2, s2) = run();
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);

        // And the sums match the reference.
        for core in 0..4usize {
            let expect: i32 = values[core..]
                .iter()
                .step_by(4)
                .take(values.len() / 4)
                .fold(0i32, |acc, v| acc.wrapping_add(*v));
            assert_eq!(s1[core] as i32, expect, "core {core}");
        }
    }
}
