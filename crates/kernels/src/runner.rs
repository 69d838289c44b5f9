//! Kernel execution harness: runs a [`KernelBuild`] on a host core (flat
//! memory) or on the PULP cluster, and verifies outputs against the golden
//! reference.

use std::error::Error;
use std::fmt;

use ulp_cluster::{Cluster, ClusterActivity, ClusterConfig, ClusterError, Engine, L2_BASE};
use ulp_isa::{Core, CoreModel, CoreState, ExecError, FlatMemory};

use crate::codegen::{BufferInit, KernelBuild, TargetEnv};

/// Error raised while running a kernel build.
#[derive(Debug)]
pub enum RunError {
    /// Host-core fault.
    Exec(ExecError),
    /// Cluster fault.
    Cluster(ClusterError),
    /// Memory image problem (program or buffer did not fit).
    Bus(ulp_isa::BusError),
    /// The program did not halt within the cycle budget.
    Timeout,
    /// Simulated outputs disagree with the golden reference.
    OutputMismatch(Vec<String>),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Exec(e) => write!(f, "kernel faulted: {e}"),
            RunError::Cluster(e) => write!(f, "cluster run failed: {e}"),
            RunError::Bus(e) => write!(f, "image load failed: {e}"),
            RunError::Timeout => f.write_str("kernel did not halt within the cycle budget"),
            RunError::OutputMismatch(m) => {
                write!(f, "outputs differ from the reference: {}", m.join("; "))
            }
        }
    }
}

impl Error for RunError {}

impl From<ExecError> for RunError {
    fn from(e: ExecError) -> Self {
        RunError::Exec(e)
    }
}
impl From<ClusterError> for RunError {
    fn from(e: ClusterError) -> Self {
        RunError::Cluster(e)
    }
}
impl From<ulp_isa::BusError> for RunError {
    fn from(e: ulp_isa::BusError) -> Self {
        RunError::Bus(e)
    }
}

/// Measured result of a kernel run.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Cycles from start to the end-of-computation event (cluster runs) or
    /// to halt (host runs).
    pub cycles: u64,
    /// Total instructions retired across cores.
    pub retired: u64,
    /// Cluster activity (cluster runs only) for the power model.
    pub activity: Option<ClusterActivity>,
}

/// Default cycle budget for kernel runs.
pub const MAX_KERNEL_CYCLES: u64 = 4_000_000_000;

/// Runs a host/baseline build on a single core over flat memory and
/// verifies its outputs. [`Engine::Reference`] steps the classic decode
/// loop, [`Engine::Epoch`] replays micro-op blocks (bit-identical).
///
/// # Errors
///
/// Returns [`RunError`] on faults, timeout, or output mismatch.
pub fn run_on_flat(
    build: &KernelBuild,
    model: CoreModel,
    engine: Engine,
) -> Result<KernelRun, RunError> {
    const CODE_BASE: u32 = 0x2000_0000;
    let mut mem = FlatMemory::new(CODE_BASE, 512 * 1024);
    mem.load_program(&build.program, CODE_BASE)?;
    for buf in &build.buffers {
        match &buf.init {
            BufferInit::Data(d) => mem.write_bytes(buf.addr, d)?,
            BufferInit::Zero => mem.write_bytes(buf.addr, &vec![0u8; buf.len])?,
        }
    }
    let mut core = Core::new(0, model);
    core.set_microop(engine == Engine::Epoch);
    core.reset(CODE_BASE);
    for &(r, v) in &build.args {
        core.set_reg(r, v);
    }
    let summary = core.run(&mut mem, MAX_KERNEL_CYCLES)?;
    if summary.state != CoreState::Halted {
        return Err(RunError::Timeout);
    }
    let mismatches = verify(build, |addr, len| {
        mem.read_bytes(addr, len).map(<[u8]>::to_vec)
    });
    if !mismatches.is_empty() {
        return Err(RunError::OutputMismatch(mismatches));
    }
    Ok(KernelRun {
        cycles: summary.cycles,
        retired: summary.retired,
        activity: None,
    })
}

/// Runs a PULP build on a cluster configured for the build's core count
/// and verifies its outputs. Returns the run measurements.
///
/// # Errors
///
/// Returns [`RunError`] on faults, deadlock, timeout, or output mismatch.
pub fn run_on_cluster(
    build: &KernelBuild,
    env: &TargetEnv,
    engine: Engine,
) -> Result<KernelRun, RunError> {
    let mut cluster = Cluster::new(ClusterConfig {
        num_cores: env.num_cores,
        engine,
        ..ClusterConfig::default()
    });
    run_on_existing_cluster(build, &mut cluster)
}

/// Like [`run_on_cluster`], reusing a caller-provided cluster (so harnesses
/// can customize the configuration or keep caches warm across iterations).
///
/// # Errors
///
/// Returns [`RunError`] on faults, deadlock, timeout, or output mismatch.
pub fn run_on_existing_cluster(
    build: &KernelBuild,
    cluster: &mut Cluster,
) -> Result<KernelRun, RunError> {
    cluster.load_binary(&build.program, L2_BASE)?;
    // Buffers may live in the TCDM or in L2 (streaming kernels stage
    // their inputs there); route by address.
    let in_l2 = |addr: u32| addr >= 0x1C00_0000;
    for buf in &build.buffers {
        let data_owned;
        let data: &[u8] = match &buf.init {
            BufferInit::Data(d) => d,
            BufferInit::Zero => {
                data_owned = vec![0u8; buf.len];
                &data_owned
            }
        };
        if in_l2(buf.addr) {
            cluster.write_l2(buf.addr, data)?;
        } else {
            cluster.write_tcdm(buf.addr, data)?;
        }
    }
    cluster.start(L2_BASE, &build.args, 0);
    let res = cluster.run_until_halt(MAX_KERNEL_CYCLES)?;
    let mismatches = verify(build, |addr, len| {
        if in_l2(addr) {
            cluster
                .read_l2(addr, len)
                .map_err(|_| ulp_isa::BusError::Unmapped { addr })
        } else {
            cluster
                .read_tcdm(addr, len)
                .map_err(|_| ulp_isa::BusError::Unmapped { addr })
        }
    });
    if !mismatches.is_empty() {
        return Err(RunError::OutputMismatch(mismatches));
    }
    Ok(KernelRun {
        cycles: res.eoc_at.unwrap_or(res.end_time),
        retired: res.activity.total_retired(),
        activity: Some(res.activity),
    })
}

/// Runs a build on whatever its environment implies (cluster for
/// accelerator builds, flat memory otherwise) under the default engine.
///
/// # Errors
///
/// Returns [`RunError`] on any failure (see [`run_on_flat`] /
/// [`run_on_cluster`]).
pub fn run(build: &KernelBuild, env: &TargetEnv) -> Result<KernelRun, RunError> {
    run_with_engine(build, env, Engine::default())
}

/// [`run`] under an explicit simulation engine. Every engine yields the
/// same [`KernelRun`]; only host time differs.
///
/// # Errors
///
/// Returns [`RunError`] on any failure (see [`run`]).
pub fn run_with_engine(
    build: &KernelBuild,
    env: &TargetEnv,
    engine: Engine,
) -> Result<KernelRun, RunError> {
    if env.data_base == 0x1000_0000 {
        run_on_cluster(build, env, engine)
    } else {
        run_on_flat(build, env.model, engine)
    }
}

fn verify<E>(build: &KernelBuild, read: impl Fn(u32, usize) -> Result<Vec<u8>, E>) -> Vec<String> {
    let mut mismatches = Vec::new();
    for (idx, expected) in &build.expected {
        let buf = &build.buffers[*idx];
        assert_eq!(
            expected.len(),
            buf.len,
            "golden output length for {}",
            buf.name
        );
        let Ok(actual) = read(buf.addr, buf.len) else {
            mismatches.push(format!("{}: unreadable", buf.name));
            continue;
        };
        if &actual != expected {
            let first = actual
                .iter()
                .zip(expected)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            mismatches.push(format!(
                "{}: first diff at byte {first} (got {:#04x}, want {:#04x})",
                buf.name, actual[first], expected[first]
            ));
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::emit::{spmd_kernel, static_chunk};
    use crate::codegen::{DataLayout, KernelBuild};
    use ulp_isa::prelude::*;

    /// Tiny vector-add kernel exercising the whole pipeline: layout,
    /// SPMD harness, chunking, loops, verification.
    fn vec_add_build(env: &TargetEnv, n: usize) -> KernelBuild {
        let xs: Vec<i32> = (0..n as i32).collect();
        let ys: Vec<i32> = (0..n as i32).map(|v| v * 10).collect();
        let expect: Vec<u8> = xs
            .iter()
            .zip(&ys)
            .flat_map(|(x, y)| (x + y).to_le_bytes())
            .collect();

        let mut l = DataLayout::new(env, 64 * 1024);
        let xa = l.input("x", xs.iter().flat_map(|v| v.to_le_bytes()).collect());
        let ya = l.input("y", ys.iter().flat_map(|v| v.to_le_bytes()).collect());
        let oa = l.output("out", n * 4);
        let buffers = l.finish();

        let mut a = Asm::new();
        spmd_kernel(&mut a, env, |a, env| {
            // r3 = x, r4 = y, r5 = out (args); slice rows over cores.
            static_chunk(a, env, n as u32, R10, R11, R12);
            // ptrs = base + start*4
            a.slli(R12, R10, 2);
            a.add(R13, R3, R12);
            a.add(R14, R4, R12);
            a.add(R15, R5, R12);
            a.sub(R16, R11, R10); // trip count
            crate::codegen::emit::counted_loop(a, env, 0, R16, R2, |a| {
                a.lw(R17, R13, 0);
                a.lw(R18, R14, 0);
                a.add(R17, R17, R18);
                a.sw(R17, R15, 0);
                a.addi(R13, R13, 4);
                a.addi(R14, R14, 4);
                a.addi(R15, R15, 4);
            });
        });
        let program = a.finish().unwrap();
        KernelBuild {
            name: format!("vec_add/{}", env.model.name),
            program,
            args: vec![(R3, xa), (R4, ya), (R5, oa)],
            buffers,
            expected: vec![(2, expect)],
        }
    }

    #[test]
    fn vec_add_on_every_target() {
        for env in [
            TargetEnv::baseline(),
            TargetEnv::host_m3(),
            TargetEnv::host_m4(),
            TargetEnv::pulp_single(),
            TargetEnv::pulp_parallel(),
        ] {
            let build = vec_add_build(&env, 64);
            let run = run(&build, &env).unwrap_or_else(|e| {
                panic!(
                    "vec_add failed on {} ({} cores): {e}",
                    env.model.name, env.num_cores
                )
            });
            assert!(run.cycles > 0);
        }
    }

    #[test]
    fn parallel_run_is_faster_than_single() {
        let n = 512;
        let single = run(
            &vec_add_build(&TargetEnv::pulp_single(), n),
            &TargetEnv::pulp_single(),
        )
        .unwrap();
        let quad = run(
            &vec_add_build(&TargetEnv::pulp_parallel(), n),
            &TargetEnv::pulp_parallel(),
        )
        .unwrap();
        let speedup = single.cycles as f64 / quad.cycles as f64;
        assert!(
            speedup > 2.0 && speedup <= 4.0,
            "vec_add 4-core speedup {speedup:.2} outside (2, 4]"
        );
    }

    #[test]
    fn cluster_activity_collected() {
        let env = TargetEnv::pulp_parallel();
        let run = run_on_cluster(&vec_add_build(&env, 128), &env, Engine::default()).unwrap();
        let act = run.activity.unwrap();
        assert_eq!(act.core_active_cycles.len(), 4);
        assert!(act.total_retired() > 0);
        assert!(act.barriers >= 1);
    }

    #[test]
    fn output_mismatch_detected() {
        let env = TargetEnv::baseline();
        let mut build = vec_add_build(&env, 8);
        // Corrupt the golden output.
        build.expected[0].1[0] ^= 0xFF;
        match run(&build, &env) {
            Err(RunError::OutputMismatch(m)) => assert!(m[0].contains("out")),
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn baseline_retires_more_than_or10n() {
        // The whole point of the RISC-ops methodology: the featureless
        // baseline retires at least as many instructions.
        let n = 256;
        let base = run(
            &vec_add_build(&TargetEnv::baseline(), n),
            &TargetEnv::baseline(),
        )
        .unwrap();
        let or10n = run(
            &vec_add_build(&TargetEnv::pulp_single(), n),
            &TargetEnv::pulp_single(),
        )
        .unwrap();
        assert!(base.retired >= or10n.retired);
        assert!(
            base.cycles > or10n.cycles,
            "hw loops + post-increment must win cycles"
        );
    }
}
