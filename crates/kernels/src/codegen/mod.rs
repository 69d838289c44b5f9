//! Kernel code generation: targets, data layout, and build products.
//!
//! Each benchmark ships a *code generator* that lowers the kernel to UIR
//! for a concrete [`TargetEnv`] — the role the OR10N LLVM and ARM GCC
//! toolchains play in the paper. The generator consults the target's
//! feature set exactly as a compiler consults `-m` flags: it emits
//! `sdot.v4` inner loops on OR10N, `smlal` accumulation on Cortex-M4,
//! plain RISC sequences on the baseline, hardware or software loops, and
//! post-increment or explicit pointer bumps.
//!
//! # Register conventions
//!
//! | register | use |
//! |---|---|
//! | `r1`, `r2` | software-loop counters, rtlib scratch |
//! | `r3`–`r9`  | kernel arguments (buffer addresses, parameters) |
//! | `r10`–`r27`| kernel temporaries |
//! | `r28`      | core id (set by the SPMD harness) |
//! | `r29`      | harness scratch |
//! | `r31`      | link register for rtlib calls |

pub mod emit;
pub mod rtlib;

use ulp_isa::{CoreModel, Features, Program, Reg};

/// Conventional register holding the core id inside kernels.
pub const CORE_ID_REG: Reg = Reg::new(28);

/// A compilation target: microarchitecture + memory layout + parallelism.
#[derive(Clone, Copy, Debug)]
pub struct TargetEnv {
    /// Core microarchitecture the code must run on.
    pub model: CoreModel,
    /// Number of cores the kernel is parallelized over (1 = serial code,
    /// no fork/join harness).
    pub num_cores: usize,
    /// Base address where kernel data buffers are laid out (TCDM base on
    /// the accelerator, SRAM data base on the host).
    pub data_base: u32,
}

impl TargetEnv {
    /// The quad-core PULP cluster (parallel OpenMP-style code).
    #[must_use]
    pub fn pulp_parallel() -> Self {
        TargetEnv {
            model: CoreModel::or10n(),
            num_cores: 4,
            data_base: ulp_cluster_tcdm_base(),
        }
    }

    /// A single OR10N core (the paper's Fig. 4-left configuration).
    #[must_use]
    pub fn pulp_single() -> Self {
        TargetEnv {
            model: CoreModel::or10n(),
            num_cores: 1,
            data_base: ulp_cluster_tcdm_base(),
        }
    }

    /// A PULP cluster with an arbitrary core count (scaling studies).
    #[must_use]
    pub fn pulp_with_cores(num_cores: usize) -> Self {
        TargetEnv {
            model: CoreModel::or10n(),
            num_cores,
            data_base: ulp_cluster_tcdm_base(),
        }
    }

    /// Host Cortex-M4.
    #[must_use]
    pub fn host_m4() -> Self {
        TargetEnv {
            model: CoreModel::cortex_m4(),
            num_cores: 1,
            data_base: host_data_base(),
        }
    }

    /// Host Cortex-M3 (the paper's "M4 flags deactivated" estimate).
    #[must_use]
    pub fn host_m3() -> Self {
        TargetEnv {
            model: CoreModel::cortex_m3(),
            num_cores: 1,
            data_base: host_data_base(),
        }
    }

    /// The RISC-ops reference core (paper footnote 1).
    #[must_use]
    pub fn baseline() -> Self {
        TargetEnv {
            model: CoreModel::risc_baseline(),
            num_cores: 1,
            data_base: host_data_base(),
        }
    }

    /// The target's ISA feature set.
    #[must_use]
    pub fn features(&self) -> &Features {
        &self.model.features
    }

    /// Whether the SPMD fork/join harness is required.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.num_cores > 1
    }
}

// Address constants duplicated from ulp-cluster / ulp-mcu to keep this
// crate's dependency surface minimal; asserted equal in integration tests.
fn ulp_cluster_tcdm_base() -> u32 {
    0x1000_0000
}
fn host_data_base() -> u32 {
    0x2001_0000
}

/// How a buffer's contents come to exist.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BufferInit {
    /// Filled with concrete bytes before the run (inputs, constants).
    Data(Vec<u8>),
    /// Zero-initialized (outputs, scratch).
    Zero,
}

/// What a buffer means to the offload runtime (drives what is transferred
/// over the SPI link and when).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BufferRole {
    /// Fresh input data, transferred host → accelerator every iteration.
    Input,
    /// Constant data (weights, lookup tables): transferred once with the
    /// binary, counted in the offload binary size.
    Const,
    /// Results, transferred accelerator → host every iteration.
    Output,
    /// Accelerator-private scratch (never transferred).
    Scratch,
}

/// A named data region used by a kernel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Buffer {
    /// Name for diagnostics ("A", "weights", …).
    pub name: &'static str,
    /// Absolute address in the target's data region.
    pub addr: u32,
    /// Length in bytes.
    pub len: usize,
    /// Initial contents.
    pub init: BufferInit,
    /// Transfer semantics.
    pub role: BufferRole,
}

/// Sequential allocator for kernel buffers in the target data region.
#[derive(Clone, Debug)]
pub struct DataLayout {
    next: u32,
    limit: u32,
    buffers: Vec<Buffer>,
}

impl DataLayout {
    /// Starts laying out buffers at the target's data base. `capacity` is
    /// the size of the data region (TCDM size on the accelerator).
    #[must_use]
    pub fn new(env: &TargetEnv, capacity: usize) -> Self {
        DataLayout {
            next: env.data_base,
            limit: env.data_base + capacity as u32,
            buffers: vec![],
        }
    }

    fn alloc(&mut self, name: &'static str, len: usize, init: BufferInit, role: BufferRole) -> u32 {
        // Word-align every buffer (the SIMD loads require it).
        self.next = (self.next + 3) & !3;
        let addr = self.next;
        assert!(
            addr + len as u32 <= self.limit,
            "buffer {name} ({len} B) overflows the data region at {addr:#x} (limit {:#x})",
            self.limit
        );
        self.next += len as u32;
        self.buffers.push(Buffer {
            name,
            addr,
            len,
            init,
            role,
        });
        addr
    }

    /// Allocates an input buffer with concrete data.
    pub fn input(&mut self, name: &'static str, data: Vec<u8>) -> u32 {
        let len = data.len();
        self.alloc(name, len, BufferInit::Data(data), BufferRole::Input)
    }

    /// Allocates a constant buffer (weights, LUTs).
    pub fn constant(&mut self, name: &'static str, data: Vec<u8>) -> u32 {
        let len = data.len();
        self.alloc(name, len, BufferInit::Data(data), BufferRole::Const)
    }

    /// Allocates a zeroed output buffer.
    pub fn output(&mut self, name: &'static str, len: usize) -> u32 {
        self.alloc(name, len, BufferInit::Zero, BufferRole::Output)
    }

    /// Allocates accelerator-private scratch.
    pub fn scratch(&mut self, name: &'static str, len: usize) -> u32 {
        self.alloc(name, len, BufferInit::Zero, BufferRole::Scratch)
    }

    /// Finalizes the layout.
    #[must_use]
    pub fn finish(self) -> Vec<Buffer> {
        self.buffers
    }
}

/// A fully built kernel: program, data, and golden outputs.
#[derive(Clone, Debug)]
pub struct KernelBuild {
    /// Kernel name (Table I row).
    pub name: String,
    /// The generated UIR program.
    pub program: Program,
    /// Initial register arguments (buffer addresses, parameters).
    pub args: Vec<(Reg, u32)>,
    /// Data buffers (inputs with data, outputs zeroed).
    pub buffers: Vec<Buffer>,
    /// Expected output contents: `(buffer index, bytes)`, computed by the
    /// bit-exact reference implementation.
    pub expected: Vec<(usize, Vec<u8>)>,
}

impl KernelBuild {
    /// Total bytes of [`BufferRole::Input`] buffers (Table I "Input").
    #[must_use]
    pub fn input_bytes(&self) -> usize {
        self.role_bytes(BufferRole::Input)
    }

    /// Total bytes of [`BufferRole::Output`] buffers (Table I "Output").
    #[must_use]
    pub fn output_bytes(&self) -> usize {
        self.role_bytes(BufferRole::Output)
    }

    /// Total bytes of [`BufferRole::Const`] buffers.
    #[must_use]
    pub fn const_bytes(&self) -> usize {
        self.role_bytes(BufferRole::Const)
    }

    /// Offload binary size: text + rodata + constant data (weights and
    /// LUTs ship with the binary — Table I "Binary Size").
    #[must_use]
    pub fn offload_binary_bytes(&self) -> usize {
        self.program.binary_size() + self.const_bytes()
    }

    fn role_bytes(&self, role: BufferRole) -> usize {
        self.buffers
            .iter()
            .filter(|b| b.role == role)
            .map(|b| b.len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_presets() {
        assert_eq!(TargetEnv::pulp_parallel().num_cores, 4);
        assert!(TargetEnv::pulp_parallel().is_parallel());
        assert!(!TargetEnv::pulp_single().is_parallel());
        assert!(TargetEnv::host_m4().features().mul64);
        assert!(!TargetEnv::baseline().features().mac);
        assert_eq!(TargetEnv::pulp_single().data_base, 0x1000_0000);
        assert_eq!(TargetEnv::host_m4().data_base, 0x2001_0000);
    }

    #[test]
    fn layout_allocates_aligned_and_ordered() {
        let env = TargetEnv::pulp_single();
        let mut l = DataLayout::new(&env, 64 * 1024);
        let a = l.input("a", vec![1, 2, 3]); // 3 bytes, next aligns
        let b = l.output("b", 8);
        assert_eq!(a, 0x1000_0000);
        assert_eq!(b % 4, 0);
        assert!(b > a);
        let bufs = l.finish();
        assert_eq!(bufs.len(), 2);
        assert_eq!(bufs[0].role, BufferRole::Input);
        assert_eq!(bufs[1].role, BufferRole::Output);
    }

    #[test]
    #[should_panic(expected = "overflows the data region")]
    fn layout_overflow_panics() {
        let env = TargetEnv::pulp_single();
        let mut l = DataLayout::new(&env, 16);
        let _ = l.output("big", 64);
    }

    #[test]
    fn build_accounting() {
        let env = TargetEnv::pulp_single();
        let mut l = DataLayout::new(&env, 1024);
        let _ = l.input("in", vec![0; 100]);
        let _ = l.constant("lut", vec![0; 40]);
        let _ = l.output("out", 20);
        let _ = l.scratch("tmp", 16);
        let mut a = ulp_isa::Asm::new();
        a.halt();
        let build = KernelBuild {
            name: "t".into(),
            program: a.finish().unwrap(),
            args: vec![],
            buffers: l.finish(),
            expected: vec![],
        };
        assert_eq!(build.input_bytes(), 100);
        assert_eq!(build.const_bytes(), 40);
        assert_eq!(build.output_bytes(), 20);
        assert_eq!(build.offload_binary_bytes(), 4 + 40);
    }
}
