//! `#pragma omp target` regions and map clauses.
//!
//! OpenMP 4.0's `target` construct outlines a code block for the
//! accelerator; its `map` clauses declare which host data must be made
//! visible on the device and which results flow back (paper §III-A: "we
//! provide a distinction between program and data offloads and hide the
//! low-level details of the data exchange primitives behind higher level
//! abstractions"). A [`TargetRegion`] derives the clauses from the
//! kernel's buffer roles, so the offload runtime knows exactly what to
//! ship over the SPI link and when.

use std::fmt;

use ulp_kernels::{BufferRole, KernelBuild};

/// Transfer direction of a mapped buffer (OpenMP `map` modifier).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapDir {
    /// `map(to:…)` — host → device before every kernel execution.
    To,
    /// `map(from:…)` — device → host after every kernel execution.
    From,
    /// `map(to:…)` shipped **once** with the binary (constant weights,
    /// lookup tables).
    ToOnce,
    /// `map(alloc:…)` — device-only scratch, never transferred.
    Alloc,
}

impl fmt::Display for MapDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapDir::To => f.write_str("to"),
            MapDir::From => f.write_str("from"),
            MapDir::ToOnce => f.write_str("to(once)"),
            MapDir::Alloc => f.write_str("alloc"),
        }
    }
}

/// One mapped buffer of a target region.
#[derive(Clone, Debug)]
pub struct MapClause {
    /// Buffer name (diagnostics).
    pub name: &'static str,
    /// Index into the kernel's buffer list.
    pub buffer_index: usize,
    /// Device address.
    pub device_addr: u32,
    /// Length in bytes.
    pub len: usize,
    /// Transfer direction.
    pub dir: MapDir,
}

/// An offloadable region: kernel binary + map clauses.
///
/// # Example
///
/// ```
/// use ulp_offload::{MapDir, TargetRegion};
/// use ulp_kernels::{Benchmark, TargetEnv};
///
/// let build = Benchmark::MatMul.build(&TargetEnv::pulp_parallel());
/// let region = TargetRegion::from_kernel(&build);
/// let bytes = |dir| -> usize {
///     region.maps().iter().filter(|m| m.dir == dir).map(|m| m.len).sum()
/// };
/// assert_eq!(bytes(MapDir::To), 8 * 1024); // A and Bᵀ travel per run
/// assert_eq!(bytes(MapDir::From), 4 * 1024); // C comes back
/// ```
#[derive(Clone, Debug)]
pub struct TargetRegion {
    maps: Vec<MapClause>,
    binary_bytes: usize,
}

impl TargetRegion {
    /// Derives the region from a kernel build: `Input → to`,
    /// `Output → from`, `Const → to(once)`, `Scratch → alloc`.
    #[must_use]
    pub fn from_kernel(build: &KernelBuild) -> Self {
        let maps = build
            .buffers
            .iter()
            .enumerate()
            .map(|(i, b)| MapClause {
                name: b.name,
                buffer_index: i,
                device_addr: b.addr,
                len: b.len,
                dir: match b.role {
                    BufferRole::Input => MapDir::To,
                    BufferRole::Output => MapDir::From,
                    BufferRole::Const => MapDir::ToOnce,
                    BufferRole::Scratch => MapDir::Alloc,
                },
            })
            .collect();
        TargetRegion {
            maps,
            binary_bytes: build.program.binary_size(),
        }
    }

    /// All map clauses.
    #[must_use]
    pub fn maps(&self) -> &[MapClause] {
        &self.maps
    }

    /// Bytes of the one-time program offload: text + rodata + constant
    /// maps (the paper's Table I "Binary Size" is this quantity).
    #[must_use]
    pub fn offload_bytes(&self) -> usize {
        self.binary_bytes
            + self
                .maps
                .iter()
                .filter(|m| m.dir == MapDir::ToOnce)
                .map(|m| m.len)
                .sum::<usize>()
    }
}

impl fmt::Display for TargetRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#pragma omp target map(")?;
        for (i, m) in self.maps.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}[{}B]", m.dir, m.name, m.len)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_kernels::{Benchmark, TargetEnv};

    /// Bytes the region's `dir` clauses move on every kernel execution.
    fn bytes(region: &TargetRegion, dir: MapDir) -> usize {
        region
            .maps()
            .iter()
            .filter(|m| m.dir == dir)
            .map(|m| m.len)
            .sum()
    }

    #[test]
    fn clauses_follow_buffer_roles() {
        let build = Benchmark::SvmRbf.build(&TargetEnv::pulp_parallel());
        let region = TargetRegion::from_kernel(&build);
        let dir_of = |name: &str| region.maps().iter().find(|m| m.name == name).map(|m| m.dir);
        assert_eq!(dir_of("X"), Some(MapDir::To));
        assert_eq!(dir_of("out"), Some(MapDir::From));
        assert_eq!(dir_of("exp_lut"), Some(MapDir::ToOnce));
    }

    #[test]
    fn byte_accounting_matches_kernel() {
        let build = Benchmark::MatMul.build(&TargetEnv::pulp_parallel());
        let region = TargetRegion::from_kernel(&build);
        assert_eq!(bytes(&region, MapDir::To), build.input_bytes());
        assert_eq!(bytes(&region, MapDir::From), build.output_bytes());
        assert_eq!(region.offload_bytes(), build.offload_binary_bytes());
    }

    #[test]
    fn scratch_never_transfers() {
        let build = Benchmark::Hog.build(&TargetEnv::pulp_parallel());
        let region = TargetRegion::from_kernel(&build);
        let hist = region.maps().iter().find(|m| m.name == "hist").unwrap();
        assert_eq!(hist.dir, MapDir::Alloc);
        // hist is large; make sure it is not part of any transfer figure.
        assert!(
            bytes(&region, MapDir::To) + bytes(&region, MapDir::From)
                < build.buffers.iter().map(|b| b.len).sum()
        );
    }

    #[test]
    fn display_is_pragma_like() {
        let build = Benchmark::MatMul.build(&TargetEnv::pulp_parallel());
        let region = TargetRegion::from_kernel(&build);
        let s = region.to_string();
        assert!(s.starts_with("#pragma omp target map("));
        assert!(s.contains("to:A"));
        assert!(s.contains("from:C"));
    }
}
