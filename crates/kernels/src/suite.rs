//! The benchmark suite: one entry per Table I row.

use std::fmt;

use crate::codegen::{KernelBuild, TargetEnv};
use crate::runner::{run, RunError};
use crate::{cnn, hog, matmul, strassen, svm};

/// Application field of a benchmark (Table I "Field" column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Field {
    /// Linear algebra kernels from the PULP test set.
    LinearAlgebra,
    /// Machine learning / vision classifiers.
    LearningVision,
    /// Pure vision feature extraction.
    Vision,
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::LinearAlgebra => f.write_str("linear algebra"),
            Field::LearningVision => f.write_str("learning / vision"),
            Field::Vision => f.write_str("vision"),
        }
    }
}

/// Every benchmark of the paper's Table I.
///
/// # Example
///
/// ```
/// use ulp_kernels::{Benchmark, TargetEnv};
///
/// // Build the CNN for the quad-core accelerator and check its Table I
/// // footprint.
/// let build = Benchmark::Cnn.build(&TargetEnv::pulp_parallel());
/// assert_eq!(build.input_bytes(), 2048);
/// assert_eq!(build.output_bytes(), 40);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Benchmark {
    /// Matrix multiplication on char data.
    MatMul,
    /// Matrix multiplication on short data.
    MatMulShort,
    /// Matrix multiplication on 16-bit fixed-point data.
    MatMulFixed,
    /// Strassen fast matrix multiplication.
    Strassen,
    /// SVM classifier, linear kernel.
    SvmLinear,
    /// SVM classifier, polynomial kernel.
    SvmPoly,
    /// SVM classifier, RBF kernel.
    SvmRbf,
    /// Convolutional neural network.
    Cnn,
    /// Approximated convolutional neural network.
    CnnApprox,
    /// Histogram-of-oriented-gradients descriptor.
    Hog,
}

impl Benchmark {
    /// All ten benchmarks in Table I order.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::MatMul,
        Benchmark::MatMulShort,
        Benchmark::MatMulFixed,
        Benchmark::Strassen,
        Benchmark::SvmLinear,
        Benchmark::SvmPoly,
        Benchmark::SvmRbf,
        Benchmark::Cnn,
        Benchmark::CnnApprox,
        Benchmark::Hog,
    ];

    /// Table I row name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::MatMul => "matmul",
            Benchmark::MatMulShort => "matmul (short)",
            Benchmark::MatMulFixed => "matmul (fixed)",
            Benchmark::Strassen => "strassen",
            Benchmark::SvmLinear => "svm (linear)",
            Benchmark::SvmPoly => "svm (poly)",
            Benchmark::SvmRbf => "svm (RBF)",
            Benchmark::Cnn => "cnn",
            Benchmark::CnnApprox => "cnn (approx)",
            Benchmark::Hog => "hog",
        }
    }

    /// Table I description.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Benchmark::MatMul => "Matrix multiplication on char data",
            Benchmark::MatMulShort => "Matrix multiplication on short data",
            Benchmark::MatMulFixed => "Matrix multiplication on 16-bit fixed-point data",
            Benchmark::Strassen => "Strassen algorithm for fast matrix multiplication",
            Benchmark::SvmLinear => "Support Vector Machine classifier (linear kernel)",
            Benchmark::SvmPoly => "Support Vector Machine classifier (polynomial kernel)",
            Benchmark::SvmRbf => "Support Vector Machine classifier (radial basis function kernel)",
            Benchmark::Cnn => "Convolutional Neural Network",
            Benchmark::CnnApprox => "Convolutional Neural Network (approximated)",
            Benchmark::Hog => "Histogram of Oriented Gradients feature descriptor",
        }
    }

    /// Application field.
    #[must_use]
    pub fn field(self) -> Field {
        match self {
            Benchmark::MatMul
            | Benchmark::MatMulShort
            | Benchmark::MatMulFixed
            | Benchmark::Strassen => Field::LinearAlgebra,
            Benchmark::SvmLinear
            | Benchmark::SvmPoly
            | Benchmark::SvmRbf
            | Benchmark::Cnn
            | Benchmark::CnnApprox => Field::LearningVision,
            Benchmark::Hog => Field::Vision,
        }
    }

    /// Whether the paper groups this benchmark with the fixed-point set
    /// (the low architectural-speedup group of Fig. 4).
    #[must_use]
    pub fn is_fixed_point(self) -> bool {
        matches!(
            self,
            Benchmark::MatMulFixed
                | Benchmark::SvmLinear
                | Benchmark::SvmPoly
                | Benchmark::SvmRbf
                | Benchmark::Cnn
                | Benchmark::CnnApprox
        )
    }

    /// Builds the benchmark for a target environment (full Table I size).
    #[must_use]
    pub fn build(self, env: &TargetEnv) -> KernelBuild {
        match self {
            Benchmark::MatMul => matmul::build(matmul::MatVariant::Char, env),
            Benchmark::MatMulShort => matmul::build(matmul::MatVariant::Short, env),
            Benchmark::MatMulFixed => matmul::build(matmul::MatVariant::Fixed, env),
            Benchmark::Strassen => strassen::build(env),
            Benchmark::SvmLinear => svm::build(svm::SvmKernel::Linear, env),
            Benchmark::SvmPoly => svm::build(svm::SvmKernel::Poly, env),
            Benchmark::SvmRbf => svm::build(svm::SvmKernel::Rbf, env),
            Benchmark::Cnn => cnn::build(false, env),
            Benchmark::CnnApprox => cnn::build(true, env),
            Benchmark::Hog => hog::build(env),
        }
    }

    /// Counts the benchmark's **RISC ops** — retired instructions on the
    /// featureless baseline core (paper §IV footnote 1).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the baseline run fails (it should not).
    pub fn risc_ops(self) -> Result<u64, RunError> {
        let env = TargetEnv::baseline();
        Ok(run(&self.build(&env), &env)?.retired)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_ten_unique_rows() {
        assert_eq!(Benchmark::ALL.len(), 10);
        for (i, a) in Benchmark::ALL.iter().enumerate() {
            for b in &Benchmark::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn names_match_table1() {
        let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            [
                "matmul",
                "matmul (short)",
                "matmul (fixed)",
                "strassen",
                "svm (linear)",
                "svm (poly)",
                "svm (RBF)",
                "cnn",
                "cnn (approx)",
                "hog"
            ]
        );
    }

    #[test]
    fn fields_match_table1() {
        assert_eq!(Benchmark::MatMul.field(), Field::LinearAlgebra);
        assert_eq!(Benchmark::SvmRbf.field(), Field::LearningVision);
        assert_eq!(Benchmark::Hog.field(), Field::Vision);
    }

    #[test]
    fn fixed_point_group_matches_paper() {
        let fixed: Vec<_> = Benchmark::ALL
            .iter()
            .filter(|b| b.is_fixed_point())
            .map(|b| b.name())
            .collect();
        assert_eq!(
            fixed,
            [
                "matmul (fixed)",
                "svm (linear)",
                "svm (poly)",
                "svm (RBF)",
                "cnn",
                "cnn (approx)"
            ]
        );
    }
}
