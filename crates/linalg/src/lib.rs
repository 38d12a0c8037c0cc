//! # sgnn-linalg
//!
//! Dense linear algebra kernels underpinning the `sgnn` workspace.
//!
//! The scalable-GNN survey this workspace reproduces treats neural-network
//! computation as a commodity substrate: what matters is that feature
//! transformations (`H · W`), activations, and small eigenproblems exist so
//! the *graph-side* techniques can be measured around them. This crate
//! provides exactly that substrate:
//!
//! - [`DenseMatrix`] — row-major `f32` matrices with BLAS-lite operations
//!   (parallel GEMM, transpose, row slicing, concatenation).
//! - [`vecops`] — flat-slice primitives (dot, axpy, softmax, normalization)
//!   reused by every hot loop in the workspace.
//! - [`eigen`] — a Jacobi eigensolver for small dense symmetric matrices and
//!   a Lanczos solver for large sparse operators (via the [`MatVecF64`]
//!   trait), used by the spectral-embedding and implicit-GNN experiments.
//! - [`solve`] — conjugate gradient for symmetric positive-definite
//!   operators (implicit-GNN equilibria).
//! - [`par`] — persistent-pool chunked parallel iteration used by the GEMM
//!   and sparse-matrix kernels.
//! - [`reduce`] — exact fixed-point (`i128`) gradient reductions whose
//!   partial sums combine order-independently, the primitive behind the
//!   shard trainer's bitwise-equality guarantee (DESIGN.md §7).
//! - [`rng`] — deterministic Gaussian sampling (Box–Muller) since the
//!   allowed `rand` build ships no normal distribution.
//! - [`simd`] — runtime-dispatched AVX2/NEON micro-kernels, compiled into
//!   every build and bitwise-identical to their [`simd::scalar`]
//!   reference kernels (DESIGN.md §9).
//! - [`quant`] — int8/f16 quantized matrices for the serving head and
//!   the compressed halo wire, with f32 accumulation and a documented
//!   error tolerance.

// Numeric kernels index several parallel flat buffers at once; iterator
// rewrites obscure them. Config-style constructors take their full
// parameter list deliberately (documented, stable).
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

pub mod dense;
pub mod eigen;
pub mod par;
pub mod quant;
pub mod reduce;
pub mod rng;
pub mod simd;
pub mod solve;
pub mod vecops;

pub use dense::DenseMatrix;
pub use eigen::{jacobi_eigen, lanczos, EigenPairs, MatVecF64};
pub use quant::{qmatmul_into, QuantMatrix, QuantMode};
pub use solve::{conjugate_gradient, CgResult};

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the two shapes involved.
        context: String,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// The routine that failed.
        routine: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// Index out of bounds.
    OutOfBounds {
        /// Offending index.
        index: usize,
        /// Exclusive bound.
        bound: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { context } => {
                write!(f, "shape mismatch: {context}")
            }
            LinalgError::NoConvergence { routine, iterations } => {
                write!(f, "{routine} failed to converge after {iterations} iterations")
            }
            LinalgError::OutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (< {bound})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
