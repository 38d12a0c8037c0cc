//! Row-major dense `f32` matrices.
//!
//! [`DenseMatrix`] is the feature/activation container for the entire
//! workspace: node-feature matrices `X ∈ R^{n×d}`, weights `W ∈ R^{d×d'}`,
//! propagated embeddings, and logits all use it. The layout is a single flat
//! `Vec<f32>`, row-major, so row slices are contiguous — the access pattern
//! every graph kernel (SpMM, sampling gather) relies on.

use crate::par;
use crate::rng;
use crate::vecops;
use crate::{LinalgError, Result};
use rand::RngExt;

// Roofline attribution (DESIGN.md §9): each GEMM call site records its
// analytic flop count and compulsory traffic so `benchkernels` can report
// arithmetic intensity per kernel variant.
static MATMUL_FLOPS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.matmul.flops");
static MATMUL_BYTES: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.matmul.bytes_moved");

/// A dense row-major `f32` matrix.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for DenseMatrix {
    /// An empty `0×0` matrix — the natural initial state for scratch
    /// buffers grown on first use via
    /// [`reshape_scratch`](DenseMatrix::reshape_scratch).
    fn default() -> Self {
        DenseMatrix::zeros(0, 0)
    }
}

impl std::fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseMatrix({}x{})", self.rows, self.cols)
    }
}

impl DenseMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        DenseMatrix { rows, cols, data }
    }

    /// Creates a matrix from nested rows (test/ergonomic constructor).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        DenseMatrix { rows: r, cols: c, data }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Glorot/Xavier-uniform initialization, deterministic under `seed`.
    pub fn glorot(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = rng::seeded(seed);
        let limit = (6.0 / (rows + cols) as f64).sqrt() as f32;
        let data = (0..rows * cols).map(|_| rng.random_range(-limit..=limit)).collect();
        DenseMatrix { rows, cols, data }
    }

    /// I.i.d. Gaussian entries `N(0, sigma^2)`, deterministic under `seed`.
    pub fn gaussian(rows: usize, cols: usize, sigma: f32, seed: u64) -> Self {
        let mut rng = rng::seeded(seed);
        let mut m = Self::zeros(rows, cols);
        rng::fill_gaussian(&mut rng, &mut m.data, 0.0, sigma);
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Contiguous row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Contiguous mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Estimated resident bytes of this matrix (used by the memory
    /// accounting in `sgnn-core`).
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Matrix product `self · rhs`, parallelized over row chunks.
    ///
    /// Uses the cache-friendly i-k-j loop order on row-major buffers.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                context: format!("matmul {}x{} by {}x{}", self.rows, self.cols, rhs.rows, rhs.cols),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product written into a caller-owned `out`, overwriting it.
    ///
    /// The allocation-free form of [`matmul`](Self::matmul): `out` must be
    /// `(self.rows, rhs.cols)` and may hold arbitrary stale values.
    pub fn matmul_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols != rhs.rows || out.shape() != (self.rows, rhs.cols) {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "matmul_into {}x{} by {}x{} into {}x{}",
                    self.rows, self.cols, rhs.rows, rhs.cols, out.rows, out.cols
                ),
            });
        }
        let _sp = sgnn_obs::span!("linalg.matmul");
        MATMUL_FLOPS.add(2 * (self.rows * self.cols * rhs.cols) as u64);
        // Compulsory model: both operands read once, output zeroed and
        // accumulated (two sweeps).
        MATMUL_BYTES.add(
            4 * (self.rows * self.cols + rhs.rows * rhs.cols + 2 * self.rows * rhs.cols) as u64,
        );
        let (k, n) = (self.cols, rhs.cols);
        let lhs = &self.data;
        let rhsd = &rhs.data;
        par::par_rows_mut(&mut out.data, n.max(1), 16, |first_row, chunk| {
            if n == 0 {
                return;
            }
            for (local, out_row) in chunk.chunks_mut(n).enumerate() {
                let i = first_row + local;
                out_row.fill(0.0);
                let a_row = &lhs[i * k..(i + 1) * k];
                for (kk, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b_row = &rhsd[kk * n..(kk + 1) * n];
                    vecops::axpy(a, b_row, out_row);
                }
            }
        });
        Ok(())
    }

    /// Reshapes to `(rows, cols)` reusing the existing allocation when it
    /// is large enough. Entries are **unspecified** afterwards — this is
    /// the scratch-buffer primitive for `*_into` kernels, not a resize in
    /// the image-processing sense.
    pub fn reshape_scratch(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Transpose (allocates a new matrix).
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-owned `(cols, rows)` matrix.
    ///
    /// Walks the matrix in square tiles so both the read and the write
    /// side stay within a cache-line-friendly footprint; the naive loop
    /// strides one side by `rows * 4` bytes per element, which thrashes
    /// once matrices exceed L2.
    pub fn transpose_into(&self, out: &mut DenseMatrix) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose output must be (cols, rows)");
        // 32×32 f32 tile = 4 KiB: two tiles (read + write) sit comfortably
        // in L1 alongside the stack.
        const TILE: usize = 32;
        let (r, c) = (self.rows, self.cols);
        for rb in (0..r).step_by(TILE) {
            let rend = (rb + TILE).min(r);
            for cb in (0..c).step_by(TILE) {
                let cend = (cb + TILE).min(c);
                for i in rb..rend {
                    for j in cb..cend {
                        out.data[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
    }

    /// Element-wise sum; errors on shape mismatch.
    pub fn add(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.check_same_shape(rhs, "add")?;
        let mut out = self.clone();
        vecops::axpy(1.0, &rhs.data, &mut out.data);
        Ok(out)
    }

    /// In-place `self += alpha * rhs`; errors on shape mismatch.
    pub fn add_scaled(&mut self, alpha: f32, rhs: &DenseMatrix) -> Result<()> {
        self.check_same_shape(rhs, "add_scaled")?;
        vecops::axpy(alpha, &rhs.data, &mut self.data);
        Ok(())
    }

    /// Element-wise difference.
    pub fn sub(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.check_same_shape(rhs, "sub")?;
        let mut out = self.clone();
        vecops::axpy(-1.0, &rhs.data, &mut out.data);
        Ok(out)
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, alpha: f32) {
        vecops::scale(&mut self.data, alpha);
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every entry.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> DenseMatrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f32 {
        vecops::norm2(&self.data)
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                context: format!("concat_cols rows {} vs {}", self.rows, rhs.rows),
            });
        }
        let cols = self.cols + rhs.cols;
        let mut out = DenseMatrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Vertical concatenation `[self ; rhs]`.
    pub fn concat_rows(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                context: format!("concat_rows cols {} vs {}", self.cols, rhs.cols),
            });
        }
        let mut data = Vec::with_capacity((self.rows + rhs.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Ok(DenseMatrix::from_vec(self.rows + rhs.rows, self.cols, data))
    }

    /// Gathers the given rows into a new (len × cols) matrix.
    ///
    /// This is the mini-batch extraction primitive: sampled node batches are
    /// materialized by gathering their feature rows.
    pub fn gather_rows(&self, indices: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(indices.len(), self.cols);
        for (i, &src) in indices.iter().enumerate() {
            debug_assert!(src < self.rows);
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }

    /// Gathers the given rows into `out` (shape `len × cols`), reusing
    /// the caller's scratch — the allocation-free variant of
    /// [`gather_rows`](Self::gather_rows) for serving hot paths that
    /// assemble a coalesced batch per request window.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut DenseMatrix) {
        assert_eq!(out.rows(), indices.len(), "gather_rows_into row mismatch");
        assert_eq!(out.cols(), self.cols, "gather_rows_into col mismatch");
        for (i, &src) in indices.iter().enumerate() {
            debug_assert!(src < self.rows);
            out.row_mut(i).copy_from_slice(self.row(src));
        }
    }

    /// Scatters rows of `src` back into `self` at the given indices
    /// (inverse of [`gather_rows`](Self::gather_rows)).
    pub fn scatter_rows(&mut self, indices: &[usize], src: &DenseMatrix) {
        assert_eq!(indices.len(), src.rows());
        assert_eq!(self.cols, src.cols());
        for (i, &dst) in indices.iter().enumerate() {
            self.row_mut(dst).copy_from_slice(src.row(i));
        }
    }

    /// Per-row argmax (predicted class per node).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows).map(|r| vecops::argmax(self.row(r))).collect()
    }

    /// In-place row-wise softmax.
    pub fn softmax_rows(&mut self) {
        let cols = self.cols;
        par::par_rows_mut(&mut self.data, cols, 64, |_, chunk| {
            for row in chunk.chunks_mut(cols) {
                vecops::softmax_row(row);
            }
        });
    }

    /// Column means as a length-`cols` vector.
    pub fn col_means(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.cols];
        for r in 0..self.rows {
            vecops::axpy(1.0, self.row(r), &mut out);
        }
        if self.rows > 0 {
            vecops::scale(&mut out, 1.0 / self.rows as f32);
        }
        out
    }

    /// Normalizes every row to unit L2 norm (zero rows untouched).
    pub fn normalize_rows(&mut self) {
        let cols = self.cols;
        par::par_rows_mut(&mut self.data, cols, 64, |_, chunk| {
            for row in chunk.chunks_mut(cols) {
                vecops::normalize(row);
            }
        });
    }

    fn check_same_shape(&self, rhs: &DenseMatrix, op: &str) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                context: format!("{op} {}x{} vs {}x{}", self.rows, self.cols, rhs.rows, rhs.cols),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_rows_into_matches_gather_rows() {
        let a = DenseMatrix::gaussian(9, 4, 1.0, 11);
        let idx = [7usize, 0, 7, 3];
        let want = a.gather_rows(&idx);
        let mut got = DenseMatrix::zeros(idx.len(), 4);
        a.gather_rows_into(&idx, &mut got);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::glorot(17, 9, 3);
        let i = DenseMatrix::identity(9);
        let c = a.matmul(&i).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::glorot(5, 7, 11);
        let t = a.transpose().transpose();
        assert_eq!(t.data(), a.data());
    }

    #[test]
    fn transpose_crosses_tile_boundaries() {
        // 70×45 spans partial tiles on both axes; verify entry-by-entry.
        let a = DenseMatrix::glorot(70, 45, 23);
        let t = a.transpose();
        assert_eq!(t.shape(), (45, 70));
        for i in 0..70 {
            for j in 0..45 {
                assert_eq!(t.get(j, i), a.get(i, j));
            }
        }
    }

    #[test]
    fn matmul_into_overwrites_stale_scratch() {
        let a = DenseMatrix::glorot(9, 6, 1);
        let b = DenseMatrix::glorot(6, 11, 2);
        let fresh = a.matmul(&b).unwrap();
        let mut scratch = DenseMatrix::from_vec(9, 11, vec![f32::NAN; 9 * 11]);
        a.matmul_into(&b, &mut scratch).unwrap();
        assert_eq!(scratch.data(), fresh.data());
    }

    #[test]
    fn reshape_scratch_keeps_allocation() {
        let mut m = DenseMatrix::zeros(100, 8);
        let cap = m.data.capacity();
        let ptr = m.data.as_ptr();
        m.reshape_scratch(50, 8);
        assert_eq!(m.shape(), (50, 8));
        // Shrinking must not reallocate.
        assert_eq!(m.data.capacity(), cap);
        assert_eq!(m.data.as_ptr(), ptr);
        m.reshape_scratch(100, 8);
        assert_eq!(m.data.as_ptr(), ptr);
    }

    #[test]
    fn gather_then_scatter_round_trips() {
        let a = DenseMatrix::glorot(10, 4, 1);
        let idx = [7usize, 2, 9];
        let g = a.gather_rows(&idx);
        assert_eq!(g.shape(), (3, 4));
        let mut b = DenseMatrix::zeros(10, 4);
        b.scatter_rows(&idx, &g);
        for &i in &idx {
            assert_eq!(b.row(i), a.row(i));
        }
    }

    #[test]
    fn concat_cols_layout() {
        let a = DenseMatrix::from_rows(&[&[1.0], &[2.0]]);
        let b = DenseMatrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = a.concat_cols(&b).unwrap();
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn softmax_rows_partition_of_unity() {
        let mut m = DenseMatrix::glorot(20, 5, 99);
        m.softmax_rows();
        for r in 0..20 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn glorot_entries_within_limit() {
        let m = DenseMatrix::glorot(30, 30, 5);
        let limit = (6.0f32 / 60.0).sqrt() + 1e-6;
        assert!(m.data().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn add_sub() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0]]);
        let b = DenseMatrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn col_means_and_row_normalize() {
        let mut m = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        let means = m.col_means();
        assert_eq!(means, vec![1.5, 2.0]);
        m.normalize_rows();
        assert!((m.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((m.get(1, 1) - 1.0).abs() < 1e-6);
    }
}
