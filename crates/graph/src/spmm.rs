//! Sparse × dense products — the single hottest kernel of GNN training.
//!
//! `spmm` computes `Y = A · X` for a (weighted) CSR `A` and a row-major
//! dense `X`. Work is partitioned across the worker pool by **nnz**, not by
//! row count: chunk boundaries come from a binary search on `indptr`, so a
//! power-law hub and a thousand leaves cost their workers the same. There
//! is one body per width class: feature widths ≤ 4 run register-accumulated
//! micro-kernels (weighted and unweighted, the weight lookup hoisted out of
//! the edge loop), and every wider product runs the tiled register-gather
//! body of [`crate::blocked`] with [`BlockSpec::auto`] tiles.
//!
//! [`spmm_into`] writes into a caller-owned matrix so steady-state training
//! loops can reuse one scratch buffer across epochs; [`spmm`] is the
//! allocating convenience wrapper. `CsrOpF64` adapts a CSR graph to the
//! [`MatVecF64`](sgnn_linalg::eigen::MatVecF64) trait for the eigensolvers
//! and implicit-GNN equilibrium solvers.

use crate::blocked::{gather_into, BlockSpec};
use crate::csr::CsrGraph;
use sgnn_linalg::eigen::MatVecF64;
use sgnn_linalg::par;
use sgnn_linalg::DenseMatrix;

/// Minimum scalar multiply-adds that justify engaging the worker pool;
/// below this the kernels run inline on the calling thread.
pub(crate) const MIN_PAR_WORK: usize = 1 << 16;

// Observability: nnz processed is the device-independent work measure the
// experiments report; calls × chunk counters (in `linalg.pool.*`) give the
// balanced-split granularity. Spans use the logical-layer name `linalg.*`
// (DESIGN.md §5) even though the CSR kernels live in sgnn-graph.
static SPMM_CALLS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmm.calls");
static SPMM_NS: sgnn_obs::Histogram = sgnn_obs::Histogram::new("linalg.spmm.ns");
static SPMM_NNZ: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmm.nnz");
static SPMM_FLOPS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmm.flops");
static SPMM_BYTES: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmm.bytes_moved");
static SPMV_CALLS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmv.calls");
static SPMV_NNZ: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmv.nnz");
static SPMV_FLOPS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmv.flops");
static SPMV_BYTES: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmv.bytes_moved");

/// Computes `Y = A · X` where `A` is `g` interpreted as a sparse matrix.
///
/// Unweighted graphs use unit weights. Panics if `x.rows() != g.num_nodes()`
/// (programmer error — the shapes are fixed by the pipeline).
pub fn spmm(g: &CsrGraph, x: &DenseMatrix) -> DenseMatrix {
    let mut y = DenseMatrix::zeros(g.num_nodes(), x.cols());
    spmm_into(g, x, &mut y);
    y
}

/// Computes `Y = A · X` into a caller-owned `y`, overwriting its contents.
///
/// The allocation-free form of [`spmm`]: training loops keep one scratch
/// matrix of shape `(num_nodes, d)` and pass it here every epoch. `y` may
/// hold arbitrary stale values on entry.
pub fn spmm_into(g: &CsrGraph, x: &DenseMatrix, y: &mut DenseMatrix) {
    assert_eq!(x.rows(), g.num_nodes(), "feature rows must equal node count");
    assert_eq!(
        y.shape(),
        (g.num_nodes(), x.cols()),
        "output shape must be (num_nodes, feature_cols)"
    );
    let d = x.cols();
    if d == 0 {
        return;
    }
    let _sp = sgnn_obs::span!("linalg.spmm");
    let _ht = SPMM_NS.time();
    SPMM_CALLS.incr();
    SPMM_NNZ.add(g.num_edges() as u64);
    SPMM_FLOPS.add(spmm_flops(g, d));
    SPMM_BYTES.add(spmm_bytes(g, d));
    if d > 4 {
        let a = g.view();
        gather_into(a, x, y, BlockSpec::auto(a, d));
        return;
    }
    let indptr = g.indptr();
    let indices = g.indices();
    let weights = g.weights();
    let xd = x.data();
    // Balance by edge count: one unit of weight = one row of axpy work.
    let min_weight = (MIN_PAR_WORK / d).max(1);
    par::par_balanced_rows_mut(y.data_mut(), d, indptr, min_weight, |first_row, chunk| {
        // One dispatch per chunk: the weighted/unweighted branch and the
        // feature-width branch (1 ≤ d ≤ 4 here) never reach the edge loop.
        match (weights, d) {
            (None, 1) => rows_unweighted_small::<1>(indptr, indices, xd, first_row, chunk),
            (None, 2) => rows_unweighted_small::<2>(indptr, indices, xd, first_row, chunk),
            (None, 3) => rows_unweighted_small::<3>(indptr, indices, xd, first_row, chunk),
            (None, _) => rows_unweighted_small::<4>(indptr, indices, xd, first_row, chunk),
            (Some(ws), 1) => rows_weighted_small::<1>(indptr, indices, ws, xd, first_row, chunk),
            (Some(ws), 2) => rows_weighted_small::<2>(indptr, indices, ws, xd, first_row, chunk),
            (Some(ws), 3) => rows_weighted_small::<3>(indptr, indices, ws, xd, first_row, chunk),
            (Some(ws), _) => rows_weighted_small::<4>(indptr, indices, ws, xd, first_row, chunk),
        }
    });
}

/// Narrow-feature micro-kernel, unit weights: the accumulator lives in
/// registers and the output row is stored once.
#[inline]
fn rows_unweighted_small<const D: usize>(
    indptr: &[usize],
    indices: &[u32],
    xd: &[f32],
    first_row: usize,
    chunk: &mut [f32],
) {
    for (local, out) in chunk.chunks_exact_mut(D).enumerate() {
        let u = first_row + local;
        let mut acc = [0f32; D];
        for e in indptr[u]..indptr[u + 1] {
            let v = indices[e] as usize;
            let src = &xd[v * D..v * D + D];
            for k in 0..D {
                acc[k] += src[k];
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// Narrow-feature micro-kernel with edge weights.
#[inline]
fn rows_weighted_small<const D: usize>(
    indptr: &[usize],
    indices: &[u32],
    ws: &[f32],
    xd: &[f32],
    first_row: usize,
    chunk: &mut [f32],
) {
    for (local, out) in chunk.chunks_exact_mut(D).enumerate() {
        let u = first_row + local;
        let mut acc = [0f32; D];
        for e in indptr[u]..indptr[u + 1] {
            let v = indices[e] as usize;
            let w = ws[e];
            let src = &xd[v * D..v * D + D];
            for k in 0..D {
                acc[k] += w * src[k];
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// Computes `y = A · x` for a single `f32` vector, overwriting `y`.
///
/// Parallelized with the same nnz-balanced partition as [`spmm`]; small
/// graphs run inline.
pub fn spmv(g: &CsrGraph, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), g.num_nodes());
    assert_eq!(y.len(), g.num_nodes());
    let _sp = sgnn_obs::span!("linalg.spmv");
    SPMV_CALLS.incr();
    SPMV_NNZ.add(g.num_edges() as u64);
    SPMV_FLOPS.add(spmm_flops(g, 1));
    SPMV_BYTES.add(spmm_bytes(g, 1));
    let indptr = g.indptr();
    let indices = g.indices();
    let weights = g.weights();
    par::par_balanced_rows_mut(y, 1, indptr, MIN_PAR_WORK, |first_row, rows| match weights {
        None => {
            for (local, out) in rows.iter_mut().enumerate() {
                let u = first_row + local;
                let mut acc = 0f32;
                for e in indptr[u]..indptr[u + 1] {
                    acc += x[indices[e] as usize];
                }
                *out = acc;
            }
        }
        Some(ws) => {
            for (local, out) in rows.iter_mut().enumerate() {
                let u = first_row + local;
                let mut acc = 0f32;
                for e in indptr[u]..indptr[u + 1] {
                    acc += ws[e] * x[indices[e] as usize];
                }
                *out = acc;
            }
        }
    });
}

/// `f64` operator view of a CSR graph, optionally shifted and scaled:
/// `y = scale · A x + shift · x`.
///
/// The shift/scale form covers every operator the workspace diagonalizes —
/// `Â` itself, `I − Â` (normalized Laplacian given `Â`), and the implicit-
/// GNN system `I − γÂ`.
pub struct CsrOpF64<'a> {
    g: &'a CsrGraph,
    scale: f64,
    shift: f64,
}

impl<'a> CsrOpF64<'a> {
    /// Plain operator `y = A x`.
    pub fn new(g: &'a CsrGraph) -> Self {
        CsrOpF64 { g, scale: 1.0, shift: 0.0 }
    }

    /// Affine operator `y = scale·A x + shift·x`.
    pub fn affine(g: &'a CsrGraph, scale: f64, shift: f64) -> Self {
        CsrOpF64 { g, scale, shift }
    }
}

impl MatVecF64 for CsrOpF64<'_> {
    fn dim(&self) -> usize {
        self.g.num_nodes()
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.g.num_nodes());
        assert_eq!(y.len(), self.g.num_nodes());
        let _sp = sgnn_obs::span!("linalg.csr_matvec");
        let indptr = self.g.indptr();
        let indices = self.g.indices();
        let weights = self.g.weights();
        let (scale, shift) = (self.scale, self.shift);
        par::par_balanced_rows_mut(y, 1, indptr, MIN_PAR_WORK, |first_row, rows| match weights {
            None => {
                for (local, out) in rows.iter_mut().enumerate() {
                    let u = first_row + local;
                    let mut acc = 0f64;
                    for e in indptr[u]..indptr[u + 1] {
                        acc += x[indices[e] as usize];
                    }
                    *out = scale * acc + shift * x[u];
                }
            }
            Some(ws) => {
                for (local, out) in rows.iter_mut().enumerate() {
                    let u = first_row + local;
                    let mut acc = 0f64;
                    for e in indptr[u]..indptr[u + 1] {
                        acc += ws[e] as f64 * x[indices[e] as usize];
                    }
                    *out = scale * acc + shift * x[u];
                }
            }
        });
    }
}

/// Scalar floating-point operations one `spmm` performs: `2 · nnz(A) · d`
/// for a weighted graph (multiply + add per gathered element) and
/// `nnz(A) · d` for unit weights (the multiply is hoisted away entirely).
///
/// The experiments report this as the device-independent work measure the
/// survey's complexity discussions use; together with [`spmm_bytes`] it is
/// the roofline numerator the `linalg.spmm.flops` counter carries.
pub fn spmm_flops(g: &CsrGraph, d: usize) -> u64 {
    let per_elem = if g.weights().is_some() { 2 } else { 1 };
    per_elem * g.num_edges() as u64 * d as u64
}

/// Analytic compulsory traffic of one `spmm` in bytes — the roofline
/// denominator carried by the `linalg.spmm.bytes_moved` counter.
///
/// Counts what the kernel *requests*, assuming no cache reuse between
/// edges: the `indptr`/`indices`/weight streams, one `d`-wide f32 gather
/// per edge, and one output write per destination row. Cache blocking and
/// reordering lower the DRAM bytes actually moved below this model — that
/// gap is exactly the locality win `benchkernels` attributes.
pub fn spmm_bytes(g: &CsrGraph, d: usize) -> u64 {
    let nnz = g.num_edges() as u64;
    let n = g.num_nodes() as u64;
    let index_stream = 4 * nnz + 8 * (n + 1);
    let weight_stream = if g.weights().is_some() { 4 * nnz } else { 0 };
    index_stream + weight_stream + 4 * d as u64 * nnz + 4 * n * d as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::normalize::{normalized_adjacency, NormKind};
    use crate::GraphBuilder;

    #[test]
    fn spmm_matches_manual_on_triangle() {
        let g = GraphBuilder::new(3).symmetric().edges(&[(0, 1), (1, 2)]).build().unwrap();
        let x = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]);
        let y = spmm(&g, &x);
        // Node 0 aggregates node 1, node 1 aggregates 0+2, node 2 aggregates 1.
        assert_eq!(y.row(0), &[0.0, 1.0]);
        assert_eq!(y.row(1), &[3.0, 2.0]);
        assert_eq!(y.row(2), &[0.0, 1.0]);
    }

    #[test]
    fn spmm_respects_weights() {
        let g = GraphBuilder::new(2).weighted_edges(&[(0, 1, 0.5)]).build().unwrap();
        let x = DenseMatrix::from_rows(&[&[2.0], &[4.0]]);
        let y = spmm(&g, &x);
        assert_eq!(y.row(0), &[2.0]);
        assert_eq!(y.row(1), &[0.0]);
    }

    /// Reference kernel: the straightforward triple loop every specialized
    /// path must agree with exactly.
    fn spmm_reference(g: &CsrGraph, x: &DenseMatrix) -> DenseMatrix {
        let d = x.cols();
        let mut y = DenseMatrix::zeros(g.num_nodes(), d);
        for u in 0..g.num_nodes() {
            for e in g.indptr()[u]..g.indptr()[u + 1] {
                let v = g.indices()[e] as usize;
                let w = g.weights().map_or(1.0, |ws| ws[e]);
                for k in 0..d {
                    y.set(u, k, y.get(u, k) + w * x.get(v, k));
                }
            }
        }
        y
    }

    #[test]
    fn specialized_widths_match_reference() {
        // Exercises every micro-kernel (d = 1..=4) plus the general path
        // (d = 5, 7), weighted and unweighted.
        let raw = generate::barabasi_albert(300, 3, 11);
        let weighted = normalized_adjacency(&raw, NormKind::Sym, true).unwrap();
        for g in [&raw, &weighted] {
            for d in [1usize, 2, 3, 4, 5, 7] {
                let x = DenseMatrix::gaussian(300, d, 1.0, d as u64);
                let got = spmm(g, &x);
                let want = spmm_reference(g, &x);
                for u in 0..300 {
                    for k in 0..d {
                        assert!(
                            (got.get(u, k) - want.get(u, k)).abs() < 1e-4,
                            "d={d} mismatch at ({u},{k})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spmm_into_overwrites_stale_scratch() {
        let g = generate::erdos_renyi(80, 0.08, false, 4);
        let x = DenseMatrix::gaussian(80, 6, 1.0, 9);
        let fresh = spmm(&g, &x);
        // Scratch full of garbage must end up identical to a fresh output.
        let mut scratch = DenseMatrix::from_vec(80, 6, vec![f32::NAN; 80 * 6]);
        spmm_into(&g, &x, &mut scratch);
        assert_eq!(scratch.data(), fresh.data());
    }

    #[test]
    fn spmv_agrees_with_spmm_column() {
        let g = generate::erdos_renyi(120, 0.05, false, 8);
        let a = normalized_adjacency(&g, NormKind::Sym, true).unwrap();
        let x = DenseMatrix::gaussian(120, 1, 1.0, 3);
        let dense = spmm(&a, &x);
        let xv: Vec<f32> = x.data().to_vec();
        let mut yv = vec![0f32; 120];
        spmv(&a, &xv, &mut yv);
        for u in 0..120 {
            assert!((yv[u] - dense.get(u, 0)).abs() < 1e-5);
        }
    }

    #[test]
    fn csr_op_affine_shift() {
        // y = -A x + 1·x  on a single edge graph equals x - Ax.
        let g = GraphBuilder::new(2).symmetric().edges(&[(0, 1)]).build().unwrap();
        let op = CsrOpF64::affine(&g, -1.0, 1.0);
        let mut y = vec![0f64; 2];
        op.matvec(&[3.0, 5.0], &mut y);
        assert_eq!(y, vec![3.0 - 5.0, 5.0 - 3.0]);
    }

    #[test]
    fn rw_spmm_preserves_constant_vector() {
        // Row-stochastic propagation maps the all-ones vector to itself.
        let g = generate::barabasi_albert(150, 2, 5);
        let p = normalized_adjacency(&g, NormKind::Rw, true).unwrap();
        let ones = DenseMatrix::from_vec(150, 1, vec![1.0; 150]);
        let y = spmm(&p, &ones);
        for u in 0..150 {
            assert!((y.get(u, 0) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn flops_formula() {
        let g = generate::chain(10); // unweighted: adds only
        assert_eq!(spmm_flops(&g, 16), 18 * 16);
        let w = normalized_adjacency(&g, NormKind::Sym, false).unwrap();
        assert_eq!(w.num_edges(), 18);
        assert_eq!(spmm_flops(&w, 16), 2 * 18 * 16); // weighted: mul + add
    }

    #[test]
    fn bytes_model_counts_every_stream() {
        let g = generate::chain(10);
        let n = 10u64;
        let nnz = 18u64;
        let d = 16u64;
        let expect = 4 * nnz + 8 * (n + 1) + 4 * d * nnz + 4 * n * d;
        assert_eq!(spmm_bytes(&g, 16), expect);
        let w = normalized_adjacency(&g, NormKind::Sym, false).unwrap();
        assert_eq!(spmm_bytes(&w, 16), expect + 4 * nnz);
    }

    // The analytic-model ↔ counter cross-check lives in
    // crates/graph/tests/roofline_counters.rs: obs state is process-global,
    // so it runs alone in its own integration-test process.

    #[test]
    fn spmm_zero_width_features() {
        let g = generate::chain(4);
        let x = DenseMatrix::zeros(4, 0);
        let y = spmm(&g, &x);
        assert_eq!(y.shape(), (4, 0));
    }
}
