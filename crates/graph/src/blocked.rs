//! The tiled register-gather body: the one f32 neighbour-aggregation
//! kernel, over a borrowed [`CsrView`]. [`spmm_into`](crate::spmm::spmm_into)
//! runs it for feature widths d ≥ 5 with [`BlockSpec::auto`] tiles and
//! [`spmm_blocked_into`] with caller-chosen tiles; [`aggregate_into`]
//! runs it at every width with no counters, for sampled blocks and
//! GraphSAGE's evaluation tiles. [`aggregate_backward_into`] is its
//! adjoint, a serial scatter. The product is tiled two ways:
//!
//! - **Feature columns** are processed in windows of
//!   [`BlockSpec::col_block`] entries so the
//!   [`sgnn_linalg::simd::row_gather_weighted`] kernels can hold the whole
//!   window in vector registers across a row's edge loop — one output
//!   store per (row, window) instead of one load+store per edge.
//! - **Destination rows** are processed in tiles of
//!   [`BlockSpec::row_block`] rows so the set of gathered source sub-rows
//!   stays L2-resident within a tile; composing with an RCM/degree
//!   ordering from [`crate::reorder`] clusters those sources further.
//!
//! Per feature column the accumulation chain (first edge initializes,
//! later edges add, CSR order) does not depend on the tiles or the
//! thread count, so [`spmm_blocked_into`] is **bitwise identical** to
//! `spmm_into` for every block size — DESIGN.md §9. `spmm_into` runs
//! feature widths ≤ 4 on its own register micro-kernels (blocking cannot
//! split them and their accumulate-from-zero order differs on `-0.0`),
//! and `spmm_blocked_into` delegates those widths to it.

use crate::csr::{CsrGraph, CsrView};
use crate::spmm::{spmm_bytes, spmm_flops, MIN_PAR_WORK};
use sgnn_linalg::{par, simd, vecops, DenseMatrix};

static BLOCKED_CALLS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmm_blocked.calls");
static BLOCKED_FLOPS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmm_blocked.flops");
static BLOCKED_BYTES: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.spmm_blocked.bytes_moved");

/// Tile geometry for the blocked SpMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpec {
    /// Destination rows per tile (L2 residency knob).
    pub row_block: usize,
    /// Feature columns per window (register residency knob).
    pub col_block: usize,
}

impl BlockSpec {
    /// Picks tile sizes for a matrix/feature-width pair.
    ///
    /// The column window is the feature width capped at 64 (eight YMM
    /// accumulators — the widest register tile the AVX2 gather kernel
    /// holds). The row tile targets half of a typical 2 MB L2 for the
    /// gathered source sub-rows, sized with the mean row length as the
    /// distinct-source estimate.
    pub fn auto(a: CsrView<'_>, d: usize) -> BlockSpec {
        let col_block = d.clamp(1, 64);
        let n = a.num_rows().max(1);
        let mean_deg = (a.cols.len() as f64 / n as f64).max(1.0);
        let l2_target = 1 << 20; // bytes
        let per_row = mean_deg * col_block as f64 * 4.0 + 1.0;
        let row_block = ((l2_target as f64 / per_row) as usize).clamp(32, 8192);
        BlockSpec { row_block, col_block }
    }
}

/// `Y = A · X` with explicit tiles, bitwise identical to
/// [`crate::spmm::spmm_into`] for every `spec`, overwriting `y`.
pub fn spmm_blocked_into(g: &CsrGraph, x: &DenseMatrix, y: &mut DenseMatrix, spec: BlockSpec) {
    assert_eq!(x.rows(), g.num_nodes(), "feature rows must equal node count");
    assert_eq!(
        y.shape(),
        (g.num_nodes(), x.cols()),
        "output shape must be (num_nodes, feature_cols)"
    );
    assert!(spec.row_block > 0 && spec.col_block > 0, "block sizes must be positive");
    let d = x.cols();
    if d == 0 {
        return;
    }
    // The ≤ 4-wide micro-kernels in spmm_into accumulate from zero (their
    // chain differs from init-from-first only on -0.0, but differs); a
    // column window can't split them anyway, so delegate.
    if d <= 4 {
        crate::spmm::spmm_into(g, x, y);
        return;
    }
    let _sp = sgnn_obs::span!("linalg.spmm_blocked");
    BLOCKED_CALLS.incr();
    BLOCKED_FLOPS.add(spmm_flops(g, d));
    BLOCKED_BYTES.add(spmm_bytes(g, d));
    gather_into(g.view(), x, y, spec);
}

/// `Y = A · X` for any view `A` with [`BlockSpec::auto`] tiles,
/// overwriting `y`: the register-gather body at every feature width,
/// with no counters. Row `i` starts from its first entry's `w·x` and
/// adds the later entries' in order, so it equals a plain CSR loop bit
/// for bit at every thread count; a row without entries is zero.
pub fn aggregate_into(a: CsrView<'_>, x: &DenseMatrix, y: &mut DenseMatrix) {
    assert_eq!(x.rows(), a.num_cols, "input rows must equal the view's column count");
    assert_eq!(y.shape(), (a.num_rows(), x.cols()), "output shape must be (view rows, d)");
    let d = x.cols();
    if d == 0 {
        return;
    }
    gather_into(a, x, y, BlockSpec::auto(a, d));
}

/// `dX = Aᵀ · dY`, overwriting `dx`: the adjoint of [`aggregate_into`].
/// A serial scatter, `dX[cols[e]] += w_e · dY[i]` in row and entry
/// order, so every `dX` row sums its terms in one fixed order.
pub fn aggregate_backward_into(a: CsrView<'_>, dy: &DenseMatrix, dx: &mut DenseMatrix) {
    assert_eq!(dy.rows(), a.num_rows(), "gradient rows must equal the view's row count");
    assert_eq!(dx.shape(), (a.num_cols, dy.cols()), "output shape must be (view cols, d)");
    dx.data_mut().fill(0.0);
    for i in 0..a.num_rows() {
        let gy = dy.row(i);
        for e in a.indptr[i]..a.indptr[i + 1] {
            let w = a.weights.map_or(1.0, |ws| ws[e]);
            vecops::axpy(w, gy, dx.row_mut(a.cols[e] as usize));
        }
    }
}

/// The register-gather body shared by `spmm_into` (d ≥ 5, auto tiles),
/// [`spmm_blocked_into`] and [`aggregate_into`]: no checks, no counters;
/// `x` must have at least one column.
pub(crate) fn gather_into(a: CsrView<'_>, x: &DenseMatrix, y: &mut DenseMatrix, spec: BlockSpec) {
    let d = x.cols();
    let xd = x.data();
    match a.weights {
        None => for_each_window(a.indptr, d, y.data_mut(), spec, |out, lo, hi, c0| {
            simd::row_gather_unweighted(out, xd, d, c0, &a.cols[lo..hi])
        }),
        Some(ws) => for_each_window(a.indptr, d, y.data_mut(), spec, |out, lo, hi, c0| {
            simd::row_gather_weighted(out, xd, d, c0, &a.cols[lo..hi], &ws[lo..hi])
        }),
    }
}

/// Walks the `d`-wide rows of `y` in `spec` tiles — nnz-balanced row
/// chunks across the pool, then row tiles × column windows inside each
/// chunk — and calls `window(out, lo, hi, c0)` for every row with edges
/// `lo..hi` of `indptr`, `out` being its window starting at column `c0`.
/// Rows without edges are zero-filled.
fn for_each_window<F>(indptr: &[usize], d: usize, y: &mut [f32], spec: BlockSpec, window: F)
where
    F: Fn(&mut [f32], usize, usize, usize) + Sync,
{
    let min_weight = (MIN_PAR_WORK / d).max(1);
    par::par_balanced_rows_mut(y, d, indptr, min_weight, |first_row, chunk| {
        let rows = chunk.len() / d;
        for r0 in (0..rows).step_by(spec.row_block) {
            let r1 = (r0 + spec.row_block).min(rows);
            for c0 in (0..d).step_by(spec.col_block) {
                let tw = spec.col_block.min(d - c0);
                for local in r0..r1 {
                    let u = first_row + local;
                    let (lo, hi) = (indptr[u], indptr[u + 1]);
                    let out = &mut chunk[local * d + c0..][..tw];
                    if lo == hi {
                        out.fill(0.0);
                    } else {
                        window(out, lo, hi, c0);
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::normalize::{normalized_adjacency, NormKind};
    use crate::reorder::{compute_order, relabel, Reordering};
    use crate::spmm::{spmm, spmm_into};

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn blocked_is_bitwise_equal_across_specs() {
        let raw = generate::barabasi_albert(400, 4, 3);
        let weighted = normalized_adjacency(&raw, NormKind::Sym, true).unwrap();
        for g in [&raw, &weighted] {
            for d in [5usize, 8, 64, 70] {
                let x = DenseMatrix::gaussian(g.num_nodes(), d, 1.0, d as u64);
                let want = spmm(g, &x);
                for spec in [
                    BlockSpec { row_block: 1, col_block: 1 },
                    BlockSpec { row_block: 7, col_block: 8 },
                    BlockSpec { row_block: 64, col_block: 33 },
                    BlockSpec::auto(g.view(), d),
                ] {
                    let mut y =
                        DenseMatrix::from_vec(g.num_nodes(), d, vec![f32::NAN; g.num_nodes() * d]);
                    spmm_blocked_into(g, &x, &mut y, spec);
                    assert_eq!(bits(&y), bits(&want), "d={d} spec={spec:?}");
                }
            }
        }
    }

    #[test]
    fn narrow_widths_delegate_and_agree() {
        let g = normalized_adjacency(&generate::barabasi_albert(200, 3, 9), NormKind::Sym, true)
            .unwrap();
        for d in 1..=4usize {
            let x = DenseMatrix::gaussian(200, d, 1.0, d as u64);
            let want = spmm(&g, &x);
            let mut y = DenseMatrix::zeros(200, d);
            spmm_blocked_into(&g, &x, &mut y, BlockSpec { row_block: 16, col_block: 2 });
            assert_eq!(bits(&y), bits(&want), "d={d}");
        }
    }

    #[test]
    fn blocked_matches_after_rcm_relabel() {
        let g = normalized_adjacency(&generate::barabasi_albert(300, 4, 1), NormKind::Sym, true)
            .unwrap();
        let order = compute_order(&g, Reordering::Rcm);
        let (rg, _) = relabel(&g, &order);
        let x = DenseMatrix::gaussian(300, 32, 1.0, 5);
        let mut want = DenseMatrix::zeros(300, 32);
        spmm_into(&rg, &x, &mut want);
        let mut y = DenseMatrix::zeros(300, 32);
        spmm_blocked_into(&rg, &x, &mut y, BlockSpec { row_block: 48, col_block: 16 });
        assert_eq!(bits(&y), bits(&want));
    }

    #[test]
    fn blocked_handles_isolated_nodes() {
        // Node 3 has no edges; its rows must be zeroed in every window.
        let g = crate::GraphBuilder::new(5)
            .symmetric()
            .edges(&[(0, 1), (1, 2), (4, 0)])
            .build()
            .unwrap();
        let x = DenseMatrix::gaussian(5, 9, 1.0, 2);
        let want = spmm(&g, &x);
        let mut y = DenseMatrix::from_vec(5, 9, vec![f32::NAN; 45]);
        spmm_blocked_into(&g, &x, &mut y, BlockSpec { row_block: 2, col_block: 4 });
        assert_eq!(bits(&y), bits(&want));
    }

    #[test]
    fn auto_spec_is_sane() {
        let g = generate::barabasi_albert(1000, 8, 4);
        let spec = BlockSpec::auto(g.view(), 64);
        assert_eq!(spec.col_block, 64);
        assert!((32..=8192).contains(&spec.row_block), "{spec:?}");
        assert_eq!(BlockSpec::auto(g.view(), 7).col_block, 7);
    }
}
