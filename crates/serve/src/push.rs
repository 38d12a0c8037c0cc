//! Per-node rows of the serving operator.
//!
//! The operator is `S = Σ_{i≥0} α(1−α)^i P^i` with `P = D⁻¹A`
//! row-stochastic — the one smoothing operator of the workspace, whose
//! column kernels ([`smooth_matrix`], [`smooth_column_push`],
//! [`smooth_column_exact`]) live in [`sgnn_prop::push`] and are
//! re-exported here. Decoupled training (`PrecomputeMethod::Scara`) and
//! the `Full` store build `S·X` with the same [`smooth_matrix`], so a
//! trained head is served the rows it was trained on.
//!
//! Row `u` of `S·X` is exactly `π_uᵀ X` where `π_u` is the PPR vector
//! of `u`, which is what [`sgnn_prop::forward_push`] computes — so the
//! per-request fresh path ([`fresh_row`]) and the precomputed store agree
//! on the same operator, and the serving differential tests can compare
//! them. [`fresh_row_into`] runs that push on a caller-owned
//! [`PushWorkspace`], so an on-demand row costs O(edges the push touches).

use sgnn_graph::{CsrGraph, NodeId};
use sgnn_linalg::DenseMatrix;
use sgnn_prop::{PushStats, PushWorkspace};
use std::cell::RefCell;

pub use sgnn_prop::push::{
    smooth_column, smooth_column_exact, smooth_column_push, smooth_matrix, smooth_matrix_seq,
};

/// On-demand embedding row for one node: `π_uᵀ X` with `π_u` from the
/// Andersen–Chung–Lang forward push at tolerance `eps` — row `u` of the
/// same operator `S·X` the precompute builds, up to the push tolerance.
/// The planner's `FullProp` strategy calls this with a tight `eps`,
/// `Sampled` with a coarse one; both accumulate the sparse dot in f64
/// over ascending node ids, so the row bits are a pure function of
/// `(graph, features, u, alpha, eps)`.
///
/// Runs on a workspace kept per thread across calls, so a call costs
/// O(edges touched) after the first on a graph of that size. Callers that
/// own a [`PushWorkspace`] use [`fresh_row_into`].
pub fn fresh_row(g: &CsrGraph, x: &DenseMatrix, u: NodeId, alpha: f64, eps: f64) -> Vec<f32> {
    thread_local! {
        static SCRATCH: RefCell<PushWorkspace> = RefCell::new(PushWorkspace::new(0));
    }
    let mut row = vec![0f32; x.cols()];
    SCRATCH.with_borrow_mut(|ws| {
        if ws.num_nodes() != g.num_nodes() {
            *ws = PushWorkspace::new(g.num_nodes());
        }
        fresh_row_into(ws, g, x, u, alpha, eps, &mut row);
    });
    row
}

/// [`fresh_row`] through a caller-owned workspace, written into `out`
/// (length `x.cols()`). Returns the push's work counters. The sum runs
/// over the pushed nodes in ascending id order, exactly the terms and
/// order of a dense scan of `π_u`, so the bits do not depend on which
/// workspace ran the push or what it ran before.
pub fn fresh_row_into(
    ws: &mut PushWorkspace,
    g: &CsrGraph,
    x: &DenseMatrix,
    u: NodeId,
    alpha: f64,
    eps: f64,
    out: &mut [f32],
) -> PushStats {
    assert_eq!(out.len(), x.cols(), "output row must match the feature width");
    let mut acc = vec![0f64; x.cols()];
    let mut push = ws.push(g, u, alpha, eps);
    push.for_each_nonzero(|v, w| {
        for (a, &xv) in acc.iter_mut().zip(x.row(v as usize)) {
            *a += w * xv as f64;
        }
    });
    for (o, &a) in out.iter_mut().zip(&acc) {
        *o = a as f32;
    }
    push.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_graph::generate;

    #[test]
    fn fresh_row_matches_exact_row() {
        let g = generate::erdos_renyi(120, 0.06, false, 9);
        let x = DenseMatrix::gaussian(120, 4, 1.0, 3);
        let (exact, _) = smooth_matrix_seq(&g, &x, 0.15, 0.0);
        for u in [0u32, 7, 63, 119] {
            let row = fresh_row(&g, &x, u, 0.15, 1e-9);
            for (c, &v) in row.iter().enumerate() {
                let err = (v - exact.get(u as usize, c)).abs();
                assert!(err < 1e-4, "node {u} col {c}: {err}");
            }
        }
    }
}
