//! Feature-oriented PPR push for the serving operator.
//!
//! The operator smoothed here is `S = Σ_{i≥0} α(1−α)^i P^i` with
//! `P = D⁻¹A` **row-stochastic** (mean over neighbors; a node with no
//! neighbors keeps its own value — the self-loop convention every PPR
//! kernel in this workspace uses for dangling nodes). Row `u` of `S·X`
//! is exactly `π_uᵀ X` where `π_u` is the PPR vector of `u`, which is
//! what [`sgnn_prop::forward_push`] computes — so the per-request fresh
//! path ([`fresh_row`]) and the precomputed store agree on the same
//! operator, and the serving differential tests can compare them.
//! [`fresh_row_into`] runs that push on a caller-owned
//! [`PushWorkspace`], so an on-demand row costs O(edges the push touches).
//!
//! Two kernels per feature column:
//!
//! - [`smooth_column_push`] (`rmax > 0`): SCARA-style signed push with a
//!   **uniform** residual threshold. The loop invariant is
//!   `S·x = p + S·r`; because `P` is row-stochastic, `‖S·r‖∞ ≤ ‖r‖∞`,
//!   so terminating with every `|r(u)| < rmax` gives the entrywise
//!   serving bound `|p(u) − (S·x)(u)| < rmax` — the contract DESIGN.md
//!   §12 documents and `tests/serving_equivalence.rs` pins.
//! - [`smooth_column_exact`] (`rmax = 0`): dense term iteration
//!   `p += α·t; t ← (1−α)·P·t` run until the term vector underflows
//!   below the smallest normal f64. The truncated tail is then
//!   `< 2.3e-308/α` per entry — invisible at f32 output precision, so
//!   this is the *exact* sequential reference the differential suite
//!   compares against bitwise.
//!
//! Both kernels are single-threaded per column with fixed traversal
//! order; [`smooth_matrix`] parallelizes over columns with
//! [`sgnn_linalg::par::par_map_chunks`], whose index-ordered merge makes
//! the parallel matrix bitwise-identical to [`smooth_matrix_seq`] at any
//! thread count (DESIGN.md §6 determinism discipline).

use sgnn_graph::{CsrGraph, NodeId};
use sgnn_linalg::par::par_map_chunks;
use sgnn_linalg::DenseMatrix;
use sgnn_prop::{PushStats, PushWorkspace};
use std::cell::RefCell;

/// Work statistics of one smoothing run (aggregated across columns for
/// the matrix builders).
#[derive(Debug, Clone, Default)]
pub struct ServePushStats {
    /// Push operations performed (exact-mode iterations count as one
    /// push per node per sweep).
    pub pushes: u64,
    /// Total edge traversals (Σ deg of pushed nodes).
    pub edge_touches: u64,
    /// Nonzeros across the produced embedding columns.
    pub nnz: u64,
}

impl ServePushStats {
    fn absorb(&mut self, other: &ServePushStats) {
        self.pushes += other.pushes;
        self.edge_touches += other.edge_touches;
        self.nnz += other.nnz;
    }
}

/// Smooths one feature column with the residual-threshold push.
///
/// Returns `(p, r, stats)`: the estimate, the final residual (every
/// entry strictly below `rmax` in magnitude), and work counters. The
/// estimate satisfies `|p(u) − (S·x)(u)| < rmax` for every node.
///
/// Termination: each push at `v` removes `deg(v)·|r(v)| ≥ α·rmax` from
/// the Lyapunov mass `Σ_u deg(u)·|r(u)|` (the `(1−α)` share scattered
/// to neighbors `u` re-enters with weight `deg(u)·1/deg(u)`), so the
/// queue drains in finitely many pushes.
pub fn smooth_column_push(
    g: &CsrGraph,
    x: &[f64],
    alpha: f64,
    rmax: f64,
) -> (Vec<f64>, Vec<f64>, ServePushStats) {
    let n = g.num_nodes();
    assert_eq!(x.len(), n, "column length must match node count");
    assert!(rmax > 0.0, "rmax must be positive; use smooth_column_exact for the exact operator");
    let mut p = vec![0f64; n];
    let mut r = x.to_vec();
    let mut stats = ServePushStats::default();
    // FIFO over nodes whose residual may exceed the threshold; seeded
    // with every node in id order, re-validated on pop. Single-threaded
    // fixed order ⇒ bit-deterministic.
    let mut queue: std::collections::VecDeque<NodeId> = (0..n as NodeId).collect();
    let mut in_queue = vec![true; n];
    while let Some(v) = queue.pop_front() {
        in_queue[v as usize] = false;
        let rv = r[v as usize];
        if rv.abs() < rmax {
            continue;
        }
        stats.pushes += 1;
        let deg = g.degree(v);
        if deg == 0 {
            // Dangling self-loop: the walk stays at v forever, so the
            // whole geometric series collapses onto p(v).
            p[v as usize] += rv;
            r[v as usize] = 0.0;
            continue;
        }
        stats.edge_touches += deg as u64;
        p[v as usize] += alpha * rv;
        r[v as usize] = 0.0;
        // Scatter: S·(rv·e_v) = α·rv·e_v + (1−α)·rv·S·(P·e_v), and
        // (P·e_v)(u) = 1/deg(u) for every neighbor u of v.
        let share = (1.0 - alpha) * rv;
        for &u in g.neighbors(v) {
            let du = g.degree(u).max(1) as f64;
            r[u as usize] += share / du;
            if !in_queue[u as usize] && r[u as usize].abs() >= rmax {
                in_queue[u as usize] = true;
                queue.push_back(u);
            }
        }
        // The scatter above may push v's own residual back over the
        // threshold (self-loops / multi-edges); re-validate it too.
        if !in_queue[v as usize] && r[v as usize].abs() >= rmax {
            in_queue[v as usize] = true;
            queue.push_back(v);
        }
    }
    stats.nnz = p.iter().filter(|&&v| v != 0.0).count() as u64;
    (p, r, stats)
}

/// Exact smoothing of one column: dense term iteration
/// `p += α·t; t ← (1−α)·P·t`, stopping once every term magnitude drops
/// below the smallest normal f64 (`f64::MIN_POSITIVE`). Since
/// `‖P·t‖∞ ≤ ‖t‖∞`, the term shrinks geometrically by `(1−α)` per
/// sweep, so the loop always terminates; the discarded tail is below
/// `f64::MIN_POSITIVE/α` per entry — far beneath f32 resolution, which
/// is what makes this the bitwise reference for `rmax = 0` serving.
pub fn smooth_column_exact(g: &CsrGraph, x: &[f64], alpha: f64) -> (Vec<f64>, ServePushStats) {
    let n = g.num_nodes();
    assert_eq!(x.len(), n, "column length must match node count");
    let mut p = vec![0f64; n];
    let mut t = x.to_vec();
    let mut next = vec![0f64; n];
    let mut stats = ServePushStats::default();
    while t.iter().any(|v| v.abs() >= f64::MIN_POSITIVE) {
        for u in 0..n {
            let tu = t[u];
            p[u] += alpha * tu;
            let deg = g.degree(u as NodeId);
            if deg == 0 {
                next[u] = (1.0 - alpha) * tu;
                continue;
            }
            let mut acc = 0f64;
            for &v in g.neighbors(u as NodeId) {
                acc += t[v as usize];
            }
            next[u] = (1.0 - alpha) * acc / deg as f64;
            stats.edge_touches += deg as u64;
        }
        stats.pushes += n as u64;
        std::mem::swap(&mut t, &mut next);
    }
    stats.nnz = p.iter().filter(|&&v| v != 0.0).count() as u64;
    (p, stats)
}

/// Dispatch: `rmax > 0` → thresholded push, `rmax ≤ 0` → exact kernel.
/// Returns `(p, stats)`; the push residual is dropped here (use
/// [`smooth_column_push`] directly to inspect it).
pub fn smooth_column(g: &CsrGraph, x: &[f64], alpha: f64, rmax: f64) -> (Vec<f64>, ServePushStats) {
    if rmax > 0.0 {
        let (p, _, stats) = smooth_column_push(g, x, alpha, rmax);
        (p, stats)
    } else {
        smooth_column_exact(g, x, alpha)
    }
}

/// Smooths every feature column, column-parallel on the worker pool.
///
/// `par_map_chunks` merges per-column results in index order, so the
/// output is bitwise-identical to [`smooth_matrix_seq`] at every thread
/// count; stats are summed in column order.
pub fn smooth_matrix(
    g: &CsrGraph,
    x: &DenseMatrix,
    alpha: f64,
    rmax: f64,
) -> (DenseMatrix, ServePushStats) {
    let n = x.rows();
    let d = x.cols();
    assert_eq!(n, g.num_nodes(), "feature rows must match node count");
    let cols: Vec<Vec<f64>> =
        (0..d).map(|c| (0..n).map(|r| x.get(r, c) as f64).collect()).collect();
    let results = par_map_chunks(d, |c| smooth_column(g, &cols[c], alpha, rmax));
    let mut out = DenseMatrix::zeros(n, d);
    let mut stats = ServePushStats::default();
    for (c, (p, s)) in results.iter().enumerate() {
        stats.absorb(s);
        for (r, &v) in p.iter().enumerate() {
            out.set(r, c, v as f32);
        }
    }
    (out, stats)
}

/// Sequential reference for [`smooth_matrix`]: same per-column kernel,
/// plain column loop.
pub fn smooth_matrix_seq(
    g: &CsrGraph,
    x: &DenseMatrix,
    alpha: f64,
    rmax: f64,
) -> (DenseMatrix, ServePushStats) {
    let n = x.rows();
    let d = x.cols();
    assert_eq!(n, g.num_nodes(), "feature rows must match node count");
    let mut out = DenseMatrix::zeros(n, d);
    let mut stats = ServePushStats::default();
    for c in 0..d {
        let col: Vec<f64> = (0..n).map(|r| x.get(r, c) as f64).collect();
        let (p, s) = smooth_column(g, &col, alpha, rmax);
        stats.absorb(&s);
        for (r, &v) in p.iter().enumerate() {
            out.set(r, c, v as f32);
        }
    }
    (out, stats)
}

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
    fn push_residuals_all_below_threshold() {
        let g = generate::barabasi_albert(200, 3, 5);
        let x: Vec<f64> = (0..200).map(|i| ((i * 37) % 13) as f64 - 6.0).collect();
        let (_, r, _) = smooth_column_push(&g, &x, 0.15, 1e-3);
        assert!(r.iter().all(|v| v.abs() < 1e-3));
    }

    #[test]
    fn push_approximates_exact_within_rmax() {
        let g = generate::erdos_renyi(150, 0.05, false, 2);
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.7).sin()).collect();
        let (exact, _) = smooth_column_exact(&g, &x, 0.2);
        for rmax in [1e-2, 1e-4] {
            let (p, _, _) = smooth_column_push(&g, &x, 0.2, rmax);
            for u in 0..150 {
                let err = (p[u] - exact[u]).abs();
                assert!(err < rmax, "node {u}: err {err} ≥ rmax {rmax}");
            }
        }
    }

    #[test]
    fn exact_kernel_preserves_indicator_mass() {
        // S is a convex combination of row-stochastic powers, so an
        // indicator column smooths to a distribution over nodes when
        // read along π_u — here we check the constant column is a fixed
        // point: P·1 = 1 ⇒ S·1 = 1.
        let g = generate::erdos_renyi(80, 0.08, false, 4);
        let ones = vec![1f64; 80];
        let (p, _) = smooth_column_exact(&g, &ones, 0.3);
        for (u, &v) in p.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-9, "node {u}: {v}");
        }
    }

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

    #[test]
    fn dangling_nodes_keep_their_feature() {
        // Node 2 is isolated: S acts as the identity on it.
        let mut b = sgnn_graph::GraphBuilder::new(3).symmetric();
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        let x = vec![0.5f64, -1.0, 2.0];
        let (exact, _) = smooth_column_exact(&g, &x, 0.15);
        assert!((exact[2] - 2.0).abs() < 1e-9);
        let (p, _, _) = smooth_column_push(&g, &x, 0.15, 1e-6);
        assert!((p[2] - 2.0).abs() < 1e-6);
    }
}
