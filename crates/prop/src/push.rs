//! Local push algorithms for personalized PageRank.
//!
//! [`forward_push`] is the Andersen–Chung–Lang forward local push: it
//! computes an approximate PPR vector touching only the nodes it needs,
//! with the classic per-node guarantee `π(v) − p(v) ∈ [0, ε·deg(v))`. This
//! is the primitive APPNP's scalable descendants (PPRGo, SCARA, NIGCN)
//! build on, and the reason decoupled propagation is *sublinear* for sparse
//! queries — the survey's §3.2.2 "querying node-level information on
//! demand instead of the full-graph manner".
//!
//! [`PushWorkspace`] is the one implementation of that push. It is a
//! caller-owned scratch that stays allocated across calls, so a query
//! costs O(edges it touches) on a graph of any size; the dense
//! entry points [`forward_push`] and [`forward_push_residuals`] run it on
//! a fresh workspace and hand its vectors out.
//!
//! The column kernels smooth whole feature columns with the operator
//! `S = Σ_{i≥0} α(1−α)^i P^i`, `P = D⁻¹A` **row-stochastic** (mean over
//! neighbors; a node with no neighbors keeps its own value — the
//! self-loop convention every PPR kernel here uses for dangling nodes).
//! Row `u` of `S·X` is `π_uᵀ X` with `π_u` the PPR vector
//! [`forward_push`] estimates, so a decoupled model trained on `S·X` and
//! served per-node rows of it sees one operator. Two kernels per column:
//!
//! - [`smooth_column_push`] (`rmax > 0`): SCARA-style signed push with a
//!   **uniform** residual threshold, proved entrywise bound
//!   `|p(u) − (S·x)(u)| < rmax`;
//! - [`smooth_column_exact`] (`rmax = 0`): dense term iteration run until
//!   the term vector underflows — the bitwise reference.
//!
//! Both are single-threaded per column with fixed traversal order;
//! [`smooth_matrix`] parallelizes over columns with
//! [`sgnn_linalg::par::par_map_chunks`], whose index-ordered merge makes
//! the parallel matrix bitwise-identical to [`smooth_matrix_seq`] at any
//! thread count (DESIGN.md §6).

use sgnn_graph::{CsrGraph, NodeId};
use sgnn_linalg::par::par_map_chunks;
use sgnn_linalg::DenseMatrix;
use std::collections::VecDeque;
use std::ops::AddAssign;

/// Statistics of one push run (work measures for the experiments);
/// `+=` sums the runs of several columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PushStats {
    /// Number of push operations performed.
    pub pushes: u64,
    /// Total edge traversals (Σ deg of pushed nodes).
    pub edge_touches: u64,
    /// Nonzeros in the returned estimate vector(s).
    pub nnz: usize,
}

impl AddAssign<&PushStats> for PushStats {
    fn add_assign(&mut self, other: &PushStats) {
        self.pushes += other.pushes;
        self.edge_touches += other.edge_touches;
        self.nnz += other.nnz;
    }
}

/// Forward local push from `source` on an **unweighted, out-degree
/// normalized** interpretation of `g`.
///
/// Returns `(p, stats)` where `p` is the dense estimate vector. The
/// invariant maintained is `π = p + Σ_u r(u)·π_u` with all residuals below
/// `eps·deg(u)` on exit, giving `0 ≤ π(v) − p(v) ≤ eps·deg(v)` plus the
/// degree-0 corner handled by self-absorption. A `source` outside the
/// graph (`source ≥ n`) gets the all-zero vector and zero stats.
///
/// # Example
///
/// ```
/// use sgnn_graph::generate;
/// use sgnn_prop::forward_push;
///
/// let g = generate::barabasi_albert(10_000, 3, 7);
/// let (ppr, stats) = forward_push(&g, 42, 0.15, 1e-4);
/// // Mass concentrates at/near the source…
/// assert!(ppr[42] >= 0.15);
/// // …and a coarse-tolerance query touches only a fraction of the graph.
/// assert!(stats.nnz < 2_000);
/// ```
pub fn forward_push(g: &CsrGraph, source: NodeId, alpha: f64, eps: f64) -> (Vec<f64>, PushStats) {
    let mut ws = PushWorkspace::new(g.num_nodes());
    let stats = ws.run(g, source, alpha, eps);
    (ws.p, stats)
}

/// Like [`forward_push`] but also returns the final residual vector —
/// the leftover mass FORA-style hybrids refine with random walks.
pub fn forward_push_residuals(
    g: &CsrGraph,
    source: NodeId,
    alpha: f64,
    eps: f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut ws = PushWorkspace::new(g.num_nodes());
    ws.run(g, source, alpha, eps);
    (ws.p, ws.r)
}

/// Node is in the FIFO.
const QUEUED: u8 = 1;
/// Node is on the pushed list (its `p` may be nonzero).
const PUSHED: u8 = 2;

/// Reusable scratch for the forward push on graphs of `n` nodes.
///
/// Holds dense `p` and `r` (f64), one state byte per node (queued and
/// pushed bits), the list of pushed nodes and the FIFO — about 17 bytes
/// per node. Between queries every array is zero and both lists are
/// empty. [`PushWorkspace::push`] runs one query and returns a [`Push`]
/// view; dropping the view restores the zero state.
///
/// The reset needs no per-edge bookkeeping during the push: `p` and the
/// pushed bit are nonzero only on pushed nodes, the queued bits are all
/// clear once the FIFO drains, and `r` is nonzero only on the source and
/// the neighbors of pushed nodes. So the reset walks the pushed nodes'
/// adjacency — the edges the push already touched — or, once the push
/// touched more than `n/4` edges, clears the arrays whole (a sequential
/// fill beats that many scattered writes; DESIGN.md §12 has the
/// timings). Either way a query costs
/// O(edges touched), not O(n). The run itself is the ACL loop in FIFO
/// order, so `p`, `r` and [`PushStats`] are bitwise what a fresh
/// workspace gives.
#[derive(Debug, Clone)]
pub struct PushWorkspace {
    p: Vec<f64>,
    r: Vec<f64>,
    state: Vec<u8>,
    pushed: Vec<NodeId>,
    queue: VecDeque<NodeId>,
}

impl PushWorkspace {
    /// A clean workspace for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        PushWorkspace {
            p: vec![0.0; n],
            r: vec![0.0; n],
            state: vec![0; n],
            pushed: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Node count this workspace is sized for.
    pub fn num_nodes(&self) -> usize {
        self.p.len()
    }

    /// Runs the forward push from `source` (same contract as
    /// [`forward_push`]) and returns a view of the result. The workspace
    /// is clean again once the view is dropped.
    pub fn push<'a>(
        &'a mut self,
        g: &'a CsrGraph,
        source: NodeId,
        alpha: f64,
        eps: f64,
    ) -> Push<'a> {
        let stats = self.run(g, source, alpha, eps);
        Push { ws: self, g, source, stats }
    }

    /// True when every array is zero and both lists are empty — the
    /// state between queries. O(n); meant for tests.
    pub fn is_clean(&self) -> bool {
        self.pushed.is_empty()
            && self.queue.is_empty()
            && self.p.iter().all(|&v| v.to_bits() == 0)
            && self.r.iter().all(|&v| v.to_bits() == 0)
            && self.state.iter().all(|&s| s == 0)
    }

    /// The push loop, leaving its result in place for the caller. A
    /// source outside the graph pushes nothing.
    fn run(&mut self, g: &CsrGraph, source: NodeId, alpha: f64, eps: f64) -> PushStats {
        assert_eq!(g.num_nodes(), self.p.len(), "workspace sized for another graph");
        let PushWorkspace { p, r, state, pushed, queue } = self;
        let mut stats = PushStats::default();
        if source as usize >= p.len() {
            return stats;
        }
        r[source as usize] = 1.0;
        // Work queue of nodes whose residual exceeds threshold. The queued
        // bit guards duplicates; the threshold is re-validated on pop.
        state[source as usize] = QUEUED;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let ui = u as usize;
            state[ui] &= !QUEUED;
            let deg = g.degree(u);
            let ru = r[ui];
            if deg != 0 && ru < eps * deg as f64 {
                continue;
            }
            stats.pushes += 1;
            if state[ui] & PUSHED == 0 {
                state[ui] |= PUSHED;
                pushed.push(u);
            }
            if deg == 0 {
                // Dangling node: absorb all residual mass into p (walk stays).
                p[ui] += ru;
                r[ui] = 0.0;
                continue;
            }
            stats.edge_touches += deg as u64;
            p[ui] += alpha * ru;
            let share = (1.0 - alpha) * ru / deg as f64;
            r[ui] = 0.0;
            for &v in g.neighbors(u) {
                let vi = v as usize;
                r[vi] += share;
                // The degree is read only for a node not already queued.
                if state[vi] & QUEUED == 0 && r[vi] >= eps * g.degree(v).max(1) as f64 {
                    state[vi] |= QUEUED;
                    queue.push_back(v);
                }
            }
        }
        // Only a push writes p, so the pushed list covers every nonzero.
        stats.nnz = pushed.iter().filter(|&&v| p[v as usize] > 0.0).count();
        stats
    }

    /// Restores the zero state after a run from `source` on `g`.
    fn reset(&mut self, g: &CsrGraph, source: NodeId, edge_touches: u64) {
        if edge_touches > (self.p.len() / 4) as u64 {
            self.p.fill(0.0);
            self.r.fill(0.0);
            self.state.fill(0);
        } else {
            if let Some(rs) = self.r.get_mut(source as usize) {
                *rs = 0.0;
            }
            for &u in &self.pushed {
                self.p[u as usize] = 0.0;
                self.state[u as usize] = 0;
                for &v in g.neighbors(u) {
                    self.r[v as usize] = 0.0;
                }
            }
        }
        self.pushed.clear();
    }
}

/// One push result borrowed from a [`PushWorkspace`]; dropping it resets
/// the workspace.
#[derive(Debug)]
pub struct Push<'a> {
    ws: &'a mut PushWorkspace,
    g: &'a CsrGraph,
    source: NodeId,
    stats: PushStats,
}

impl Push<'_> {
    /// Work counters of the run.
    pub fn stats(&self) -> &PushStats {
        &self.stats
    }

    /// Dense estimate vector (length n).
    pub fn p(&self) -> &[f64] {
        &self.ws.p
    }

    /// Dense residual vector (length n).
    pub fn r(&self) -> &[f64] {
        &self.ws.r
    }

    /// Calls `f(v, p(v))` for every node with `p(v) ≠ 0`, in ascending id
    /// order — the order a dense scan of `p` visits them, so sums built
    /// here are bitwise a dense scan's sums. The order comes from sorting
    /// the pushed list, which holds every such node.
    pub fn for_each_nonzero(&mut self, mut f: impl FnMut(NodeId, f64)) {
        let ws = &mut *self.ws;
        ws.pushed.sort_unstable();
        for &v in &ws.pushed {
            let w = ws.p[v as usize];
            if w != 0.0 {
                f(v, w);
            }
        }
    }
}

impl Drop for Push<'_> {
    fn drop(&mut self) {
        self.ws.reset(self.g, self.source, self.stats.edge_touches);
    }
}

/// Exact (to `tol`) PPR by power iteration — the ground-truth baseline the
/// push methods are validated against. Row-stochastic walk on `g` with
/// restart probability `alpha`.
pub fn ppr_power(g: &CsrGraph, source: NodeId, alpha: f64, tol: f64, max_iter: usize) -> Vec<f64> {
    let n = g.num_nodes();
    let mut pi = vec![0f64; n];
    pi[source as usize] = 1.0;
    let mut next = vec![0f64; n];
    for _ in 0..max_iter {
        next.iter_mut().for_each(|v| *v = 0.0);
        next[source as usize] = alpha;
        for u in 0..n {
            let mass = pi[u];
            if mass == 0.0 {
                continue;
            }
            let deg = g.degree(u as NodeId);
            if deg == 0 {
                // Dangling: walk restarts... we keep mass at u (absorbing),
                // matching forward_push's self-absorption convention.
                next[u] += (1.0 - alpha) * mass;
                continue;
            }
            let share = (1.0 - alpha) * mass / deg as f64;
            for &v in g.neighbors(u as NodeId) {
                next[v as usize] += share;
            }
        }
        let delta: f64 = pi.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if delta < tol {
            break;
        }
    }
    pi
}

/// Smooths one feature column with the SCARA-style signed push.
///
/// Returns `(p, r, stats)`: the estimate, the final residual (every
/// entry strictly below `rmax` in magnitude), and work counters. The
/// estimate satisfies `|p(u) − (S·x)(u)| < rmax` for every node: the
/// loop keeps `S·x = p + S·r`, and `‖S·r‖∞ ≤ ‖r‖∞` because `P` is
/// row-stochastic.
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
) -> (Vec<f64>, Vec<f64>, PushStats) {
    let n = g.num_nodes();
    assert_eq!(x.len(), n, "column length must match node count");
    assert!(rmax > 0.0, "rmax must be positive; use smooth_column_exact for the exact operator");
    let mut p = vec![0f64; n];
    let mut r = x.to_vec();
    let mut stats = PushStats::default();
    // FIFO over nodes whose residual may exceed the threshold; seeded
    // with every node in id order, re-validated on pop. Single-threaded
    // fixed order ⇒ bit-deterministic.
    let mut queue: VecDeque<NodeId> = (0..n as NodeId).collect();
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
    stats.nnz = p.iter().filter(|&&v| v != 0.0).count();
    (p, r, stats)
}

/// Exact smoothing of one column: dense term iteration
/// `p += α·t; t ← (1−α)·P·t`, stopping once every term magnitude drops
/// below the smallest normal f64 (`f64::MIN_POSITIVE`). Since
/// `‖P·t‖∞ ≤ ‖t‖∞`, the term shrinks geometrically by `(1−α)` per
/// sweep, so the loop always terminates; the discarded tail is below
/// `f64::MIN_POSITIVE/α` per entry — far beneath f32 resolution, which
/// is what makes this the bitwise reference for `rmax = 0`. Each sweep
/// counts as one push per node.
pub fn smooth_column_exact(g: &CsrGraph, x: &[f64], alpha: f64) -> (Vec<f64>, PushStats) {
    let n = g.num_nodes();
    assert_eq!(x.len(), n, "column length must match node count");
    let mut p = vec![0f64; n];
    let mut t = x.to_vec();
    let mut next = vec![0f64; n];
    let mut stats = PushStats::default();
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
    stats.nnz = p.iter().filter(|&&v| v != 0.0).count();
    (p, stats)
}

/// Dispatch: `rmax > 0` → thresholded push, `rmax ≤ 0` → exact kernel.
/// Returns `(p, stats)`; the push residual is dropped here (use
/// [`smooth_column_push`] directly to inspect it).
pub fn smooth_column(g: &CsrGraph, x: &[f64], alpha: f64, rmax: f64) -> (Vec<f64>, PushStats) {
    if rmax > 0.0 {
        let (p, _, stats) = smooth_column_push(g, x, alpha, rmax);
        (p, stats)
    } else {
        smooth_column_exact(g, x, alpha)
    }
}

/// Smooths every feature column of `x` into the `n × d` matrix `S·X`,
/// column-parallel on the worker pool — SCARA's feature-oriented layout.
///
/// `par_map_chunks` merges per-column results in index order, so the
/// output is bitwise-identical to [`smooth_matrix_seq`] at every thread
/// count; stats are summed in column order.
pub fn smooth_matrix(
    g: &CsrGraph,
    x: &DenseMatrix,
    alpha: f64,
    rmax: f64,
) -> (DenseMatrix, PushStats) {
    let n = x.rows();
    let d = x.cols();
    assert_eq!(n, g.num_nodes(), "feature rows must match node count");
    let cols: Vec<Vec<f64>> =
        (0..d).map(|c| (0..n).map(|r| x.get(r, c) as f64).collect()).collect();
    let results = par_map_chunks(d, |c| smooth_column(g, &cols[c], alpha, rmax));
    let mut out = DenseMatrix::zeros(n, d);
    let mut stats = PushStats::default();
    for (c, (p, s)) in results.iter().enumerate() {
        stats += s;
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
) -> (DenseMatrix, PushStats) {
    let n = x.rows();
    let d = x.cols();
    assert_eq!(n, g.num_nodes(), "feature rows must match node count");
    let mut out = DenseMatrix::zeros(n, d);
    let mut stats = PushStats::default();
    for c in 0..d {
        let col: Vec<f64> = (0..n).map(|r| x.get(r, c) as f64).collect();
        let (p, s) = smooth_column(g, &col, alpha, rmax);
        stats += &s;
        for (r, &v) in p.iter().enumerate() {
            out.set(r, c, v as f32);
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_graph::generate;

    #[test]
    fn push_ppr_is_a_distribution() {
        let g = generate::erdos_renyi(200, 0.04, false, 1);
        let (p, _) = forward_push(&g, 0, 0.15, 1e-7);
        let mass: f64 = p.iter().sum();
        assert!(mass > 0.99 && mass <= 1.0 + 1e-9, "mass {mass}");
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn push_matches_power_iteration_within_bound() {
        let g = generate::barabasi_albert(300, 3, 7);
        let alpha = 0.2;
        let eps = 1e-6;
        let exact = ppr_power(&g, 5, alpha, 1e-12, 2000);
        let (approx, _) = forward_push(&g, 5, alpha, eps);
        for v in 0..300usize {
            let err = exact[v] - approx[v];
            assert!(err >= -1e-9, "push overestimates at {v}: {err}");
            let bound = eps * g.degree(v as NodeId).max(1) as f64 + 1e-9;
            assert!(err <= bound, "node {v}: err {err} > bound {bound}");
        }
    }

    #[test]
    fn smaller_eps_means_more_work_and_less_error() {
        let g = generate::barabasi_albert(400, 3, 9);
        let exact = ppr_power(&g, 0, 0.15, 1e-12, 2000);
        let l1 =
            |p: &[f64]| -> f64 { exact.iter().zip(p.iter()).map(|(a, b)| (a - b).abs()).sum() };
        let (p1, s1) = forward_push(&g, 0, 0.15, 1e-4);
        let (p2, s2) = forward_push(&g, 0, 0.15, 1e-6);
        assert!(s2.pushes > s1.pushes);
        assert!(l1(&p2) < l1(&p1));
    }

    #[test]
    fn push_handles_dangling_nodes() {
        // Directed edge into a sink: 0 -> 1, 1 has no out-edges.
        let g = sgnn_graph::GraphBuilder::new(2).edges(&[(0, 1)]).build().unwrap();
        let (p, _) = forward_push(&g, 0, 0.5, 1e-9);
        let mass: f64 = p.iter().sum();
        assert!((mass - 1.0).abs() < 1e-6, "mass {mass}");
        assert!(p[1] > 0.0);
    }

    #[test]
    fn push_locality_touches_few_nodes_on_large_graph() {
        // On a big sparse graph a coarse-eps push must not touch everything.
        let g = generate::barabasi_albert(20_000, 3, 3);
        let (p, stats) = forward_push(&g, 42, 0.2, 1e-4);
        assert!(stats.nnz < 2_000, "push touched {} nodes", stats.nnz);
        assert!(p[42] > 0.1);
    }

    #[test]
    fn column_push_is_linear_in_input() {
        let g = generate::erdos_renyi(100, 0.06, false, 5);
        let mut rng = sgnn_linalg::rng::seeded(8);
        let mut a = vec![0f32; 100];
        let mut b = vec![0f32; 100];
        sgnn_linalg::rng::fill_gaussian(&mut rng, &mut a, 0.0, 1.0);
        sgnn_linalg::rng::fill_gaussian(&mut rng, &mut b, 0.0, 1.0);
        let a: Vec<f64> = a.iter().map(|&v| v as f64).collect();
        let b: Vec<f64> = b.iter().map(|&v| v as f64).collect();
        let sum: Vec<f64> = a.iter().zip(b.iter()).map(|(x, y)| x + y).collect();
        // Each estimate is within rmax of the linear S·x, so the three
        // differ from linearity by under 3·rmax.
        let rmax = 1e-9;
        let (pa, _, _) = smooth_column_push(&g, &a, 0.2, rmax);
        let (pb, _, _) = smooth_column_push(&g, &b, 0.2, rmax);
        let (ps, _, _) = smooth_column_push(&g, &sum, 0.2, rmax);
        for v in 0..100 {
            assert!((pa[v] + pb[v] - ps[v]).abs() < 3.0 * rmax, "node {v}");
        }
    }

    #[test]
    fn column_push_residuals_all_below_threshold() {
        let g = generate::barabasi_albert(200, 3, 5);
        let x: Vec<f64> = (0..200).map(|i| ((i * 37) % 13) as f64 - 6.0).collect();
        let (_, r, _) = smooth_column_push(&g, &x, 0.15, 1e-3);
        assert!(r.iter().all(|v| v.abs() < 1e-3));
    }

    #[test]
    fn column_push_approximates_exact_within_rmax() {
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
    fn exact_kernel_fixes_the_constant_column() {
        // S is a convex combination of row-stochastic powers: P·1 = 1 ⇒
        // S·1 = 1.
        let g = generate::erdos_renyi(80, 0.08, false, 4);
        let ones = vec![1f64; 80];
        let (p, _) = smooth_column_exact(&g, &ones, 0.3);
        for (u, &v) in p.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-9, "node {u}: {v}");
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
