//! Analytic invariants of the serving push kernels (DESIGN.md §12).
//!
//! Four families:
//!
//! - **Termination contract** — `smooth_column_push` returns with every
//!   residual strictly below `rmax`; the estimate is then within `rmax`
//!   of the exact operator entrywise (the bound the serving layer
//!   advertises).
//! - **Mass invariants** — the ACL forward push conserves probability
//!   mass (`Σp + Σr = 1`, so `Σp ≤ 1`, entrywise non-negative), and the
//!   power-iteration reference sums to 1; the exact feature kernel
//!   fixes the constant column (`S·1 = 1`).
//! - **Relabel equivariance** — the smoothing operator commutes with
//!   node relabeling (RCM / degree-sort round-trip): exact answers move
//!   with the permutation to f64 summation-order noise, and thresholded
//!   push answers stay within the `2·rmax` triangle bound even though
//!   the push *order* (and hence the exact bits) changes.
//! - **Workspace reuse** — one `PushWorkspace` reused across a random
//!   sequence of queries gives bitwise what a fresh workspace gives
//!   (`p`, `r`, `PushStats`), `fresh_row_into` equals the dense
//!   ascending-scan accumulation bitwise, and the workspace is all zero
//!   after every call.
//!
//! A source outside the graph gets an all-zero answer from every PPR
//! leaf (push, FORA, Monte Carlo) instead of an index panic.

use proptest::prelude::*;
use sgnn::graph::reorder::{compute_order, relabel, Reordering};
use sgnn::graph::{generate, CsrGraph, GraphBuilder, NodeId};
use sgnn::linalg::DenseMatrix;
use sgnn::prop::fora::fora_ppr;
use sgnn::prop::mc::ppr_monte_carlo;
use sgnn::prop::push::{forward_push_residuals, ppr_power};
use sgnn::prop::{forward_push, PushStats, PushWorkspace};
use sgnn::serve::{fresh_row_into, smooth_column_exact, smooth_column_push};

/// Permutes a feature column alongside `relabel`'s `old → new` map.
fn permute(x: &[f64], new_of_old: &[NodeId]) -> Vec<f64> {
    let mut out = vec![0f64; x.len()];
    for (old, &v) in x.iter().enumerate() {
        out[new_of_old[old] as usize] = v;
    }
    out
}

fn column(n: usize, seed: u64) -> Vec<f64> {
    // Signed, deterministic, O(1)-magnitude feature column.
    (0..n).map(|i| (((i as u64 * 2654435761 + seed) % 1000) as f64 / 500.0) - 1.0).collect()
}

fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The dense row formula `fresh_row` used before the sparse workspace:
/// scan all of `π_u` in ascending id order, skip zeros, accumulate
/// `π_u(v)·x_v` in f64. The workspace's sum over its sorted pushed list
/// must reproduce it bit for bit.
fn dense_scan_row(pi: &[f64], x: &DenseMatrix) -> Vec<f32> {
    let mut acc = vec![0f64; x.cols()];
    for (v, &w) in pi.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        let row = x.row(v);
        for (c, a) in acc.iter_mut().enumerate() {
            *a += w * row[c] as f64;
        }
    }
    acc.into_iter().map(|v| v as f32).collect()
}

/// Runs `(source, eps)` on the reused `ws` and checks it against a fresh
/// workspace and the dense row formula. Returns whether the reset took
/// the whole-clear path: by `PushWorkspace`'s reset rule, the push
/// touched more than `n/4` edges.
fn check_reused_query(
    ws: &mut PushWorkspace,
    g: &CsrGraph,
    x: &DenseMatrix,
    src: NodeId,
    eps: f64,
) -> Result<bool, String> {
    const ALPHA: f64 = 0.15;
    let (p_fresh, r_fresh) = forward_push_residuals(g, src, ALPHA, eps);
    let (_, stats_fresh) = forward_push(g, src, ALPHA, eps);
    {
        let mut push = ws.push(g, src, ALPHA, eps);
        if f64_bits(push.p()) != f64_bits(&p_fresh) || f64_bits(push.r()) != f64_bits(&r_fresh) {
            return Err(format!("reused p/r differ from a fresh workspace (src {src}, eps {eps})"));
        }
        if push.stats() != &stats_fresh {
            return Err(format!("stats {:?} != fresh {:?}", push.stats(), stats_fresh));
        }
        // The row sum's visiting order: every nonzero, ascending by id.
        let mut visited = Vec::new();
        push.for_each_nonzero(|v, w| visited.push((v, w.to_bits())));
        let dense: Vec<(NodeId, u64)> = (0..p_fresh.len() as NodeId)
            .filter(|&v| p_fresh[v as usize] != 0.0)
            .map(|v| (v, p_fresh[v as usize].to_bits()))
            .collect();
        if visited != dense {
            return Err(format!("nonzeros not visited in ascending id order (src {src})"));
        }
    }
    if !ws.is_clean() {
        return Err("workspace not zero after the push view dropped".into());
    }
    let mut row = vec![0f32; x.cols()];
    let stats = fresh_row_into(ws, g, x, src, ALPHA, eps, &mut row);
    if !ws.is_clean() {
        return Err("workspace not zero after fresh_row_into".into());
    }
    if stats != stats_fresh || f32_bits(&row) != f32_bits(&dense_scan_row(&p_fresh, x)) {
        return Err(format!("fresh_row_into differs from the dense scan (src {src}, eps {eps})"));
    }
    Ok(stats.edge_touches > (g.num_nodes() / 4) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every residual is strictly below `rmax` at termination, and the
    /// estimate honors the advertised entrywise bound against the exact
    /// kernel.
    #[test]
    fn residuals_below_rmax_at_termination(
        n in 50usize..400,
        m in 1usize..5,
        rmax_exp in 2u32..6,
        seed in 0u64..1000,
    ) {
        let g = generate::barabasi_albert(n, m, seed);
        let x = column(n, seed);
        let rmax = 10f64.powi(-(rmax_exp as i32));
        let (p, r, stats) = smooth_column_push(&g, &x, 0.15, rmax);
        prop_assert!(r.iter().all(|v| v.abs() < rmax), "residual at/above rmax after termination");
        prop_assert!(stats.pushes > 0);
        let (exact, _) = smooth_column_exact(&g, &x, 0.15);
        for u in 0..n {
            prop_assert!(
                (p[u] - exact[u]).abs() < rmax,
                "node {}: |p − S·x| = {:.3e} ≥ rmax", u, (p[u] - exact[u]).abs()
            );
        }
    }

    /// ACL forward push: `0 ≤ p`, `Σp ≤ 1`, and the deficit equals the
    /// residual mass left behind (conservation); the power-iteration
    /// reference distributes to total mass 1.
    #[test]
    fn ppr_mass_is_conserved_and_sums_bounded(
        n in 50usize..400,
        m in 1usize..5,
        src in 0usize..400,
        eps_exp in 3u32..6,
        seed in 0u64..1000,
    ) {
        let g = generate::barabasi_albert(n, m, seed);
        let src = (src % n) as NodeId;
        let eps = 10f64.powi(-(eps_exp as i32));
        let (p, stats) = forward_push(&g, src, 0.15, eps);
        prop_assert!(p.iter().all(|&v| v >= 0.0));
        let sum: f64 = p.iter().sum();
        prop_assert!(sum <= 1.0 + 1e-12, "Σp = {} > 1", sum);
        prop_assert!(stats.nnz > 0);
        // Exact column sum: power iteration to convergence.
        let pi = ppr_power(&g, src, 0.15, 1e-12, 10_000);
        let pi_sum: f64 = pi.iter().sum();
        prop_assert!((pi_sum - 1.0).abs() < 1e-9, "exact PPR mass {} ≠ 1", pi_sum);
        // Push underestimates entrywise within eps·deg (ACL guarantee).
        for u in 0..n {
            let gap = pi[u] - p[u];
            prop_assert!(
                gap >= -1e-9 && gap <= eps * g.degree(u as NodeId).max(1) as f64 + 1e-9,
                "node {}: π − p = {:.3e} outside [0, eps·deg]", u, gap
            );
        }
    }

    /// Relabel equivariance: smoothing then permuting equals permuting
    /// then smoothing — exactly (to f64 noise) for the exact kernel,
    /// within `2·rmax` for the thresholded push (each side is within
    /// `rmax` of its own exact answer, and the exact answers coincide).
    #[test]
    fn push_invariant_under_relabel_round_trip(
        n in 50usize..300,
        m in 1usize..5,
        rmax_exp in 3u32..6,
        rcm in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let g = generate::barabasi_albert(n, m, seed);
        let x = column(n, seed ^ 3);
        let strategy = if rcm { Reordering::Rcm } else { Reordering::DegreeSort };
        let perm = compute_order(&g, strategy);
        let (g2, new_of_old) = relabel(&g, &perm);
        let x2 = permute(&x, &new_of_old);

        let (exact, _) = smooth_column_exact(&g, &x, 0.15);
        let (exact2, _) = smooth_column_exact(&g2, &x2, 0.15);
        for u in 0..n {
            let diff = (exact2[new_of_old[u] as usize] - exact[u]).abs();
            prop_assert!(diff < 1e-9, "exact kernel moved under relabel: node {} diff {:.3e}", u, diff);
        }

        let rmax = 10f64.powi(-(rmax_exp as i32));
        let (p, _, _) = smooth_column_push(&g, &x, 0.15, rmax);
        let (p2, _, _) = smooth_column_push(&g2, &x2, 0.15, rmax);
        for u in 0..n {
            let diff = (p2[new_of_old[u] as usize] - p[u]).abs();
            prop_assert!(
                diff < 2.0 * rmax,
                "push broke the 2·rmax relabel bound: node {} diff {:.3e}", u, diff
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One workspace reused across a random query sequence on graphs
    /// with isolated and dangling nodes, self-loops and multi-edges (n = 1
    /// included)
    /// answers every query bitwise like a fresh workspace and the dense
    /// row formula, and is all zero after every call.
    #[test]
    fn reused_workspace_matches_fresh_pushes_bitwise(
        n in 1usize..64,
        edges in proptest::collection::vec((0u32..64, 0u32..64), 0..200),
        queries in proptest::collection::vec((0u32..64, 0usize..5), 1..16),
        directed in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let edges: Vec<(NodeId, NodeId)> =
            edges.into_iter().map(|(u, v)| (u % n as NodeId, v % n as NodeId)).collect();
        // Leave the top quarter of the id range without edges: isolated.
        let keep = n - n / 4;
        let edges: Vec<_> =
            edges.into_iter().filter(|&(u, v)| (u as usize) < keep && (v as usize) < keep).collect();
        // Directed graphs add dangling nodes that absorb their mass.
        let builder = if directed { GraphBuilder::new(n) } else { GraphBuilder::new(n).symmetric() };
        let g = builder.edges(&edges).build().unwrap();
        let x = DenseMatrix::gaussian(n, 3, 1.0, seed);
        let mut ws = PushWorkspace::new(n);
        for (src, e) in queries {
            let eps = [0.3, 1e-2, 1e-4, 1e-7, 1e-12][e];
            let checked = check_reused_query(&mut ws, &g, &x, src % n as NodeId, eps);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}

/// The query mix below takes both reset paths (adjacency walk and whole
/// clear) on a reused workspace, each bitwise-checked.
#[test]
fn workspace_covers_both_reset_paths() {
    let star = generate::star(4096);
    let ba = generate::barabasi_albert(4096, 3, 5);
    // Directed fan: node 0 points at 1000 sinks, which absorb their mass.
    let fan_edges: Vec<(NodeId, NodeId)> = (1..=1000).map(|v| (0, v)).collect();
    let fan = GraphBuilder::new(4096).edges(&fan_edges).build().unwrap();
    let mut seen = Vec::new();
    for (g, src, eps) in [
        (&ba, 4000, 1e-2),  // few pushes, few touches
        (&star, 0, 2.2e-4), // one push touching every leaf
        (&ba, 0, 1e-9),     // pushes most of the graph
        (&fan, 0, 1e-6),    // many pushes, few edges: the sinks have none
    ] {
        let x = DenseMatrix::gaussian(g.num_nodes(), 4, 1.0, 3);
        let mut ws = PushWorkspace::new(g.num_nodes());
        // Dirty the workspace first so every query runs on a reused one.
        check_reused_query(&mut ws, g, &x, 1, 1e-3).unwrap();
        seen.push(check_reused_query(&mut ws, g, &x, src, eps).unwrap());
    }
    for whole_clear in [true, false] {
        assert!(seen.contains(&whole_clear), "no query took whole_clear={whole_clear}: {seen:?}");
    }
}

/// A relabel round-trip (permute, then permute back with the inverse)
/// restores the original graph's push answers *bitwise* — the CSR the
/// builder produces is canonical (sorted adjacency), so the round-trip
/// graph is the original graph.
#[test]
fn relabel_round_trip_is_bitwise() {
    let g = generate::barabasi_albert(180, 3, 21);
    let x = column(180, 9);
    let perm = compute_order(&g, Reordering::Rcm);
    let (g2, new_of_old) = relabel(&g, &perm);
    // Inverse permutation: g2's node `new_of_old[old]` must become
    // `old` again, so position `old` of the order holds that g2 id.
    let inverse: Vec<NodeId> = (0..180u32).map(|old| new_of_old[old as usize]).collect();
    let (g3, back_map) = relabel(&g2, &inverse);
    assert_eq!(g3.num_nodes(), g.num_nodes());
    let (p, r, _) = smooth_column_push(&g, &x, 0.15, 1e-4);
    let (p3, r3, _) = smooth_column_push(&g3, &x, 0.15, 1e-4);
    assert_eq!(
        p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        p3.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "round-trip graph must reproduce push estimates bitwise"
    );
    assert_eq!(
        r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        r3.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    // The double relabel composes to the identity.
    for old in 0..180usize {
        assert_eq!(back_map[new_of_old[old] as usize] as usize, old);
    }
}

/// Every PPR leaf answers a source outside the graph with the all-zero
/// vector (and the push with zero work) — the same answer the serving
/// engine gives a bad id at its `Shed` tier.
#[test]
fn ppr_leaves_answer_zero_for_a_source_outside_the_graph() {
    type Leaf = fn(&CsrGraph, NodeId) -> Vec<f64>;
    let leaves: [(&str, Leaf); 3] = [
        ("forward_push", |g, s| {
            let (p, stats) = forward_push(g, s, 0.15, 1e-4);
            assert_eq!(stats, PushStats::default(), "forward_push did work for source {s}");
            p
        }),
        ("fora_ppr", |g, s| fora_ppr(g, s, 0.15, 1e-4, 100.0, 1)),
        ("ppr_monte_carlo", |g, s| ppr_monte_carlo(g, s, 0.15, 100, 1)),
    ];
    let empty = GraphBuilder::new(0).build().unwrap();
    let path = GraphBuilder::new(5).edges(&[(0, 1), (1, 2), (2, 3), (3, 4)]).build().unwrap();
    for (g, source) in [(&empty, 0), (&path, 5)] {
        for (name, leaf) in leaves {
            let p = leaf(g, source);
            assert_eq!(p.len(), g.num_nodes(), "{name}, n = {}", g.num_nodes());
            assert!(p.iter().all(|&v| v == 0.0), "{name}: nonzero mass for source {source}");
        }
    }
}
