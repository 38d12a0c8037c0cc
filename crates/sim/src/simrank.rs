//! SimRank: "two objects are similar if they are referenced by similar
//! objects".
//!
//! `s(u,v) = (C/(|N(u)||N(v)|)) · Σ_{a∈N(u)} Σ_{b∈N(v)} s(a,b)`, `s(u,u)=1`.
//!
//! Three regimes:
//! - [`simrank_matrix`] — full iterative computation, `O(n²·d̄²)` per
//!   iteration; the exact reference for graphs up to a few thousand nodes.
//! - [`simrank_mc`] — Monte-Carlo estimate of a single pair via meeting
//!   random walks (`s(u,v) = E[C^τ]`, τ = first meeting time of two
//!   coupled reverse walks); scales to arbitrary graphs for on-demand
//!   queries, the access pattern §3.2.2 highlights.
//! - [`topk_similarity_graph`] — SIMGA's precompute: keep each node's top-k
//!   most SimRank-similar peers as a weighted *global aggregation graph*.

use rand::RngExt;
use sgnn_graph::{CsrGraph, GraphBuilder, NodeId};

/// Dense symmetric SimRank scores (row-major `n×n`). Iterates until the
/// max entry change falls below `tol` or `max_iter` sweeps.
///
/// Intended for `n ≤ ~3000`; memory is `n²` f64s. A graph with no nodes
/// yields an empty matrix.
pub fn simrank_matrix(g: &CsrGraph, c: f64, tol: f64, max_iter: usize) -> Vec<f64> {
    assert!((0.0..1.0).contains(&c), "decay must be in [0,1)");
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut s = vec![0f64; n * n];
    let mut next = vec![0f64; n * n];
    for u in 0..n {
        s[u * n + u] = 1.0;
    }
    for _ in 0..max_iter {
        let mut delta = 0f64;
        // next(u,v) = c/(du dv) Σ_{a∈N(u), b∈N(v)} s(a,b); diag = 1.
        {
            let s_ref = &s;
            let next_cells = &mut next;
            sgnn_linalg::par::par_rows_mut(next_cells, n, 8, |first_row, chunk| {
                for (local, row) in chunk.chunks_mut(n).enumerate() {
                    let u = first_row + local;
                    let nu = g.neighbors(u as NodeId);
                    for (v, cell) in row.iter_mut().enumerate() {
                        if v == u {
                            *cell = 1.0;
                            continue;
                        }
                        let nv = g.neighbors(v as NodeId);
                        if nu.is_empty() || nv.is_empty() {
                            *cell = 0.0;
                            continue;
                        }
                        let mut acc = 0f64;
                        for &a in nu {
                            let arow = &s_ref[(a as usize) * n..(a as usize + 1) * n];
                            for &b in nv {
                                acc += arow[b as usize];
                            }
                        }
                        *cell = c * acc / (nu.len() * nv.len()) as f64;
                    }
                }
            });
        }
        for (a, b) in s.iter().zip(next.iter()) {
            delta = delta.max((a - b).abs());
        }
        std::mem::swap(&mut s, &mut next);
        if delta < tol {
            break;
        }
    }
    s
}

/// Monte-Carlo single-pair SimRank: runs `walks` coupled `steps`-step
/// random walks from `u` and `v`; each pair that first meets at step `t`
/// contributes `C^t`.
pub fn simrank_mc(
    g: &CsrGraph,
    u: NodeId,
    v: NodeId,
    c: f64,
    walks: usize,
    steps: usize,
    seed: u64,
) -> f64 {
    if u == v {
        return 1.0;
    }
    let mut rng = sgnn_linalg::rng::seeded(seed);
    let mut acc = 0f64;
    for _ in 0..walks {
        let mut a = u;
        let mut b = v;
        let mut decay = 1.0f64;
        for _ in 0..steps {
            let na = g.neighbors(a);
            let nb = g.neighbors(b);
            if na.is_empty() || nb.is_empty() {
                break;
            }
            a = na[rng.random_range(0..na.len())];
            b = nb[rng.random_range(0..nb.len())];
            decay *= c;
            if a == b {
                acc += decay;
                break;
            }
        }
    }
    acc / walks as f64
}

/// One node's top-k similarity list: `(peer, score)` sorted by descending
/// score.
pub fn topk_of_row(s: &[f64], n: usize, u: usize, k: usize) -> Vec<(NodeId, f64)> {
    let row = &s[u * n..(u + 1) * n];
    let mut pairs: Vec<(NodeId, f64)> =
        (0..n).filter(|&v| v != u && row[v] > 0.0).map(|v| (v as NodeId, row[v])).collect();
    pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    pairs.truncate(k);
    pairs
}

/// SIMGA precompute: the *global aggregation graph* whose row `u` holds
/// `u`'s top-`k` SimRank peers, weights = normalized scores (rows sum to 1
/// where nonempty).
///
/// GNNs add one aggregation pass over this graph to inject global,
/// structure-similar context — the heterophily fix of SIMGA [28] — while
/// keeping the pass as cheap as a sparse k-NN product. A graph with no
/// nodes yields an empty graph.
pub fn topk_similarity_graph(g: &CsrGraph, c: f64, k: usize, iters: usize) -> CsrGraph {
    let n = g.num_nodes();
    let s = simrank_matrix(g, c, 1e-4, iters);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        let top = topk_of_row(&s, n, u, k);
        let mass: f64 = top.iter().map(|&(_, w)| w).sum();
        if mass <= 0.0 {
            continue;
        }
        for (v, w) in top {
            b.add_weighted_edge(u as NodeId, v, (w / mass) as f32);
        }
    }
    b.build().expect("ids in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_graph::generate;

    #[test]
    fn simrank_diag_is_one_and_symmetric() {
        let g = generate::erdos_renyi(60, 0.08, false, 1);
        let n = 60;
        let s = simrank_matrix(&g, 0.6, 1e-8, 30);
        for u in 0..n {
            assert_eq!(s[u * n + u], 1.0);
            for v in 0..n {
                assert!((s[u * n + v] - s[v * n + u]).abs() < 1e-7);
                assert!(s[u * n + v] >= -1e-12 && s[u * n + v] <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn simrank_on_known_tiny_graph() {
        // Star 0-1, 0-2: nodes 1 and 2 have identical neighborhoods {0},
        // so s(1,2) = c · s(0,0) = c.
        let g = generate::star(3);
        let s = simrank_matrix(&g, 0.8, 1e-10, 50);
        assert!((s[3 + 2] - 0.8).abs() < 1e-8, "s(1,2)={}", s[3 + 2]);
    }

    #[test]
    fn simrank_fixed_point_residual_is_small() {
        let g = generate::erdos_renyi(40, 0.1, false, 2);
        let n = 40;
        let c = 0.6;
        let s = simrank_matrix(&g, c, 1e-10, 100);
        // Verify the SimRank equation at a handful of pairs.
        for &(u, v) in &[(0usize, 1usize), (3, 7), (10, 20), (30, 39)] {
            if u == v {
                continue;
            }
            let nu = g.neighbors(u as NodeId);
            let nv = g.neighbors(v as NodeId);
            if nu.is_empty() || nv.is_empty() {
                continue;
            }
            let mut acc = 0f64;
            for &a in nu {
                for &b in nv {
                    acc += s[(a as usize) * n + b as usize];
                }
            }
            let expect = c * acc / (nu.len() * nv.len()) as f64;
            assert!((s[u * n + v] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn mc_estimate_tracks_exact_value() {
        let g = generate::erdos_renyi(50, 0.12, false, 3);
        let s = simrank_matrix(&g, 0.6, 1e-10, 60);
        // Pick the most similar distinct pair to get signal above noise.
        let mut best = (0usize, 1usize);
        for u in 0..50 {
            for v in (u + 1)..50 {
                if s[u * 50 + v] > s[best.0 * 50 + best.1] {
                    best = (u, v);
                }
            }
        }
        let exact = s[best.0 * 50 + best.1];
        let est = simrank_mc(&g, best.0 as NodeId, best.1 as NodeId, 0.6, 30_000, 30, 7);
        assert!((est - exact).abs() < 0.05, "est {est} vs exact {exact}");
    }

    #[test]
    fn mc_same_node_is_one_and_isolated_zero() {
        let g = generate::star(4);
        assert_eq!(simrank_mc(&g, 2, 2, 0.6, 10, 5, 1), 1.0);
        let iso = CsrGraph::empty(3);
        assert_eq!(simrank_mc(&iso, 0, 1, 0.6, 100, 5, 1), 0.0);
    }

    #[test]
    fn topk_rows_sorted_and_bounded() {
        let g = generate::erdos_renyi(30, 0.2, false, 4);
        let s = simrank_matrix(&g, 0.6, 1e-8, 30);
        let top = topk_of_row(&s, 30, 5, 4);
        assert!(top.len() <= 4);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(top.iter().all(|&(v, _)| v != 5));
    }

    #[test]
    fn similarity_graph_rows_are_normalized() {
        let (g, _) = generate::planted_partition(120, 2, 6.0, 0.2, 5);
        let sg = topk_similarity_graph(&g, 0.6, 5, 20);
        sg.validate().unwrap();
        for u in 0..120u32 {
            let w = sg.weights_of(u).unwrap();
            if !w.is_empty() {
                let sum: f32 = w.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "row {u} sums {sum}");
                assert!(w.len() <= 5);
            }
        }
    }

    #[test]
    fn similarity_graph_finds_same_block_peers_under_heterophily() {
        // In a heterophilous SBM, direct neighbors are mostly cross-block,
        // but SimRank top-k peers should be same-block (structurally
        // similar) — exactly SIMGA's premise.
        let (g, labels) = generate::planted_partition(160, 2, 10.0, 0.1, 6);
        let sg = topk_similarity_graph(&g, 0.6, 5, 25);
        let mut same = 0usize;
        let mut total = 0usize;
        for (u, v, _) in sg.edges() {
            total += 1;
            if labels[u as usize] == labels[v as usize] {
                same += 1;
            }
        }
        let frac = same as f64 / total as f64;
        // Direct edges are 90% cross-block; similarity edges must do much
        // better than the 10% baseline.
        assert!(frac > 0.5, "same-block similarity fraction {frac}");
    }
}
