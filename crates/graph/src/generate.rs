//! Deterministic synthetic graph generators.
//!
//! These stand in for the industrial datasets the survey motivates
//! (Papers100M, MAG, WeChat/Amazon/Facebook graphs — see DESIGN.md's
//! substitution table). Each generator exposes the axis an experiment
//! sweeps: size (`erdos_renyi`, `rmat`), degree skew (`barabasi_albert`),
//! community structure and homophily (`sbm`), and long-range structure
//! (`chain`, `grid2d`).
//!
//! All generators are deterministic under their `seed` and produce
//! undirected (symmetric) simple graphs unless stated otherwise.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};
use rand::{Rng, RngExt};

/// Erdős–Rényi `G(n, p)`.
///
/// Uses geometric edge-skipping so the cost is `O(m)`, not `O(n²)`:
/// practical up to millions of expected edges. `directed` controls whether
/// the output is symmetrized.
pub fn erdos_renyi(n: usize, p: f64, directed: bool, seed: u64) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n).drop_self_loops();
    if !directed {
        b = b.symmetric();
    }
    if p > 0.0 && n > 1 {
        let mut rng = sgnn_linalg::rng::seeded(seed);
        let log1mp = (1.0 - p).ln();
        // Iterate over the (upper-triangular or full) pair space with
        // geometric jumps.
        let total: u64 =
            if directed { (n as u64) * (n as u64 - 1) } else { (n as u64) * (n as u64 - 1) / 2 };
        if p >= 1.0 {
            for u in 0..n as u64 {
                for v in 0..n as u64 {
                    if u == v {
                        continue;
                    }
                    if directed || u < v {
                        b.add_edge(u as NodeId, v as NodeId);
                    }
                }
            }
        } else {
            let mut idx: i64 = -1;
            loop {
                let r: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let skip = (r.ln() / log1mp).floor() as i64 + 1;
                idx += skip.max(1);
                if idx as u64 >= total {
                    break;
                }
                let (u, v) = unrank_pair(idx as u64, n as u64, directed);
                b.add_edge(u as NodeId, v as NodeId);
            }
        }
    }
    b.build().expect("generator produced invalid ids")
}

/// Maps a linear index into a node pair: upper-triangular for undirected,
/// row-major-minus-diagonal for directed.
fn unrank_pair(idx: u64, n: u64, directed: bool) -> (u64, u64) {
    if directed {
        let u = idx / (n - 1);
        let mut v = idx % (n - 1);
        if v >= u {
            v += 1;
        }
        (u, v)
    } else {
        // Row u (0-based) holds the n-1-u pairs (u, u+1..n), so the rows
        // before it hold start(u) = u·(2n-u-1)/2 (an exact division).
        // Estimate u from that quadratic, then settle it in integers: O(1)
        // per pair instead of a walk over every earlier row.
        let start = |u: u64| u * (2 * n - u - 1) / 2;
        let b = (2 * n - 1) as f64;
        let mut u = ((b - (b * b - 8.0 * idx as f64).max(0.0).sqrt()) / 2.0) as u64;
        u = u.min(n.saturating_sub(2));
        while u > 0 && start(u) > idx {
            u -= 1;
        }
        while u + 2 < n && start(u + 1) <= idx {
            u += 1;
        }
        (u, u + 1 + idx - start(u))
    }
}

/// Barabási–Albert preferential attachment: each new node attaches to `m`
/// existing nodes with probability proportional to degree.
///
/// Produces the heavy-tailed degree distributions that make neighborhood
/// explosion (experiment E1) visible.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(m >= 1, "attachment count must be >= 1");
    assert!(n > m, "need more nodes than attachment edges");
    let mut rng = sgnn_linalg::rng::seeded(seed);
    let mut b = GraphBuilder::new(n).symmetric().drop_self_loops();
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportional to degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    // Seed clique over the first m+1 nodes.
    for u in 0..=(m as NodeId) {
        for v in (u + 1)..=(m as NodeId) {
            b.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for u in (m + 1)..n {
        let mut chosen = std::collections::HashSet::with_capacity(m);
        while chosen.len() < m {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            chosen.insert(t);
        }
        // Sort so the endpoint list (and thus future draws) is independent
        // of HashSet iteration order — keeps the generator deterministic.
        let mut chosen: Vec<NodeId> = chosen.into_iter().collect();
        chosen.sort_unstable();
        for &v in &chosen {
            b.add_edge(u as NodeId, v);
            endpoints.push(u as NodeId);
            endpoints.push(v);
        }
    }
    b.build().expect("generator produced invalid ids")
}

/// R-MAT power-law generator (Chakrabarti et al.), the Graph500 workhorse.
///
/// Emits `edge_factor * 2^scale` undirected edges over `2^scale` nodes with
/// quadrant probabilities `(a, b, c, d)`; the defaults `(0.57, 0.19, 0.19,
/// 0.05)` match Graph500. Duplicates merge in the builder, so the final
/// edge count is slightly below the nominal one.
pub fn rmat(scale: u32, edge_factor: usize, probs: (f64, f64, f64, f64), seed: u64) -> CsrGraph {
    let (a, b, c, d) = probs;
    assert!((a + b + c + d - 1.0).abs() < 1e-9, "quadrant probabilities must sum to 1");
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = sgnn_linalg::rng::seeded(seed);
    let mut builder = GraphBuilder::new(n).symmetric().drop_self_loops();
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let r: f64 = rng.random::<f64>();
            let (du, dv) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        builder.add_edge(u as NodeId, v as NodeId);
    }
    builder.build().expect("generator produced invalid ids")
}

/// Graph500-default R-MAT.
pub fn rmat_default(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    rmat(scale, edge_factor, (0.57, 0.19, 0.19, 0.05), seed)
}

/// Stochastic block model with explicit homophily control.
///
/// `blocks[i]` is the size of community `i`. A node pair inside a block is
/// connected with probability `p_in`, across blocks with `p_out`. Setting
/// `p_in > p_out` yields homophilous graphs; `p_in < p_out` heterophilous —
/// the axis experiments E5/E6 sweep. Returns the graph and per-node block
/// labels.
pub fn sbm(blocks: &[usize], p_in: f64, p_out: f64, seed: u64) -> (CsrGraph, Vec<usize>) {
    let n: usize = blocks.iter().sum();
    let mut label = vec![0usize; n];
    let mut start = 0usize;
    let mut offsets = Vec::with_capacity(blocks.len());
    for (bi, &sz) in blocks.iter().enumerate() {
        offsets.push(start);
        for u in start..start + sz {
            label[u] = bi;
        }
        start += sz;
    }
    let mut b = GraphBuilder::new(n).symmetric().drop_self_loops();
    let mut rng = sgnn_linalg::rng::seeded(seed);
    // Within-block edges: ER inside each block.
    for (bi, &sz) in blocks.iter().enumerate() {
        let off = offsets[bi] as u64;
        sample_pairs(&mut rng, sz as u64, sz as u64, true, p_in, |u, v| {
            b.add_edge((off + u) as NodeId, (off + v) as NodeId);
        });
    }
    // Cross-block edges: bipartite ER per block pair.
    for bi in 0..blocks.len() {
        for bj in (bi + 1)..blocks.len() {
            let (oi, oj) = (offsets[bi] as u64, offsets[bj] as u64);
            sample_pairs(&mut rng, blocks[bi] as u64, blocks[bj] as u64, false, p_out, |u, v| {
                b.add_edge((oi + u) as NodeId, (oj + v) as NodeId);
            });
        }
    }
    (b.build().expect("generator produced invalid ids"), label)
}

/// Geometric-skip sampling over an `rows × cols` pair grid. When
/// `triangular`, only pairs `u < v` of a square grid are considered.
fn sample_pairs<R: Rng + RngExt>(
    rng: &mut R,
    rows: u64,
    cols: u64,
    triangular: bool,
    p: f64,
    mut emit: impl FnMut(u64, u64),
) {
    if p <= 0.0 || rows == 0 || cols == 0 {
        return;
    }
    let total = if triangular { rows * (rows - 1) / 2 } else { rows * cols };
    if p >= 1.0 {
        for idx in 0..total {
            let (u, v) =
                if triangular { unrank_pair(idx, rows, false) } else { (idx / cols, idx % cols) };
            emit(u, v);
        }
        return;
    }
    let log1mp = (1.0 - p).ln();
    let mut idx: i64 = -1;
    loop {
        let r: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let skip = (r.ln() / log1mp).floor() as i64 + 1;
        idx += skip.max(1);
        if idx as u64 >= total {
            break;
        }
        let (u, v) = if triangular {
            unrank_pair(idx as u64, rows, false)
        } else {
            ((idx as u64) / cols, (idx as u64) % cols)
        };
        emit(u, v);
    }
}

/// Planted-partition convenience: `k` equal blocks of size `n/k`, with the
/// *homophily ratio* `h ∈ (0,1)` controlling the fraction of a node's edges
/// that stay inside its block at fixed expected degree `deg`.
///
/// `h = (k-1)·p_in / ((k-1)·p_in + (k-1)·p_out_total)` — concretely we set
/// `p_in` and `p_out` such that expected within-degree is `h·deg` and
/// cross-degree `(1-h)·deg` spread over the other `k-1` blocks.
pub fn planted_partition(
    n: usize,
    k: usize,
    deg: f64,
    h: f64,
    seed: u64,
) -> (CsrGraph, Vec<usize>) {
    assert!(k >= 2 && n >= 2 * k, "need at least two blocks of size >= 2");
    assert!((0.0..=1.0).contains(&h), "homophily must be in [0,1]");
    let bs = n / k;
    let blocks = vec![bs; k];
    let nb = bs as f64;
    let p_in = (h * deg / (nb - 1.0)).min(1.0);
    let p_out = (((1.0 - h) * deg) / (nb * (k as f64 - 1.0))).min(1.0);
    sbm(&blocks, p_in, p_out, seed)
}

/// Path graph `0 — 1 — … — n-1` (long-range dependency substrate, E8).
pub fn chain(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n).symmetric();
    for u in 1..n {
        b.add_edge((u - 1) as NodeId, u as NodeId);
    }
    b.build().expect("chain ids valid")
}

/// 2-D grid graph with 4-neighbor connectivity.
pub fn grid2d(rows: usize, cols: usize) -> CsrGraph {
    let n = rows * cols;
    let mut b = GraphBuilder::new(n).symmetric();
    for r in 0..rows {
        for c in 0..cols {
            let u = (r * cols + c) as NodeId;
            if c + 1 < cols {
                b.add_edge(u, u + 1);
            }
            if r + 1 < rows {
                b.add_edge(u, u + cols as NodeId);
            }
        }
    }
    b.build().expect("grid ids valid")
}

/// Star graph: node 0 is the hub connected to all others.
pub fn star(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n).symmetric();
    for u in 1..n {
        b.add_edge(0, u as NodeId);
    }
    b.build().expect("star ids valid")
}

/// Complete graph `K_n` (small-scale tests only).
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n).symmetric();
    for u in 0..n as NodeId {
        for v in (u + 1)..n as NodeId {
            b.add_edge(u, v);
        }
    }
    b.build().expect("complete ids valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_density_close_to_p() {
        let n = 500;
        let p = 0.02;
        let g = erdos_renyi(n, p, false, 3);
        let possible = (n * (n - 1) / 2) as f64;
        let observed = g.num_edges() as f64 / 2.0; // undirected stored twice
        let density = observed / possible;
        assert!((density - p).abs() < 0.004, "density {density}");
        assert!(g.is_symmetric());
        g.validate().unwrap();
    }

    #[test]
    fn er_directed_has_asymmetric_edges() {
        let g = erdos_renyi(100, 0.05, true, 5);
        g.validate().unwrap();
        let t = g.transpose();
        assert_ne!(g.indices(), t.indices());
    }

    #[test]
    fn er_extremes() {
        let g0 = erdos_renyi(50, 0.0, false, 1);
        assert_eq!(g0.num_edges(), 0);
        let g1 = erdos_renyi(20, 1.0, false, 1);
        assert_eq!(g1.num_edges(), 20 * 19);
    }

    #[test]
    fn unrank_pair_is_bijective_undirected() {
        let n = 7u64;
        let total = n * (n - 1) / 2;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total {
            let (u, v) = unrank_pair(idx, n, false);
            assert!(u < v && v < n, "({u},{v})");
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len() as u64, total);
    }

    #[test]
    fn unrank_pair_matches_the_row_walk() {
        // Reference: walk the rows of the upper triangle one by one.
        let walk = |idx: u64, n: u64| {
            let (mut u, mut rem) = (0u64, idx);
            while rem >= n - 1 - u {
                rem -= n - 1 - u;
                u += 1;
            }
            (u, u + 1 + rem)
        };
        for n in 2..80u64 {
            for idx in 0..n * (n - 1) / 2 {
                assert_eq!(unrank_pair(idx, n, false), walk(idx, n), "n={n} idx={idx}");
            }
        }
        let n = 6250u64;
        let total = n * (n - 1) / 2;
        let mut rng = sgnn_linalg::rng::seeded(3);
        for idx in (0..2000).map(|_| rng.random_range(0..total)).chain([0, total - 1]) {
            assert_eq!(unrank_pair(idx, n, false), walk(idx, n), "n={n} idx={idx}");
        }
    }

    #[test]
    fn unrank_pair_is_bijective_directed() {
        let n = 6u64;
        let total = n * (n - 1);
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total {
            let (u, v) = unrank_pair(idx, n, true);
            assert!(u != v && u < n && v < n);
            assert!(seen.insert((u, v)));
        }
    }

    #[test]
    fn ba_every_late_node_has_at_least_m_edges() {
        let g = barabasi_albert(300, 3, 9);
        g.validate().unwrap();
        assert!(g.is_symmetric());
        for u in 4..300u32 {
            assert!(g.degree(u) >= 3, "node {u} degree {}", g.degree(u));
        }
        // Preferential attachment produces a hub far above median degree.
        let mut degs = g.degrees();
        degs.sort_unstable();
        assert!(*degs.last().unwrap() > 3 * degs[150]);
    }

    #[test]
    fn rmat_shape_and_skew() {
        let g = rmat_default(10, 8, 2);
        g.validate().unwrap();
        assert_eq!(g.num_nodes(), 1024);
        assert!(g.num_edges() > 1024); // some dupes merge but far above n
        let max = g.max_degree();
        let avg = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(max as f64 > 6.0 * avg, "rmat should be skewed: max {max}, avg {avg}");
    }

    #[test]
    fn sbm_labels_and_homophily_direction() {
        let (g, labels) = sbm(&[100, 100], 0.10, 0.01, 7);
        g.validate().unwrap();
        assert_eq!(labels.len(), 200);
        let mut within = 0usize;
        let mut across = 0usize;
        for (u, v, _) in g.edges() {
            if labels[u as usize] == labels[v as usize] {
                within += 1;
            } else {
                across += 1;
            }
        }
        assert!(within > 3 * across, "within {within} across {across}");
    }

    #[test]
    fn planted_partition_controls_homophily() {
        let frac = |h: f64| {
            let (g, labels) = planted_partition(1000, 4, 12.0, h, 11);
            let mut within = 0usize;
            let mut total = 0usize;
            for (u, v, _) in g.edges() {
                total += 1;
                if labels[u as usize] == labels[v as usize] {
                    within += 1;
                }
            }
            within as f64 / total as f64
        };
        let high = frac(0.9);
        let low = frac(0.1);
        assert!(high > 0.8, "measured homophily {high}");
        assert!(low < 0.2, "measured heterophily {low}");
    }

    #[test]
    fn chain_grid_star_complete_shapes() {
        let c = chain(5);
        assert_eq!(c.num_edges(), 8);
        assert_eq!(c.degree(0), 1);
        assert_eq!(c.degree(2), 2);
        let g = grid2d(3, 4);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 2 * (3 * 3 + 2 * 4));
        let s = star(6);
        assert_eq!(s.degree(0), 5);
        assert_eq!(s.degree(3), 1);
        let k = complete(5);
        assert_eq!(k.num_edges(), 20);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = barabasi_albert(200, 2, 42);
        let b = barabasi_albert(200, 2, 42);
        assert_eq!(a.indices(), b.indices());
        let c = rmat_default(8, 4, 42);
        let d = rmat_default(8, 4, 42);
        assert_eq!(c.indices(), d.indices());
    }
}
