//! Monte-Carlo personalized PageRank.
//!
//! The third classic PPR estimator (next to power iteration and local
//! push): simulate `walks` α-terminated random walks from the source and
//! count endpoint frequencies. Unbiased, embarrassingly parallel, and the
//! building block of hybrid push+MC schemes (FORA-style); included both as
//! a baseline for E4/E9 and because sampled decoupled models (NIGCN) use
//! exactly this estimator.

use rand::{Rng, RngExt};
use sgnn_graph::{CsrGraph, NodeId};

/// Estimates the PPR vector of `source` from `walks` random walks.
///
/// Each walk terminates with probability `alpha` per step (geometric
/// length); its endpoint receives `1/walks` mass. Dangling nodes absorb
/// the walk. A `source` outside the graph (`source ≥ n`) gets the
/// all-zero vector.
pub fn ppr_monte_carlo(
    g: &CsrGraph,
    source: NodeId,
    alpha: f64,
    walks: usize,
    seed: u64,
) -> Vec<f64> {
    let n = g.num_nodes();
    let mut pi = vec![0f64; n];
    if source as usize >= n {
        return pi;
    }
    let mut rng = sgnn_linalg::rng::seeded(seed);
    let inc = 1.0 / walks as f64;
    for _ in 0..walks {
        let end = walk_endpoint(g, source, alpha, &mut rng);
        pi[end as usize] += inc;
    }
    pi
}

/// Simulates one α-terminated walk and returns its endpoint.
pub fn walk_endpoint<R: Rng + RngExt>(
    g: &CsrGraph,
    source: NodeId,
    alpha: f64,
    rng: &mut R,
) -> NodeId {
    let mut u = source;
    loop {
        if rng.random::<f64>() < alpha {
            return u;
        }
        let neigh = g.neighbors(u);
        if neigh.is_empty() {
            return u; // dangling absorbs
        }
        u = neigh[rng.random_range(0..neigh.len())];
    }
}

/// Estimates PPR for many sources at once (one row per source), sharing
/// the RNG stream deterministically per source.
pub fn ppr_monte_carlo_batch(
    g: &CsrGraph,
    sources: &[NodeId],
    alpha: f64,
    walks: usize,
    seed: u64,
) -> Vec<Vec<f64>> {
    sources
        .iter()
        .enumerate()
        .map(|(i, &s)| ppr_monte_carlo(g, s, alpha, walks, seed.wrapping_add(i as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push::ppr_power;
    use sgnn_graph::generate;

    #[test]
    fn mc_mass_is_exactly_one() {
        let g = generate::erdos_renyi(100, 0.05, false, 1);
        let pi = ppr_monte_carlo(&g, 3, 0.2, 5_000, 42);
        let mass: f64 = pi.iter().sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mc_converges_to_power_iteration() {
        let g = generate::barabasi_albert(120, 3, 5);
        let exact = ppr_power(&g, 0, 0.2, 1e-12, 2000);
        let est = ppr_monte_carlo(&g, 0, 0.2, 200_000, 7);
        let linf = exact.iter().zip(est.iter()).map(|(a, b)| (a - b).abs()).fold(0f64, f64::max);
        assert!(linf < 0.01, "l_inf {linf}");
    }

    #[test]
    fn mc_more_walks_reduce_error() {
        let g = generate::barabasi_albert(150, 2, 9);
        let exact = ppr_power(&g, 1, 0.15, 1e-12, 2000);
        let l1 =
            |est: &[f64]| -> f64 { exact.iter().zip(est.iter()).map(|(a, b)| (a - b).abs()).sum() };
        // Average several seeds so the comparison is about walk count, not
        // one lucky draw.
        let avg_err = |walks: usize| -> f64 {
            (0..5).map(|s| l1(&ppr_monte_carlo(&g, 1, 0.15, walks, s))).sum::<f64>() / 5.0
        };
        assert!(avg_err(20_000) < avg_err(500));
    }

    #[test]
    fn walk_endpoint_on_isolated_node_is_itself() {
        let g = CsrGraph::empty(3);
        let mut rng = sgnn_linalg::rng::seeded(1);
        assert_eq!(walk_endpoint(&g, 2, 0.01, &mut rng), 2);
    }

    #[test]
    fn batch_rows_are_per_source_distributions() {
        let g = generate::erdos_renyi(80, 0.06, false, 3);
        let rows = ppr_monte_carlo_batch(&g, &[0, 5, 9], 0.2, 2_000, 11);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            let mass: f64 = r.iter().sum();
            assert!((mass - 1.0).abs() < 1e-12);
        }
        // Source self-mass should be at least alpha.
        assert!(rows[1][5] >= 0.2 - 0.05);
    }
}
