//! FORA-style hybrid PPR: forward push + Monte-Carlo refinement, and
//! top-k queries.
//!
//! The survey's §3.2.2 theme — "querying node-level information on demand
//! instead of the full-graph manner" — rests on PPR estimators that give
//! *query-time* accuracy guarantees. FORA's recipe: run a cheap forward
//! push to threshold `r_max`, then spend the walk budget only on the
//! *residual* mass, giving an unbiased estimate whose error shrinks with
//! the budget while the push has already localized most of the work.
//! [`topk_ppr`] is the query shape PPRGo-style models consume: the `k`
//! most relevant nodes per seed.

use sgnn_graph::{CsrGraph, NodeId};

/// Hybrid push + Monte-Carlo PPR estimate for one source.
///
/// `eps` is the push threshold (`r(u) < eps·deg(u)` stops pushing);
/// `walks_per_unit` scales how many α-terminated walks each unit of
/// leftover residual receives. `walks_per_unit = 0` reduces to plain push.
/// A `source` outside the graph (`source ≥ n`) leaves no residual to walk
/// from, so it gets the all-zero vector.
pub fn fora_ppr(
    g: &CsrGraph,
    source: NodeId,
    alpha: f64,
    eps: f64,
    walks_per_unit: f64,
    seed: u64,
) -> Vec<f64> {
    let (mut p, res) = crate::push::forward_push_residuals(g, source, alpha, eps);
    if walks_per_unit > 0.0 {
        let mut rng = sgnn_linalg::rng::seeded(seed);
        for (u, &ru) in res.iter().enumerate() {
            if ru <= 0.0 {
                continue;
            }
            let walks = (ru * walks_per_unit).ceil().max(1.0) as usize;
            let share = ru / walks as f64;
            for _ in 0..walks {
                let end = crate::mc::walk_endpoint(g, u as NodeId, alpha, &mut rng);
                p[end as usize] += share;
            }
        }
    }
    p
}

/// Top-`k` PPR query: the `k` highest-PPR nodes for `source`, sorted
/// descending, estimated with [`fora_ppr`].
pub fn topk_ppr(
    g: &CsrGraph,
    source: NodeId,
    k: usize,
    alpha: f64,
    eps: f64,
    seed: u64,
) -> Vec<(NodeId, f64)> {
    let p = fora_ppr(g, source, alpha, eps, 1_000.0, seed);
    let mut pairs: Vec<(NodeId, f64)> =
        p.iter().enumerate().filter(|&(_, &v)| v > 0.0).map(|(u, &v)| (u as NodeId, v)).collect();
    pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    pairs.truncate(k);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push::ppr_power;
    use sgnn_graph::generate;

    #[test]
    fn fora_is_more_accurate_than_plain_push_at_same_eps() {
        let g = generate::barabasi_albert(500, 3, 1);
        let exact = ppr_power(&g, 0, 0.2, 1e-12, 3000);
        let coarse_eps = 1e-3;
        let (push_only, _) = crate::push::forward_push(&g, 0, 0.2, coarse_eps);
        let l1 =
            |p: &[f64]| -> f64 { exact.iter().zip(p.iter()).map(|(a, b)| (a - b).abs()).sum() };
        // Average FORA over several seeds (MC component is noisy).
        let fora_err: f64 =
            (0..5).map(|s| l1(&fora_ppr(&g, 0, 0.2, coarse_eps, 2_000.0, s))).sum::<f64>() / 5.0;
        assert!(fora_err < l1(&push_only), "fora {fora_err} !< push {}", l1(&push_only));
    }

    #[test]
    fn fora_mass_is_conserved_with_walk_budget() {
        let g = generate::erdos_renyi(300, 0.04, false, 2);
        let p = fora_ppr(&g, 5, 0.15, 1e-3, 20.0, 3);
        let mass: f64 = p.iter().sum();
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
    }

    #[test]
    fn topk_matches_exact_ranking_mostly() {
        let g = generate::barabasi_albert(400, 3, 4);
        let exact = ppr_power(&g, 7, 0.2, 1e-12, 3000);
        let mut exact_rank: Vec<(u32, f64)> =
            exact.iter().enumerate().map(|(u, &v)| (u as u32, v)).collect();
        exact_rank.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let exact_top: std::collections::HashSet<u32> =
            exact_rank[..10].iter().map(|&(u, _)| u).collect();
        let est = topk_ppr(&g, 7, 10, 0.2, 1e-5, 5);
        let hits = est.iter().filter(|&&(u, _)| exact_top.contains(&u)).count();
        assert!(hits >= 8, "only {hits}/10 of the true top-10 recovered");
        // Sorted descending.
        assert!(est.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn zero_walk_budget_reduces_to_push_estimate() {
        let g = generate::erdos_renyi(200, 0.05, false, 6);
        let p = fora_ppr(&g, 3, 0.2, 1e-4, 0.0, 7);
        let (push, _) = crate::push::forward_push(&g, 3, 0.2, 1e-4);
        for (a, b) in p.iter().zip(push.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
