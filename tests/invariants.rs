//! Cross-crate property tests: invariants that must hold across module
//! boundaries, checked with proptest over randomized graphs.

use proptest::prelude::*;
use sgnn::graph::normalize::{normalized_adjacency, NormKind};
use sgnn::graph::GraphBuilder;
use sgnn::linalg::DenseMatrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Push-based PPR and power iteration agree within the push bound on
    /// arbitrary graphs.
    #[test]
    fn ppr_push_matches_power_everywhere(
        edges in proptest::collection::vec((0u32..40, 0u32..40), 1..250),
        source in 0u32..40,
    ) {
        let g = GraphBuilder::new(40).symmetric().drop_self_loops()
            .edges(&edges).build().unwrap();
        let eps = 1e-7;
        let alpha = 0.2;
        let exact = sgnn::prop::push::ppr_power(&g, source, alpha, 1e-13, 5000);
        let (approx, _) = sgnn::prop::forward_push(&g, source, alpha, eps);
        for v in 0..40usize {
            let err = exact[v] - approx[v];
            prop_assert!(err >= -1e-9, "underestimate violated at {}: {}", v, err);
            let bound = eps * g.degree(v as u32).max(1) as f64 + 1e-9;
            prop_assert!(err <= bound, "bound violated at {}: {} > {}", v, err, bound);
        }
    }

    /// Hub-label SPD equals BFS on arbitrary graphs (cross-crate: sim vs
    /// graph::traverse).
    #[test]
    fn hub_labels_equal_bfs(
        edges in proptest::collection::vec((0u32..25, 0u32..25), 0..100),
    ) {
        let g = GraphBuilder::new(25).symmetric().drop_self_loops()
            .edges(&edges).build().unwrap();
        let h = sgnn::sim::HubLabels::build(&g);
        for s in (0..25u32).step_by(5) {
            let d = sgnn::graph::traverse::bfs_distances(&g, s);
            for t in 0..25u32 {
                prop_assert_eq!(h.query(s, t), d[t as usize]);
            }
        }
    }

    /// Sampled-block aggregation commutes with gradient transposition:
    /// <Bx, y> == <x, Bᵀy> for every sampler.
    #[test]
    fn block_forward_backward_adjoint(
        edges in proptest::collection::vec((0u32..30, 0u32..30), 10..200),
        seed in 0u64..1000,
    ) {
        let g = GraphBuilder::new(30).symmetric().drop_self_loops()
            .edges(&edges).build().unwrap();
        let targets: Vec<u32> = (0..6).collect();
        for blocks in [
            sgnn::sample::node_wise::sample_blocks(&g, &targets, &[3], seed),
            sgnn::sample::labor::labor_blocks(&g, &targets, &[3], seed),
            vec![sgnn::sample::layer_wise::ladies_block(&g, &targets, 8, seed)],
        ] {
            let b = &blocks[0];
            let x = DenseMatrix::gaussian(b.num_src(), 3, 1.0, seed);
            let y = DenseMatrix::gaussian(b.num_dst(), 3, 1.0, seed + 1);
            let bx = b.aggregate(&x);
            let bty = b.aggregate_backward(&y);
            let lhs = sgnn::linalg::vecops::dot(bx.data(), y.data());
            let rhs = sgnn::linalg::vecops::dot(x.data(), bty.data());
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
                "adjoint mismatch: {} vs {}", lhs, rhs);
        }
    }

    /// Coarsening conserves node mass and produces valid graphs at any
    /// ratio.
    #[test]
    fn coarsening_conserves_mass(
        edges in proptest::collection::vec((0u32..35, 0u32..35), 5..150),
        ratio in 0.1f64..1.0,
    ) {
        let g = GraphBuilder::new(35).symmetric().drop_self_loops()
            .edges(&edges).build().unwrap();
        let c = sgnn::coarsen::coarsen_to_ratio(&g, ratio, 7);
        c.graph.validate().unwrap();
        prop_assert_eq!(c.node_weights.iter().sum::<u32>() as usize, 35);
        prop_assert_eq!(c.map.len(), 35);
        for &m in &c.map {
            prop_assert!((m as usize) < c.num_coarse());
        }
    }

    /// Unifews at δ=0 equals exact propagation for any graph/signal.
    #[test]
    fn unifews_zero_delta_is_exact(
        edges in proptest::collection::vec((0u32..20, 0u32..20), 1..80),
        seed in 0u64..100,
    ) {
        let g = GraphBuilder::new(20).symmetric().drop_self_loops()
            .edges(&edges).build().unwrap();
        let a = normalized_adjacency(&g, NormKind::Sym, true).unwrap();
        let x = DenseMatrix::gaussian(20, 3, 1.0, seed);
        let (h, stats) = sgnn::sparsify::unifews_propagate(&a, &x, 2, 0.0);
        let exact = sgnn::prop::power_propagate(&a, &x, 2);
        prop_assert_eq!(stats.prune_ratio(), 0.0);
        let diff = h.sub(&exact).unwrap().frobenius();
        prop_assert!(diff < 1e-4);
    }

    /// Partition quality metrics are consistent: edge-cut in [0,1],
    /// balance ≥ 1, replication ≥ 1 for every partitioner.
    #[test]
    fn partition_metrics_are_well_formed(
        edges in proptest::collection::vec((0u32..40, 0u32..40), 10..200),
        k in 2usize..6,
    ) {
        let g = GraphBuilder::new(40).symmetric().drop_self_loops()
            .edges(&edges).build().unwrap();
        for p in [
            sgnn::partition::hash_partition(40, k),
            sgnn::partition::ldg(&g, k, 1.2),
            sgnn::partition::fennel(&g, k, 1.2),
        ] {
            let q = sgnn::partition::metrics::quality(&g, &p);
            prop_assert!((0.0..=1.0).contains(&q.edge_cut));
            prop_assert!(q.balance >= 1.0 - 1e-9);
            prop_assert!(q.replication >= 1.0 - 1e-9);
        }
    }
}

/// SimRank on the smallest graphs: no nodes gives an empty matrix and an
/// empty similarity graph (no panic); one node is similar only to itself
/// and has no peers.
#[test]
fn simrank_handles_empty_and_single_node_graphs() {
    use sgnn::sim::{simrank_matrix, topk_similarity_graph};
    let empty = GraphBuilder::new(0).build().unwrap();
    assert!(simrank_matrix(&empty, 0.6, 1e-6, 10).is_empty());
    let s = topk_similarity_graph(&empty, 0.6, 3, 10);
    assert_eq!((s.num_nodes(), s.num_edges()), (0, 0));

    let single = GraphBuilder::new(1).build().unwrap();
    assert_eq!(simrank_matrix(&single, 0.6, 1e-6, 10), vec![1.0]);
    let s = topk_similarity_graph(&single, 0.6, 3, 10);
    assert_eq!((s.num_nodes(), s.num_edges()), (1, 0));
}
