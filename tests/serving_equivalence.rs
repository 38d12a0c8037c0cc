//! Differential serving suite (DESIGN.md §12).
//!
//! Pins the online-serving determinism contract:
//!
//! - the column-parallel feature push equals the sequential reference
//!   **bitwise** at any configured thread count, for `rmax = 0` (exact
//!   kernel) and `rmax > 0` alike — parallelism is over feature
//!   columns, and columns are merged in index order;
//! - for `rmax > 0` the push answer is within the documented entrywise
//!   residual bound `|p − S·x| < rmax` of the exact kernel;
//! - batched serving is bitwise-equal to one-at-a-time serving over the
//!   same request trace, including under LRU eviction pressure and
//!   confidence-gated escalation;
//! - replay counters (cache hits/misses/evictions, planner decisions)
//!   are reproducible run-to-run and across `SGNN_THREADS=1/2`;
//! - the `F32` quantization mode of the serving head is bitwise-equal
//!   to the training-time forward;
//! - a head trained on the SCARA precompute is served, through a `Full`
//!   store at the same `(alpha, rmax)`, its training logits bit for bit.
//!
//! CI runs this file under an `SGNN_THREADS=1` / `SGNN_THREADS=2`
//! matrix so the ambient-thread proptests cover both regimes.

use proptest::prelude::*;
use sgnn::core::models::decoupled::PrecomputeMethod;
use sgnn::core::trainer::{train_decoupled, TrainConfig};
use sgnn::data::sbm_dataset;
use sgnn::graph::{generate, NodeId};
use sgnn::linalg::par::set_threads;
use sgnn::linalg::{DenseMatrix, QuantMode};
use sgnn::nn::Mlp;
use sgnn::serve::{
    smooth_column_exact, smooth_matrix, smooth_matrix_seq, PlannerConfig, PrecomputePolicy,
    ServeConfig, ServeEngine, ServeStats,
};
use std::sync::Mutex;

/// Serializes tests that depend on the global thread count (the test
/// harness runs #[test] functions concurrently and `set_threads` is
/// process-wide).
static THREADS: Mutex<()> = Mutex::new(());

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// A fresh engine over a deterministic BA graph, sized so a trace hits
/// store rows, cache hits, evictions, full pushes, and sampled pushes.
fn engine(n: usize, seed: u64, cache: usize, escalate: Option<f32>) -> ServeEngine {
    let g = generate::barabasi_albert(n, 3, seed);
    let x = DenseMatrix::gaussian(n, 5, 1.0, seed ^ 0xA5);
    let head = Mlp::new(&[5, 8, 4], 0.0, 17);
    let cfg = ServeConfig {
        alpha: 0.15,
        policy: PrecomputePolicy::Hot { count: n / 12, eps: 1e-6 },
        planner: PlannerConfig {
            hub_degree: 10,
            hub_frontier: 512,
            full_eps: 1e-6,
            sampled_eps: 1e-3,
            escalate_below: escalate,
        },
        cache_capacity: cache,
        quant: QuantMode::F32,
        ..Default::default()
    };
    ServeEngine::new(g, x, head, cfg)
}

/// Serves `trace` in `batch`-sized chunks, returning all logits bits
/// plus the final counters.
fn serve_trace(e: &mut ServeEngine, trace: &[NodeId], batch: usize) -> (Vec<u32>, ServeStats) {
    let mut all = Vec::new();
    for chunk in trace.chunks(batch.max(1)) {
        all.extend(bits(&e.serve_batch(chunk)));
    }
    (all, e.stats().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Column-parallel push ≡ sequential reference, bitwise, for the
    /// exact kernel (`rmax = 0`) and the thresholded push alike.
    #[test]
    fn smooth_matrix_matches_seq_bitwise(
        n in 60usize..400,
        d in 1usize..7,
        m in 1usize..4,
        rmax_exp in 0usize..4, // 0 → exact kernel, else 10^-(2+k)
        seed in 0u64..1000,
    ) {
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let g = generate::barabasi_albert(n, m, seed);
        let x = DenseMatrix::gaussian(n, d, 1.0, seed ^ 7);
        let rmax = if rmax_exp == 0 { 0.0 } else { 10f64.powi(-(1 + rmax_exp as i32)) };
        let (seq, _) = smooth_matrix_seq(&g, &x, 0.15, rmax);
        for t in [1usize, 2] {
            set_threads(t);
            let (par, _) = smooth_matrix(&g, &x, 0.15, rmax);
            prop_assert_eq!(bits(&par), bits(&seq), "diverged at {} thread(s)", t);
        }
        set_threads(0);
    }

    /// Thresholded push is within the documented entrywise bound
    /// `|p − S·x| < rmax` of the exact kernel (DESIGN.md §12).
    #[test]
    fn push_within_rmax_of_exact(
        n in 60usize..300,
        m in 1usize..4,
        rmax_exp in 2u32..5,
        seed in 0u64..1000,
    ) {
        let g = generate::barabasi_albert(n, m, seed);
        let x = DenseMatrix::gaussian(n, 3, 1.0, seed ^ 11);
        let rmax = 10f64.powi(-(rmax_exp as i32));
        let (approx, _) = smooth_matrix_seq(&g, &x, 0.15, rmax);
        // The analytic bound is on the f64 push output; the matrix path
        // stores rows as f32, so allow that one rounding on top.
        let slack = f32::EPSILON as f64 * 8.0;
        for c in 0..x.cols() {
            let col: Vec<f64> = (0..n).map(|r| x.row(r)[c] as f64).collect();
            let (exact, _) = smooth_column_exact(&g, &col, 0.15);
            for (r, &e) in exact.iter().enumerate() {
                let err = (approx.row(r)[c] as f64 - e).abs();
                prop_assert!(
                    err < rmax + slack,
                    "entry ({}, {}): |approx − exact| = {:.3e} ≥ rmax = {:.1e}", r, c, err, rmax
                );
            }
        }
    }

    /// Batched answers ≡ one-at-a-time answers, bitwise, over random
    /// traces — under cache eviction pressure and with escalation on.
    #[test]
    fn batched_equals_one_at_a_time(
        n in 120usize..400,
        trace in proptest::collection::vec(0usize..400, 10..80),
        batch in 1usize..16,
        cache in 0usize..8,
        escalate_on in proptest::bool::ANY,
        tau in 0.3f32..0.9,
        seed in 0u64..1000,
    ) {
        let escalate = escalate_on.then_some(tau);
        let trace: Vec<NodeId> = trace.into_iter().map(|u| (u % n) as NodeId).collect();
        let mut a = engine(n, seed, cache, escalate);
        let mut b = engine(n, seed, cache, escalate);
        let (got, _) = serve_trace(&mut a, &trace, batch);
        let mut want = Vec::new();
        for &u in &trace {
            let (row, _) = b.serve_one(u);
            want.extend(row.iter().map(|v| v.to_bits()));
        }
        prop_assert_eq!(got, want, "batch={} cache={} diverged", batch, cache);
    }

    /// Replay counters are a pure function of the request trace: two
    /// fresh engines serving the same trace the same way report
    /// identical stats, at 1 and 2 configured threads.
    #[test]
    fn replay_counters_are_reproducible(
        n in 120usize..400,
        trace in proptest::collection::vec(0usize..400, 10..60),
        batch in 1usize..12,
        seed in 0u64..1000,
    ) {
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let trace: Vec<NodeId> = trace.into_iter().map(|u| (u % n) as NodeId).collect();
        let mut reference: Option<(Vec<u32>, ServeStats)> = None;
        for t in [1usize, 2, 2] {
            set_threads(t);
            let mut e = engine(n, seed, 4, Some(0.6));
            let run = serve_trace(&mut e, &trace, batch);
            match &reference {
                None => reference = Some(run),
                Some(want) => prop_assert_eq!(&run, want, "replay diverged at {} thread(s)", t),
            }
        }
        set_threads(0);
    }
}

/// The `F32` "quantization" mode is the identity: serving with it is
/// bitwise-equal to the training-time forward pass on the same rows.
#[test]
fn f32_quant_head_is_bitwise() {
    let n = 200;
    let g = generate::barabasi_albert(n, 3, 9);
    let x = DenseMatrix::gaussian(n, 5, 1.0, 4);
    let head = Mlp::new(&[5, 8, 4], 0.0, 17);
    let cfg = ServeConfig {
        policy: PrecomputePolicy::Full { rmax: 1e-4 },
        quant: QuantMode::F32,
        ..Default::default()
    };
    let mut e = ServeEngine::new(g.clone(), x.clone(), head.clone(), cfg);
    let trace: Vec<NodeId> = (0..64).map(|i| (i * 3 % n) as NodeId).collect();
    let got = e.serve_batch(&trace);
    let (emb, _) = smooth_matrix_seq(&g, &x, 0.15, 1e-4);
    let mut gathered = DenseMatrix::zeros(trace.len(), x.cols());
    let rows: Vec<usize> = trace.iter().map(|&u| u as usize).collect();
    emb.gather_rows_into(&rows, &mut gathered);
    let want = head.forward_inference(&gathered);
    assert_eq!(bits(&got), bits(&want));
}

/// Eviction pressure sanity: a cache smaller than the working set must
/// evict, and counters still replay exactly (pinned, not proptested, so
/// the eviction path is guaranteed covered every CI run).
#[test]
fn eviction_counters_replay_exactly() {
    // Cycle through more distinct non-hub nodes than the cache holds.
    let serve = |e: &mut ServeEngine| {
        let trace: Vec<NodeId> = (0..90u32).map(|i| 100 + (i * 7) % 80).collect();
        serve_trace(e, &trace, 8)
    };
    let (bits_a, stats_a) = serve(&mut engine(300, 5, 4, None));
    let (bits_b, stats_b) = serve(&mut engine(300, 5, 4, None));
    assert!(stats_a.cache_evictions > 0, "working set must overflow the 4-row cache");
    assert_eq!(stats_a, stats_b);
    assert_eq!(bits_a, bits_b);
}

/// Training and serving share one smoothing operator: a head trained
/// through `PrecomputeMethod::Scara` and served from a `Full` store at
/// the same `(alpha, rmax)` answers every node with exactly the logits
/// the trained model computes — the store runs the kernel the
/// precompute ran.
#[test]
fn scara_trained_head_serves_its_training_logits_bitwise() {
    let ds = sbm_dataset(300, 3, 8.0, 0.85, 6, 0.5, 0, 0.5, 0.25, 13);
    let (alpha, rmax) = (0.15, 1e-4);
    let cfg = TrainConfig { epochs: 5, hidden: vec![8], ..Default::default() };
    let (model, _) = train_decoupled(&ds, &PrecomputeMethod::Scara { alpha, rmax }, &cfg).unwrap();
    let serve_cfg = ServeConfig {
        alpha,
        policy: PrecomputePolicy::Full { rmax },
        quant: QuantMode::F32,
        ..Default::default()
    };
    let mut e =
        ServeEngine::new(ds.graph.clone(), ds.features.clone(), model.mlp.clone(), serve_cfg);
    let nodes: Vec<NodeId> = (0..ds.graph.num_nodes() as NodeId).collect();
    assert_eq!(bits(&e.serve_batch(&nodes)), bits(&model.logits_for(&nodes)));
}
