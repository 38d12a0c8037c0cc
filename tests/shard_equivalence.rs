//! Differential test suite for shard-parallel training (DESIGN.md §7).
//!
//! The contract: [`sgnn::core::shard::train_sharded_gcn`] reproduces
//! [`sgnn::core::trainer::train_full_gcn`] **bitwise** — identical final
//! loss bits, identical val/test accuracies, identical epoch count, and
//! an identical weight trajectory — for every partitioner family, at
//! every shard count, at every thread count. Wall-clock and peak-memory
//! fields differ by design (the sharded trainer's resident set is the
//! plan, not the global operator); everything numeric must match.
//!
//! The proptests run at the ambient thread count, so CI's
//! `SGNN_THREADS=1` / `SGNN_THREADS=2` matrix checks both the inline
//! and pooled superstep paths; one test forces 2 threads regardless of
//! host size.

use proptest::prelude::*;
use sgnn::core::models::gcn::Gcn;
use sgnn::core::shard::train_sharded_gcn;
use sgnn::core::trainer::{train_full_gcn, TrainConfig, TrainReport};
use sgnn::core::CommRegime;
use sgnn::data::sbm_dataset;
use sgnn::graph::CsrGraph;
use sgnn::linalg::par::set_threads;
use sgnn::linalg::QuantMode;
use sgnn::partition::multilevel::MultilevelConfig;
use sgnn::partition::{fennel, hash_partition, ldg, multilevel_partition, Partition};
use std::sync::Mutex;

/// Serializes tests that depend on the global thread count (the test
/// harness runs #[test] functions concurrently and `set_threads` is
/// process-wide).
static THREADS: Mutex<()> = Mutex::new(());

fn partition_by(which: usize, g: &CsrGraph, k: usize) -> Partition {
    match which {
        0 => hash_partition(g.num_nodes(), k),
        1 => ldg(g, k, 1.1),
        2 => fennel(g, k, 1.1),
        _ => multilevel_partition(g, k, &MultilevelConfig::default()),
    }
}

fn assert_reports_match(reference: &TrainReport, sharded: &TrainReport, tag: &str) {
    assert_eq!(
        sharded.final_loss.to_bits(),
        reference.final_loss.to_bits(),
        "{tag}: loss bits diverged ({} vs {})",
        sharded.final_loss,
        reference.final_loss
    );
    assert_eq!(sharded.val_acc, reference.val_acc, "{tag}: val accuracy diverged");
    assert_eq!(sharded.test_acc, reference.test_acc, "{tag}: test accuracy diverged");
    assert_eq!(sharded.epochs_run, reference.epochs_run, "{tag}: epoch count diverged");
}

fn assert_weights_match(reference: &Gcn, sharded: &Gcn, tag: &str) {
    for i in 0..reference.num_layers() {
        let (lr, ls) = (reference.layer(i), sharded.layer(i));
        assert!(
            lr.w.data().iter().map(|v| v.to_bits()).eq(ls.w.data().iter().map(|v| v.to_bits())),
            "{tag}: layer {i} weights diverged"
        );
        assert!(
            lr.b.data().iter().map(|v| v.to_bits()).eq(ls.b.data().iter().map(|v| v.to_bits())),
            "{tag}: layer {i} bias diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random dataset × random partitioner × random shard count: the
    /// sharded trainer walks the reference's exact trajectory.
    #[test]
    fn sharded_training_is_bitwise_identical(
        n in 150usize..500,
        k in 1usize..5,
        which in 0usize..4,
        hidden in 4usize..12,
        epochs in 2usize..6,
        seed in 0u64..1000,
    ) {
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let ds = sbm_dataset(n, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, seed);
        let cfg = TrainConfig { epochs, hidden: vec![hidden], seed, ..Default::default() };
        let (ref_gcn, ref_report) = train_full_gcn(&ds, &cfg).unwrap();
        let part = partition_by(which, &ds.graph, k);
        let (gcn, report, stats) = train_sharded_gcn(&ds, &part, &cfg).unwrap();
        let tag = format!("n={n} k={k} which={which} seed={seed}");
        assert_reports_match(&ref_report, &report, &tag);
        assert_weights_match(&ref_gcn, &gcn, &tag);
        prop_assert_eq!(stats.epochs, epochs);
    }

    /// Early stopping sees identical validation accuracies, so the
    /// sharded run stops at the identical epoch.
    #[test]
    fn early_stopping_trajectories_match(
        k in 2usize..5,
        which in 0usize..4,
        seed in 0u64..1000,
    ) {
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let ds = sbm_dataset(260, 3, 8.0, 0.9, 5, 0.7, 0, 0.5, 0.25, seed);
        let cfg = TrainConfig {
            epochs: 30,
            hidden: vec![8],
            patience: Some(3),
            seed,
            ..Default::default()
        };
        let (_, ref_report) = train_full_gcn(&ds, &cfg).unwrap();
        let part = partition_by(which, &ds.graph, k);
        let (_, report, _) = train_sharded_gcn(&ds, &part, &cfg).unwrap();
        assert_reports_match(&ref_report, &report, &format!("patience k={k} which={which}"));
    }
}

/// The headline grid, deterministic: one dataset, every partitioner
/// family × k ∈ {1, 2, 4}, all against a single reference run.
#[test]
fn all_partitioners_match_at_k_1_2_4() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let ds = sbm_dataset(320, 3, 9.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 11);
    let cfg = TrainConfig { epochs: 4, hidden: vec![8], ..Default::default() };
    let (ref_gcn, ref_report) = train_full_gcn(&ds, &cfg).unwrap();
    for which in 0..4usize {
        for k in [1usize, 2, 4] {
            let part = partition_by(which, &ds.graph, k);
            let (gcn, report, stats) = train_sharded_gcn(&ds, &part, &cfg).unwrap();
            let tag = format!("which={which} k={k}");
            assert_reports_match(&ref_report, &report, &tag);
            assert_weights_match(&ref_gcn, &gcn, &tag);
            // Measured exchange volume is exactly the plan's ghost count
            // per exchange, (L−1) forward + (L−1) backward times per
            // epoch — the identity benchsharding leans on.
            assert_eq!(
                stats.halo_vectors_per_epoch,
                stats.halo_vectors_per_exchange * stats.exchanges_per_epoch,
                "{tag}"
            );
        }
    }
}

/// Forces the pooled superstep path (2 configured threads) regardless of
/// host size, across every partitioner family.
#[test]
fn sharded_training_matches_at_two_threads() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let ds = sbm_dataset(300, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 5);
    let cfg = TrainConfig { epochs: 3, hidden: vec![8], ..Default::default() };
    set_threads(1);
    let (ref_gcn, ref_report) = train_full_gcn(&ds, &cfg).unwrap();
    set_threads(2);
    for which in 0..4usize {
        let part = partition_by(which, &ds.graph, 4);
        let (gcn, report, _) = train_sharded_gcn(&ds, &part, &cfg).unwrap();
        let tag = format!("2-thread which={which}");
        assert_reports_match(&ref_report, &report, &tag);
        assert_weights_match(&ref_gcn, &gcn, &tag);
    }
    set_threads(0);
}

/// A middle layer — input and output both exchanged, dropout seeded
/// `seed + 101` — walks the reference trajectory too: two hidden layers
/// with dropout on, in the exact regime and in the f32-identity
/// compressed regime, at k ∈ {2, 4}.
#[test]
fn middle_layer_with_dropout_matches_the_reference() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let ds = sbm_dataset(300, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 13);
    let exact = TrainConfig { epochs: 4, hidden: vec![8, 6], dropout: 0.3, ..Default::default() };
    let compressed = TrainConfig {
        comm_regime: CommRegime::Compressed { quant: QuantMode::F32, staleness: 1 },
        ..exact.clone()
    };
    let (ref_gcn, ref_report) = train_full_gcn(&ds, &exact).unwrap();
    for (regime, cfg) in [("exact", &exact), ("f32,s=1", &compressed)] {
        for k in [2usize, 4] {
            let part = hash_partition(ds.num_nodes(), k);
            let (gcn, report, _) = train_sharded_gcn(&ds, &part, cfg).unwrap();
            let tag = format!("{regime} k={k}");
            assert_reports_match(&ref_report, &report, &tag);
            assert_weights_match(&ref_gcn, &gcn, &tag);
        }
    }
}
