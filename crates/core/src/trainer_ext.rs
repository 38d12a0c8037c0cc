//! Extension trainers: historical-embedding training (HDSGNN [21] /
//! GNNAutoScale lineage) and SEIGNN [29]-style coarse-node-augmented
//! mini-batching.
//!
//! Both answer the same §3.3.2/§3.2.3 question — *how does a mini-batch
//! see beyond its own boundary without recursive expansion?* — with the
//! two surveyed mechanisms: cached (stale) out-of-batch embeddings, and a
//! coarse summary layer every batch can reach.

use crate::driver::{
    logits_accuracy, new_gcn, positive, rows_of, sage_accuracy, Driver, TrainMask,
};
use crate::error::TrainResult;
use crate::memory::matrix_bytes;
use crate::models::gcn::gcn_operator;
use crate::models::sage::{Sage, SageCache};
use crate::trainer::{TrainConfig, TrainReport};
use sgnn_data::Dataset;
use sgnn_graph::NodeId;
use sgnn_linalg::DenseMatrix;
use sgnn_nn::loss::softmax_cross_entropy;
use sgnn_obs::Phase;
use sgnn_sample::node_wise::sample_blocks;
use sgnn_sample::HistoryCache;
use std::time::Instant;

/// Statistics specific to the history trainer.
#[derive(Debug, Clone, Default)]
pub struct HistoryStats {
    /// Cache hit rate over all out-of-batch fetches.
    pub hit_rate: f64,
    /// Mean staleness (iterations) of served embeddings.
    pub mean_age: f64,
}

/// Trains a 2-layer GNN where the second layer's out-of-batch inputs come
/// from a historical-embedding cache instead of recursive sampling.
///
/// The computation graph per batch is **one** sampled hop regardless of
/// depth; the price is staleness, which the returned [`HistoryStats`]
/// quantifies. The model is a two-layer [`Sage`], evaluated layer-wise
/// over full neighbourhoods like [`crate::trainer::train_sampled`]'s.
/// The cache is not checkpointed, so a set `ckpt_dir` or `resume_from`
/// is refused. `fanout` and `batch_size` must be positive.
pub fn train_history(
    ds: &Dataset,
    fanout: usize,
    cfg: &TrainConfig,
) -> TrainResult<(TrainReport, HistoryStats)> {
    positive("fanout", fanout)?;
    positive("batch_size", cfg.batch_size)?;
    let mut driver = Driver::without_checkpoints(cfg, ds, "history-cache")?;
    let hidden = *cfg.hidden.first().unwrap_or(&32);
    let d = ds.feature_dim();
    let n = ds.num_nodes();
    driver.ledger.try_alloc(ds.features.nbytes())?;
    let cache = HistoryCache::new(n, hidden);
    driver.ledger.try_alloc(cache.nbytes())?;
    // Layer 1: features → hidden; layer 2: hidden → classes.
    let mut sage = Sage::new(&[d, hidden, ds.num_classes], cfg.seed);
    let mask = TrainMask::new(ds);
    let (mut iter, mut fetches, mut hits, mut age_sum) = (0u64, 0u64, 0u64, 0f64);
    // Both layer steps' caches and the hidden gradient, reused across
    // every batch of every epoch.
    let (mut cache1, mut cache2) = (SageCache::default(), SageCache::default());
    let mut d_h1 = DenseMatrix::default();
    // GAS-style schedule: batches cover *every* node (so each node's
    // history refreshes once per epoch); the loss only uses train members.
    let mut schedule: Vec<NodeId> = (0..n as NodeId).collect();
    let report = driver.run(
        "history-cache".into(),
        0.0,
        &mut sage,
        |sage, ep| {
            let epoch = ep.index;
            // Deterministic reshuffle per epoch.
            let mut rng = sgnn_linalg::rng::seeded(cfg.seed.wrapping_add(epoch as u64));
            for i in (1..schedule.len()).rev() {
                use rand::RngExt;
                let j = rng.random_range(0..=i);
                schedule.swap(i, j);
            }
            let mut loss = None;
            for (bi, chunk) in schedule.chunks(cfg.batch_size).enumerate() {
                iter += 1;
                let seed = cfg.seed.wrapping_add((epoch * 7919 + bi) as u64);
                let (blocks, blocks1, x_src1) = ep.phases.time(Phase::Sample, || {
                    // One sampled hop for layer 2's neighborhood.
                    let blocks = sample_blocks(&ds.graph, chunk, &[fanout], seed);
                    // Fresh layer-1 activations for the *batch* nodes only;
                    // their own features are the dst prefix of `x_src1`.
                    let blocks1 = sample_blocks(&ds.graph, chunk, &[fanout], seed ^ 0xABCD);
                    let x_src1 = ds.features.gather_rows(&rows_of(&blocks1[0].src));
                    (blocks, blocks1, x_src1)
                });
                let block = &blocks[0];
                let b1 = &blocks1[0];
                // Loss over the chunk's train members only; other rows get
                // zero gradient (their forward still refreshes the cache).
                let weights: Vec<f32> =
                    chunk.iter().map(|&u| if mask.contains(u) { 1.0 } else { 0.0 }).collect();
                let trains = weights.iter().any(|&w| w != 0.0);
                if trains {
                    // Layer-1 inputs, layer-2 inputs (fresh + cached), the
                    // fresh activations and their gradient, and the
                    // layer-2 aggregate.
                    ep.ledger.try_transient(
                        x_src1.nbytes()
                            + matrix_bytes(block.src.len(), hidden)
                            + 2 * matrix_bytes(chunk.len(), hidden)
                            + matrix_bytes(block.num_dst(), hidden),
                    )?;
                }
                let [l1, l2] = &sage.layers[..] else { unreachable!("two layers") };
                let (h1_batch, logits) = ep.phases.time(Phase::Forward, || {
                    let h1_batch = l1.layer_forward(b1.view(), &x_src1, None, &mut cache1);
                    // Layer-2 inputs: fresh h1 for the batch prefix, cached h1
                    // for the out-of-batch sources (stop-gradient).
                    let (cached, hit, age) = cache.fetch_batch(&block.src[chunk.len()..], iter);
                    fetches += (block.src.len() - chunk.len()) as u64;
                    hits += hit as u64;
                    age_sum += age * hit as f64;
                    let h1_src = h1_batch.concat_rows(&cached).expect("widths equal");
                    let logits = l2.layer_forward(block.view(), &h1_src, None, &mut cache2);
                    (h1_batch, logits)
                });
                if !trains {
                    cache.push_batch(chunk, iter, &h1_batch);
                    continue;
                }
                let (l, dl) = ep.phases.time(Phase::Forward, || {
                    softmax_cross_entropy(&logits, &ds.labels_of(chunk), Some(&weights))
                });
                loss = Some(l);
                ep.phases.time(Phase::Backward, || {
                    sage.zero_grad();
                    let [l1, l2] = &mut sage.layers[..] else { unreachable!("two layers") };
                    l2.layer_backward(block.view(), &mut cache2, &dl, Some(&mut d_h1));
                    // Only the fresh prefix is differentiable; cached rows are
                    // constants.
                    let mut rows = std::mem::take(&mut d_h1).into_vec();
                    rows.truncate(chunk.len() * hidden);
                    d_h1 = DenseMatrix::from_vec(chunk.len(), hidden, rows);
                    l1.layer_backward(b1.view(), &mut cache1, &d_h1, None);
                });
                let opt = &mut *ep.opt;
                ep.phases.time(Phase::Step, || sage.step(opt));
                // Refresh the cache with this batch's fresh activations.
                cache.push_batch(chunk, iter, &h1_batch);
            }
            Ok(loss)
        },
        |sage, test| Ok(sage_accuracy(ds, sage, test)),
    )?;
    let stats = HistoryStats {
        hit_rate: hits as f64 / fetches.max(1) as f64,
        mean_age: if hits > 0 { age_sum / hits as f64 } else { 0.0 },
    };
    Ok((report, stats))
}

/// SEIGNN-style training: partition into subgraphs, add linked coarse
/// nodes, and train GCN batches of (one subgraph + all coarse nodes) so
/// inter-subgraph information keeps flowing.
pub fn train_seignn(ds: &Dataset, parts: usize, cfg: &TrainConfig) -> TrainResult<TrainReport> {
    positive("parts", parts)?;
    let mut driver = Driver::new(cfg, ds)?;
    let t0 = Instant::now();
    let p = sgnn_partition::multilevel_partition(
        &ds.graph,
        parts,
        &sgnn_partition::multilevel::MultilevelConfig { seed: cfg.seed, ..Default::default() },
    );
    let aug = sgnn_coarsen::seignn::augment(&ds.graph, &p);
    let ax = aug.augment_features(&ds.features);
    let precompute_secs = t0.elapsed().as_secs_f64();
    driver.ledger.try_alloc(ax.nbytes())?;
    let mut gcn = new_gcn(ds, cfg);
    let mask = TrainMask::new(ds);
    driver.run(
        format!("seignn-p{parts}"),
        precompute_secs,
        &mut gcn,
        |gcn, ep| {
            let mut loss = None;
            for part in 0..parts as u32 {
                let (op, x, idx, labels) = ep.phases.time(Phase::Sample, || {
                    let (sub, map) = aug.batch_subgraph(part);
                    let (idx, labels) = mask.loss_rows(ds, &map);
                    (gcn_operator(&sub), ax.gather_rows(&rows_of(&map)), idx, labels)
                });
                loss = ep.gcn_batch(gcn, &op, &x, &idx, &labels, None)?.or(loss);
            }
            Ok(loss)
        },
        |gcn, test| {
            // Evaluate on the full augmented graph; read original-node logits.
            let op = gcn_operator(&aug.graph);
            Ok(logits_accuracy(ds, &gcn.forward_inference(&op, &ax), test))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_data::sbm_dataset;

    #[test]
    fn history_trainer_learns_with_warm_cache() {
        let ds = sbm_dataset(800, 3, 10.0, 0.9, 8, 0.8, 0, 0.5, 0.25, 1);
        let cfg =
            TrainConfig { epochs: 30, hidden: vec![16], batch_size: 100, ..Default::default() };
        let (report, stats) = train_history(&ds, 5, &cfg).unwrap();
        assert!(report.test_acc > 0.75, "acc {}", report.test_acc);
        // After the first epoch the cache serves most fetches.
        assert!(stats.hit_rate > 0.5, "hit rate {}", stats.hit_rate);
        assert!(stats.mean_age > 0.0);
    }

    #[test]
    fn seignn_trainer_learns_and_beats_isolated_batches() {
        let ds = sbm_dataset(900, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 2);
        let cfg = TrainConfig { epochs: 30, hidden: vec![16], ..Default::default() };
        let r = train_seignn(&ds, 6, &cfg).unwrap();
        assert!(r.test_acc > 0.75, "seignn acc {}", r.test_acc);
    }
}
