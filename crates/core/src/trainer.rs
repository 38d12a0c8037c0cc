//! Training loops — one per scalability family, all producing a common
//! [`TrainReport`] with accuracy, wall time, and peak-memory accounting.
//!
//! | trainer | family | survey anchor |
//! |---|---|---|
//! | [`train_full_gcn`] | full-graph message passing | §3.1.1 baseline |
//! | [`train_decoupled`] | decoupled precompute + MLP | §3.1.2, APPNP/SGC/SCARA/LD2 |
//! | [`train_sampled`] | neighbor-sampled mini-batch | §3.1.2/§3.3.2, GraphSAGE/LADIES/LABOR |
//! | [`train_saint`] | subgraph sampling | §3.3.2, GraphSAINT |
//! | [`train_cluster_gcn`] | partition batches | §3.1.2, Cluster-GCN |
//! | [`train_coarse`] | coarse-graph training | §3.3.4 |
//!
//! Each supplies only its set-up, per-epoch body and eval; the shared
//! epoch loop, checkpoints and memory rules live in `crate::driver`.

use crate::driver::{
    layer_dims, logits_accuracy, new_gcn, positive, rows_of, sage_accuracy, split_scores, Driver,
    TrainMask,
};
use crate::error::{TrainError, TrainResult};
use crate::memory::matrix_bytes;
use crate::models::decoupled::{DecoupledModel, PrecomputeMethod};
use crate::models::gcn::{gcn_operator, Gcn};
use crate::models::sage::Sage;
use crate::shard_comm::CommRegime;
use sgnn_data::Dataset;
use sgnn_fault::FaultPlan;
use sgnn_graph::NodeId;
use sgnn_nn::loss::{accuracy, softmax_cross_entropy};
use sgnn_obs::{Phase, PhaseBreakdown};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Shared hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Mini-batch size (where applicable).
    pub batch_size: usize,
    /// Hidden widths.
    pub hidden: Vec<usize>,
    /// Dropout.
    pub dropout: f32,
    /// Seed for weights/sampling.
    pub seed: u64,
    /// Early stopping: stop after this many epochs without validation
    /// improvement (`None` disables). Halts training in place — no
    /// best-weight rollback — so values below ~10 can stop inside the
    /// optimizer's warmup.
    pub patience: Option<usize>,
    /// Overlap batch sampling with compute via the
    /// [`crate::pipeline::BatchPipeline`] (mini-batch trainers only).
    /// Results are bitwise identical either way; with a single configured
    /// thread the trainers fall back to the inline path regardless.
    pub prefetch: bool,
    /// Directory for rolling post-epoch checkpoints (one
    /// `<trainer>.ckpt` file per trainer, atomically replaced each
    /// epoch). `None` disables checkpointing. Trainers with no
    /// restorable state refuse it (and `resume_from`).
    pub ckpt_dir: Option<PathBuf>,
    /// Checkpoint file to restore before training. A missing file is a
    /// cold start (the killed-before-first-checkpoint case); a corrupt
    /// or mismatched file is an error. Resumed runs reproduce the
    /// uninterrupted run bit-for-bit (DESIGN.md §8).
    pub resume_from: Option<PathBuf>,
    /// Deterministic fault injector polled at epoch/superstep/batch
    /// boundaries (tests and chaos drills). `None` means no polls — and
    /// no checksum-verification overhead on the halo path.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Explicit memory budget in bytes; combined (min) with
    /// `SGNN_MEM_BUDGET` and any fault-plan budget. Exceeding it makes
    /// trainers return [`TrainError::BudgetExceeded`].
    pub mem_budget: Option<usize>,
    /// Halo-exchange regime for [`crate::shard::train_sharded_gcn`]:
    /// `Exact` (default, bitwise-identical to the reference) or
    /// `Compressed` (quantized / stale-tolerant / overlapped, DESIGN.md
    /// §11). Ignored by the single-process trainers.
    pub comm_regime: CommRegime,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            lr: 0.01,
            weight_decay: 5e-5,
            batch_size: 256,
            hidden: vec![32],
            dropout: 0.2,
            seed: 0,
            patience: None,
            prefetch: true,
            ckpt_dir: None,
            resume_from: None,
            fault_plan: None,
            mem_budget: None,
            comm_regime: CommRegime::Exact,
        }
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Method label for tables.
    pub name: String,
    /// Final test accuracy.
    pub test_acc: f64,
    /// Final validation accuracy.
    pub val_acc: f64,
    /// Final training loss.
    pub final_loss: f32,
    /// Graph-side precompute seconds (0 for coupled models).
    pub precompute_secs: f64,
    /// Training-loop seconds.
    pub train_secs: f64,
    /// Peak resident bytes charged to the memory ledger.
    pub peak_mem_bytes: usize,
    /// Epochs executed.
    pub epochs_run: usize,
    /// Wall-clock seconds per phase, summed over the whole run.
    pub phases: PhaseBreakdown,
}

serde::impl_serialize!(TrainReport {
    name,
    test_acc,
    val_acc,
    final_loss,
    precompute_secs,
    train_secs,
    peak_mem_bytes,
    epochs_run,
    phases
});

/// Trains a full-batch GCN (experiment baseline).
pub fn train_full_gcn(ds: &Dataset, cfg: &TrainConfig) -> TrainResult<(Gcn, TrainReport)> {
    let mut driver = Driver::new(cfg, ds)?;
    let t0 = Instant::now();
    let op = gcn_operator(&ds.graph);
    let precompute_secs = t0.elapsed().as_secs_f64();
    driver.ledger.try_alloc(op.nbytes())?;
    driver.ledger.try_alloc(ds.features.nbytes())?;
    let mut gcn = new_gcn(ds, cfg);
    // Full-batch training keeps every layer activation resident.
    driver.ledger.try_transient(gcn.step_bytes(ds.num_nodes(), ds.feature_dim()))?;
    let train_rows = rows_of(&ds.splits.train);
    let train_labels = ds.labels_of(&ds.splits.train);
    let report = driver.run(
        "gcn-full".into(),
        precompute_secs,
        &mut gcn,
        |gcn, ep| Ok(Some(ep.gcn_step(gcn, &op, &ds.features, &train_rows, &train_labels, None))),
        |gcn, test| Ok(logits_accuracy(ds, &gcn.forward_inference(&op, &ds.features), test)),
    )?;
    Ok((gcn, report))
}

/// Trains a decoupled model (precompute + mini-batch MLP). The MLP has no
/// checkpointable state, so a set `ckpt_dir` or `resume_from` is refused.
pub fn train_decoupled(
    ds: &Dataset,
    method: &PrecomputeMethod,
    cfg: &TrainConfig,
) -> TrainResult<(DecoupledModel, TrainReport)> {
    let name = match method {
        PrecomputeMethod::None => "mlp-raw".to_string(),
        PrecomputeMethod::Sgc { k } => format!("sgc-k{k}"),
        PrecomputeMethod::Appnp { .. } => "appnp".to_string(),
        PrecomputeMethod::Scara { .. } => "scara-push".to_string(),
        PrecomputeMethod::Heat { .. } => "heat".to_string(),
        PrecomputeMethod::Ld2(_) => "ld2".to_string(),
    };
    let mut driver = Driver::without_checkpoints(cfg, ds, &name)?;
    let t0 = Instant::now();
    let mut model = DecoupledModel::new(ds, method, &cfg.hidden, cfg.dropout, cfg.seed);
    let precompute_secs = t0.elapsed().as_secs_f64();
    // The embedding is the only graph-scale resident object; training
    // touches batch-sized slices.
    driver.ledger.try_alloc(model.embedding.nbytes())?;
    driver.ledger.try_transient(
        matrix_bytes(cfg.batch_size, model.embedding.cols())
            + matrix_bytes(cfg.batch_size, ds.num_classes)
            + model.mlp.nbytes(),
    )?;
    let report = driver.run(
        name,
        precompute_secs,
        &mut model,
        |model, ep| {
            let mut loss = None;
            for chunk in ds.splits.train.chunks(cfg.batch_size) {
                let x =
                    ep.phases.time(Phase::Sample, || model.embedding.gather_rows(&rows_of(chunk)));
                let (l, dl) = ep.phases.time(Phase::Forward, || {
                    let logits = model.mlp.forward(&x);
                    softmax_cross_entropy(&logits, &ds.labels_of(chunk), None)
                });
                loss = Some(l);
                ep.phases.time(Phase::Backward, || {
                    model.mlp.zero_grad();
                    model.mlp.backward(&dl);
                });
                let opt = &mut *ep.opt;
                ep.phases.time(Phase::Step, || model.mlp.step(opt));
            }
            Ok(loss)
        },
        |model, test| {
            Ok(split_scores(ds, test, |nodes| {
                accuracy(&model.logits_for(nodes), &ds.labels_of(nodes))
            }))
        },
    )?;
    Ok((model, report))
}

/// Neighbor-sampling strategy for [`train_sampled`].
#[derive(Debug, Clone)]
pub enum SamplerKind {
    /// GraphSAGE node-wise fanouts (outermost layer first).
    NodeWise(Vec<usize>),
    /// LADIES layer sizes.
    LayerWise(Vec<usize>),
    /// LABOR fanouts.
    Labor(Vec<usize>),
}

impl SamplerKind {
    /// Fanouts or layer sizes, one per layer.
    fn sizes(&self) -> &[usize] {
        match self {
            SamplerKind::NodeWise(f) | SamplerKind::LayerWise(f) | SamplerKind::Labor(f) => f,
        }
    }

    fn sample(
        &self,
        g: &sgnn_graph::CsrGraph,
        targets: &[NodeId],
        seed: u64,
    ) -> Vec<sgnn_sample::Block> {
        match self {
            SamplerKind::NodeWise(f) => sgnn_sample::node_wise::sample_blocks(g, targets, f, seed),
            SamplerKind::LayerWise(s) => {
                sgnn_sample::layer_wise::ladies_blocks(g, targets, s, seed)
            }
            SamplerKind::Labor(f) => sgnn_sample::labor::labor_blocks(g, targets, f, seed),
        }
    }
}

/// Trains a sampled GraphSAGE model with the given sampler. The sampler
/// needs one positive fanout (or layer size) per layer, `hidden.len() + 1`,
/// and `batch_size` must be positive. Evaluation is layer-wise over full
/// neighbourhoods ([`Sage::forward_full`]), whatever the sampler.
pub fn train_sampled(
    ds: &Dataset,
    sampler: &SamplerKind,
    cfg: &TrainConfig,
) -> TrainResult<(Sage, TrainReport)> {
    let sizes = sampler.sizes();
    if sizes.len() != cfg.hidden.len() + 1 {
        return Err(TrainError::InvalidInput(format!(
            "{} fanouts for {} layers",
            sizes.len(),
            cfg.hidden.len() + 1
        )));
    }
    positive("batch_size", cfg.batch_size)?;
    for &size in sizes {
        positive("fanout", size)?;
    }
    let mut driver = Driver::new(cfg, ds)?;
    driver.ledger.try_alloc(ds.features.nbytes())?; // feature store stays host-side resident
    let name = match sampler {
        SamplerKind::NodeWise(_) => "sage-nodewise",
        SamplerKind::LayerWise(_) => "sage-ladies",
        SamplerKind::Labor(_) => "sage-labor",
    };
    let mut sage = Sage::new(&layer_dims(ds, cfg), cfg.seed);
    let chunks: Vec<&[NodeId]> = ds.splits.train.chunks(cfg.batch_size).collect();
    let report = driver.run(
        name.into(),
        0.0,
        &mut sage,
        |sage, ep| {
            // The double buffer keeps at most one prefetched batch alive
            // next to the one being computed.
            let copies = if ep.pipeline().is_pipelined() { 2 } else { 1 };
            let epoch = ep.index;
            ep.batches(
                chunks.len(),
                |bi| {
                    let seed = cfg
                        .seed
                        .wrapping_add((epoch * 10_000 + bi) as u64)
                        .wrapping_mul(0x9E37_79B9);
                    let blocks = sampler.sample(&ds.graph, chunks[bi], seed);
                    let x_in = ds.features.gather_rows(&rows_of(&blocks[0].src));
                    (blocks, x_in)
                },
                |ep, bi, (blocks, x_in)| {
                    // Batch-resident: input features + per-layer activations
                    // (≈2× input) + block structure.
                    let blocks_bytes = blocks.iter().map(|b| b.nbytes()).sum::<usize>();
                    ep.ledger.try_transient(copies * (3 * x_in.nbytes() + blocks_bytes))?;
                    let (loss, dl) = ep.phases.time(Phase::Forward, || {
                        let logits = sage.forward(&blocks, &x_in);
                        softmax_cross_entropy(&logits, &ds.labels_of(chunks[bi]), None)
                    });
                    ep.phases.time(Phase::Backward, || {
                        sage.zero_grad();
                        sage.backward(&blocks, &dl);
                    });
                    let opt = &mut *ep.opt;
                    ep.phases.time(Phase::Step, || sage.step(opt));
                    Ok(Some(loss))
                },
            )
        },
        |sage, test| Ok(sage_accuracy(ds, sage, test)),
    )?;
    Ok((sage, report))
}

/// Trains a GCN on GraphSAINT subgraph batches.
pub fn train_saint(
    ds: &Dataset,
    sampler: sgnn_sample::SaintSampler,
    batches_per_epoch: usize,
    cfg: &TrainConfig,
) -> TrainResult<(Gcn, TrainReport)> {
    let mut driver = Driver::new(cfg, ds)?;
    driver.ledger.try_alloc(ds.features.nbytes())?;
    let t0 = Instant::now();
    let norms = sgnn_sample::saint::estimate_norms(&ds.graph, sampler, 20, cfg.seed);
    let precompute_secs = t0.elapsed().as_secs_f64();
    let sampler_name = match sampler {
        sgnn_sample::SaintSampler::Node { .. } => "node",
        sgnn_sample::SaintSampler::Edge { .. } => "edge",
        sgnn_sample::SaintSampler::RandomWalk { .. } => "rw",
    };
    let mut gcn = new_gcn(ds, cfg);
    let mask = TrainMask::new(ds);
    let report = driver.run(
        format!("saint-{sampler_name}"),
        precompute_secs,
        &mut gcn,
        |gcn, ep| {
            let epoch = ep.index;
            ep.batches(
                batches_per_epoch,
                |b| {
                    let seed = cfg.seed.wrapping_add((epoch * 1_000 + b) as u64 + 17);
                    let mut sub = sgnn_sample::saint::sample_subgraph(&ds.graph, sampler, seed);
                    sgnn_sample::saint::apply_norms(&mut sub, &norms);
                    let x = ds.features.gather_rows(&rows_of(&sub.nodes));
                    // Only training nodes in the subgraph contribute to the loss.
                    let (idx, labels) = mask.loss_rows(ds, &sub.nodes);
                    let weights: Vec<f32> = idx.iter().map(|&l| sub.loss_weights[l]).collect();
                    (gcn_operator(&sub.graph), x, idx, labels, weights)
                },
                |ep, _, (op, x, idx, labels, weights)| {
                    ep.gcn_batch(gcn, &op, &x, &idx, &labels, Some(&weights))
                },
            )
        },
        |gcn, test| {
            // Full-graph inference for evaluation.
            let op = gcn_operator(&ds.graph);
            Ok(logits_accuracy(ds, &gcn.forward_inference(&op, &ds.features), test))
        },
    )?;
    Ok((gcn, report))
}

/// Trains a GCN on Cluster-GCN partition batches.
pub fn train_cluster_gcn(
    ds: &Dataset,
    num_clusters: usize,
    clusters_per_batch: usize,
    cfg: &TrainConfig,
) -> TrainResult<(Gcn, TrainReport)> {
    positive("num_clusters", num_clusters)?;
    positive("clusters_per_batch", clusters_per_batch)?;
    let mut driver = Driver::new(cfg, ds)?;
    driver.ledger.try_alloc(ds.features.nbytes())?;
    let t0 = Instant::now();
    let batcher = sgnn_partition::cluster::ClusterBatcher::new(&ds.graph, num_clusters, cfg.seed);
    let precompute_secs = t0.elapsed().as_secs_f64();
    let mut gcn = new_gcn(ds, cfg);
    let mask = TrainMask::new(ds);
    let report = driver.run(
        "cluster-gcn".into(),
        precompute_secs,
        &mut gcn,
        |gcn, ep| {
            // Partition assignment is one epoch-level shuffle, not per-batch
            // work — it stays inline; only per-batch operator/feature
            // construction rides the prefetch pipeline.
            let seed = cfg.seed + ep.index as u64;
            let batches = ep
                .phases
                .time(Phase::Sample, || batcher.epoch_batches(&ds.graph, clusters_per_batch, seed));
            ep.batches(
                batches.len(),
                |b| {
                    let batch = &batches[b];
                    let x = ds.features.gather_rows(&rows_of(&batch.nodes));
                    let (idx, labels) = mask.loss_rows(ds, &batch.nodes);
                    (gcn_operator(&batch.graph), x, idx, labels)
                },
                |ep, _, (op, x, idx, labels)| ep.gcn_batch(gcn, &op, &x, &idx, &labels, None),
            )
        },
        |gcn, test| {
            let op = gcn_operator(&ds.graph);
            Ok(logits_accuracy(ds, &gcn.forward_inference(&op, &ds.features), test))
        },
    )?;
    Ok((gcn, report))
}

/// Trains a GCN on a coarsened graph and lifts predictions (E12).
pub fn train_coarse(ds: &Dataset, ratio: f64, cfg: &TrainConfig) -> TrainResult<TrainReport> {
    let t0 = Instant::now();
    let coarse = sgnn_coarsen::coarsen_to_ratio(&ds.graph, ratio, cfg.seed);
    let coarsen_secs = t0.elapsed().as_secs_f64();
    let mut r = train_coarse_with(ds, &coarse, cfg, &format!("coarse-r{ratio}"))?;
    r.precompute_secs += coarsen_secs;
    Ok(r)
}

/// Trains a GCN on a *given* coarsening (HEM, ConvMatch, …) and lifts
/// predictions back to the fine graph.
pub fn train_coarse_with(
    ds: &Dataset,
    coarse: &sgnn_coarsen::CoarseGraph,
    cfg: &TrainConfig,
    name: &str,
) -> TrainResult<TrainReport> {
    let mut driver = Driver::new(cfg, ds)?;
    let t0 = Instant::now();
    // Projection reads the fine feature matrix while the coarse one is
    // being built, so both are briefly resident together.
    driver.ledger.try_alloc(ds.features.nbytes())?;
    let cx = coarse.project_features(&ds.features);
    let precompute_secs = t0.elapsed().as_secs_f64();
    driver.ledger.try_alloc(cx.nbytes())?;
    driver.ledger.free(ds.features.nbytes());
    driver.ledger.try_alloc(coarse.graph.nbytes())?;
    // Coarse training labels: majority vote over *train-split members*
    // only, so test labels never leak into training.
    let cn = coarse.num_coarse();
    let mut votes = vec![0u32; cn * ds.num_classes];
    for &u in &ds.splits.train {
        let c = coarse.map[u as usize] as usize;
        votes[c * ds.num_classes + ds.labels[u as usize]] += 1;
    }
    let (mut train_coarse_nodes, mut train_labels) = (Vec::new(), Vec::new());
    for (c, row) in votes.chunks(ds.num_classes).enumerate() {
        if row.iter().any(|&v| v > 0) {
            train_coarse_nodes.push(c);
            // `row` is non-empty: the driver refuses zero-class datasets.
            let majority = row.iter().enumerate().max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)));
            train_labels.push(majority.expect("num_classes >= 1").0);
        }
    }
    let op = gcn_operator(&coarse.graph);
    let mut gcn = new_gcn(ds, cfg);
    driver.ledger.try_transient(gcn.step_bytes(cn, ds.feature_dim()))?;
    driver.run(
        name.to_string(),
        precompute_secs,
        &mut gcn,
        |gcn, ep| Ok(Some(ep.gcn_step(gcn, &op, &cx, &train_coarse_nodes, &train_labels, None))),
        |gcn, test| {
            // Lift coarse logits to fine nodes and evaluate on the real test set.
            let fine_logits = coarse.lift_rows(&gcn.forward_inference(&op, &cx));
            Ok(logits_accuracy(ds, &fine_logits, test))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_data::sbm_dataset;

    fn small_ds() -> Dataset {
        sbm_dataset(600, 3, 10.0, 0.9, 6, 0.8, 0, 0.5, 0.25, 1)
    }

    fn fast_cfg() -> TrainConfig {
        TrainConfig { epochs: 40, hidden: vec![16], dropout: 0.1, ..Default::default() }
    }

    #[test]
    fn full_gcn_report_is_complete_and_accurate() {
        let ds = small_ds();
        let (_, r) = train_full_gcn(&ds, &fast_cfg()).unwrap();
        assert!(r.test_acc > 0.8, "acc {}", r.test_acc);
        assert!(r.peak_mem_bytes > 0);
        assert!(r.train_secs > 0.0);
        // Phase totals are always measured (observability off included) and
        // must account for nearly all of the training-loop wall time.
        let phase_sum = r.phases.total_secs();
        assert!(phase_sum > 0.0);
        assert!(phase_sum <= r.train_secs * 1.01 + 1e-3, "{phase_sum} vs {}", r.train_secs);
        assert!(phase_sum >= r.train_secs * 0.5, "{phase_sum} vs {}", r.train_secs);
        let json = serde::json::to_string(&r);
        assert!(json.starts_with("{\"name\":\"gcn-full\""));
        assert!(json.contains("\"phases\":{\"sample_secs\":"));
    }

    #[test]
    fn decoupled_sgc_matches_gcn_accuracy_with_less_memory() {
        let ds = small_ds();
        let (_, gcn) = train_full_gcn(&ds, &fast_cfg()).unwrap();
        let (_, sgc) = train_decoupled(&ds, &PrecomputeMethod::Sgc { k: 2 }, &fast_cfg()).unwrap();
        assert!(sgc.test_acc > gcn.test_acc - 0.07, "sgc {} vs gcn {}", sgc.test_acc, gcn.test_acc);
        assert!(
            sgc.peak_mem_bytes < gcn.peak_mem_bytes,
            "decoupled {} !< full {}",
            sgc.peak_mem_bytes,
            gcn.peak_mem_bytes
        );
    }

    #[test]
    fn sampled_trainers_learn() {
        let ds = small_ds();
        let cfg =
            TrainConfig { epochs: 25, hidden: vec![16], batch_size: 128, ..Default::default() };
        let (_, nw) = train_sampled(&ds, &SamplerKind::NodeWise(vec![5, 5]), &cfg).unwrap();
        assert!(nw.test_acc > 0.7, "node-wise {}", nw.test_acc);
        let (_, lb) = train_sampled(&ds, &SamplerKind::Labor(vec![5, 5]), &cfg).unwrap();
        assert!(lb.test_acc > 0.7, "labor {}", lb.test_acc);
    }

    #[test]
    fn saint_and_cluster_trainers_learn() {
        let ds = small_ds();
        let cfg = TrainConfig { epochs: 25, hidden: vec![16], ..Default::default() };
        let (_, saint) = train_saint(
            &ds,
            sgnn_sample::SaintSampler::RandomWalk { roots: 40, length: 6 },
            4,
            &cfg,
        )
        .unwrap();
        assert!(saint.test_acc > 0.7, "saint {}", saint.test_acc);
        let (_, cgcn) = train_cluster_gcn(&ds, 8, 2, &cfg).unwrap();
        assert!(cgcn.test_acc > 0.7, "cluster {}", cgcn.test_acc);
    }

    #[test]
    fn early_stopping_halts_before_epoch_budget() {
        let ds = small_ds();
        let cfg = TrainConfig { epochs: 500, patience: Some(20), ..fast_cfg() };
        let (_, r) = train_full_gcn(&ds, &cfg).unwrap();
        assert!(r.epochs_run < 500, "ran all {} epochs", r.epochs_run);
        assert!(r.test_acc > 0.8, "acc {}", r.test_acc);
        let (_, rd) = train_decoupled(&ds, &PrecomputeMethod::Sgc { k: 2 }, &cfg).unwrap();
        assert!(rd.epochs_run < 500);
        assert!(rd.test_acc > 0.8);
        let (_, rs) = train_sampled(&ds, &SamplerKind::NodeWise(vec![5, 5]), &cfg).unwrap();
        assert!(rs.epochs_run < 500, "sampled ran all {} epochs", rs.epochs_run);
        assert!(rs.test_acc > 0.7, "sampled acc {}", rs.test_acc);
        let re = crate::trainer_ext::train_seignn(&ds, 6, &cfg).unwrap();
        assert!(re.epochs_run < 500, "seignn ran all {} epochs", re.epochs_run);
        assert!(re.test_acc > 0.8, "seignn acc {}", re.test_acc);
    }

    #[test]
    fn coarse_training_trades_accuracy_for_cost() {
        let ds = small_ds();
        let cfg = fast_cfg();
        let full = train_full_gcn(&ds, &cfg).unwrap().1;
        let half = train_coarse(&ds, 0.5, &cfg).unwrap();
        assert!(half.test_acc > 0.6, "coarse acc {}", half.test_acc);
        // Coarse training uses less peak memory than full training.
        assert!(half.peak_mem_bytes < full.peak_mem_bytes);
    }
}
