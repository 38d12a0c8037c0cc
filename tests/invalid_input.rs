//! Caller input a trainer cannot run is refused at the front door with
//! `TrainError::InvalidInput`, before any work: never a panic, never an
//! `Ok` that measured nothing.
//!
//! One table row per bad input × trainer it applies to. Each row runs
//! under `catch_unwind`, so a panic fails the row instead of the binary.

use sgnn::core::models::decoupled::PrecomputeMethod;
use sgnn::core::shard::train_sharded_gcn;
use sgnn::core::trainer::{
    train_cluster_gcn, train_coarse, train_decoupled, train_full_gcn, train_saint, train_sampled,
    SamplerKind, TrainConfig,
};
use sgnn::core::trainer_ext::{train_history, train_seignn};
use sgnn::core::{TrainError, TrainResult};
use sgnn::data::{sbm_dataset, Dataset};
use sgnn::partition::hash_partition;
use sgnn::sample::SaintSampler;
use std::panic::{catch_unwind, AssertUnwindSafe};

type Run = Box<dyn Fn(&Dataset, &TrainConfig) -> TrainResult<()>>;

fn sampled(sampler: SamplerKind) -> Run {
    Box::new(move |ds, cfg| train_sampled(ds, &sampler, cfg).map(drop))
}

fn history(fanout: usize) -> Run {
    Box::new(move |ds, cfg| train_history(ds, fanout, cfg).map(drop))
}

fn cluster(num_clusters: usize, clusters_per_batch: usize) -> Run {
    Box::new(move |ds, cfg| train_cluster_gcn(ds, num_clusters, clusters_per_batch, cfg).map(drop))
}

fn seignn(parts: usize) -> Run {
    Box::new(move |ds, cfg| train_seignn(ds, parts, cfg).map(drop))
}

fn saint(sampler: SaintSampler) -> Run {
    Box::new(move |ds, cfg| train_saint(ds, sampler, 2, cfg).map(drop))
}

fn decoupled(method: PrecomputeMethod) -> Run {
    Box::new(move |ds, cfg| train_decoupled(ds, &method, cfg).map(drop))
}

fn coarse(ratio: f64) -> Run {
    Box::new(move |ds, cfg| train_coarse(ds, ratio, cfg).map(drop))
}

fn full() -> Run {
    Box::new(|ds, cfg| train_full_gcn(ds, cfg).map(drop))
}

fn sharded(k: usize) -> Run {
    Box::new(move |ds, cfg| {
        train_sharded_gcn(ds, &hash_partition(ds.num_nodes(), k), cfg).map(drop)
    })
}

fn assert_refused(name: &str, ds: &Dataset, cfg: &TrainConfig, run: &Run) {
    match catch_unwind(AssertUnwindSafe(|| run(ds, cfg))) {
        Err(_) => panic!("{name}: panicked"),
        Ok(Ok(())) => panic!("{name}: returned Ok"),
        Ok(Err(TrainError::InvalidInput(_))) => {}
        Ok(Err(e)) => panic!("{name}: expected InvalidInput, got {e}"),
    }
}

fn dataset() -> Dataset {
    sbm_dataset(200, 3, 6.0, 0.85, 6, 0.6, 0, 0.5, 0.25, 3)
}

fn config() -> TrainConfig {
    TrainConfig { epochs: 2, hidden: vec![8], batch_size: 32, ..Default::default() }
}

#[test]
fn bad_trainer_input_is_refused_without_panic() {
    let ds = dataset();
    let cfg = config();
    let zero_batch = TrainConfig { batch_size: 0, ..cfg.clone() };
    let cases: Vec<(&str, TrainConfig, Run)> = vec![
        ("sampled: batch_size 0", zero_batch.clone(), sampled(SamplerKind::NodeWise(vec![4, 4]))),
        ("sampled: node-wise fanout 0", cfg.clone(), sampled(SamplerKind::NodeWise(vec![4, 0]))),
        ("sampled: LABOR fanout 0", cfg.clone(), sampled(SamplerKind::Labor(vec![0, 4]))),
        ("sampled: LADIES layer size 0", cfg.clone(), sampled(SamplerKind::LayerWise(vec![0, 64]))),
        ("history: fanout 0", cfg.clone(), history(0)),
        ("history: batch_size 0", zero_batch, history(4)),
        ("cluster: num_clusters 0", cfg.clone(), cluster(0, 1)),
        ("cluster: clusters_per_batch 0", cfg.clone(), cluster(4, 0)),
        ("seignn: parts 0", cfg.clone(), seignn(0)),
    ];
    for (name, cfg, run) in &cases {
        assert_refused(name, &ds, cfg, run);
    }
}

/// A dataset that breaks `Dataset::validate`, or has no training row,
/// is refused by every trainer.
#[test]
fn bad_dataset_is_refused_without_panic() {
    let base = dataset();
    let n = base.num_nodes();
    let mut bad_label = base.clone();
    bad_label.labels[base.splits.train[0] as usize] = base.num_classes;
    let mut short_features = base.clone();
    short_features.features = base.features.gather_rows(&(0..n - 1).collect::<Vec<_>>());
    let mut split_out_of_range = base.clone();
    split_out_of_range.splits.train.push(n as u32);
    let mut empty_train = base.clone();
    empty_train.splits.train.clear();
    let mut nan_feature = base.clone();
    nan_feature.features.set(n / 2, 1, f32::NAN);
    let mut inf_feature = base.clone();
    inf_feature.features.set(n - 1, 0, f32::NEG_INFINITY);
    let datasets = [
        ("label >= num_classes", bad_label),
        ("feature rows != n", short_features),
        ("split id >= n", split_out_of_range),
        ("empty train split", empty_train),
        ("non-finite feature (NaN)", nan_feature),
        ("non-finite feature (-inf)", inf_feature),
    ];
    let trainers: Vec<(&str, Run)> = vec![
        ("full", full()),
        ("sharded k=2", sharded(2)),
        ("sampled node-wise", sampled(SamplerKind::NodeWise(vec![4, 4]))),
        ("sampled LADIES", sampled(SamplerKind::LayerWise(vec![32, 32]))),
        ("sampled LABOR", sampled(SamplerKind::Labor(vec![4, 4]))),
        ("history", history(4)),
        ("cluster", cluster(4, 2)),
        ("saint", saint(SaintSampler::Node { budget: 50 })),
        ("decoupled sgc", decoupled(PrecomputeMethod::Sgc { k: 2 })),
        ("coarse", coarse(0.5)),
        ("seignn", seignn(2)),
    ];
    let cfg = config();
    for (what, ds) in &datasets {
        for (trainer, run) in &trainers {
            assert_refused(&format!("{trainer}: {what}"), ds, &cfg, run);
        }
    }
}
