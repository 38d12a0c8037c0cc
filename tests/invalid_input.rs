//! Caller input a trainer cannot run is refused at the front door with
//! `TrainError::InvalidInput`, before any work: never a panic, never an
//! `Ok` that measured nothing.
//!
//! One table row per bad input × trainer it applies to. Each row runs
//! under `catch_unwind`, so a panic fails the row instead of the binary.

use sgnn::core::trainer::{train_sampled, SamplerKind, TrainConfig};
use sgnn::core::trainer_ext::train_history;
use sgnn::core::{TrainError, TrainResult};
use sgnn::data::{sbm_dataset, Dataset};
use std::panic::{catch_unwind, AssertUnwindSafe};

type Run = Box<dyn Fn(&Dataset, &TrainConfig) -> TrainResult<()>>;

fn sampled(sampler: SamplerKind) -> Run {
    Box::new(move |ds, cfg| train_sampled(ds, &sampler, cfg).map(drop))
}

fn history(fanout: usize) -> Run {
    Box::new(move |ds, cfg| train_history(ds, fanout, cfg).map(drop))
}

#[test]
fn bad_trainer_input_is_refused_without_panic() {
    let ds = sbm_dataset(200, 3, 6.0, 0.85, 6, 0.6, 0, 0.5, 0.25, 3);
    let cfg = TrainConfig { epochs: 2, hidden: vec![8], batch_size: 32, ..Default::default() };
    let zero_batch = TrainConfig { batch_size: 0, ..cfg.clone() };
    let cases: Vec<(&str, TrainConfig, Run)> = vec![
        ("sampled: batch_size 0", zero_batch.clone(), sampled(SamplerKind::NodeWise(vec![4, 4]))),
        ("sampled: node-wise fanout 0", cfg.clone(), sampled(SamplerKind::NodeWise(vec![4, 0]))),
        ("sampled: LABOR fanout 0", cfg.clone(), sampled(SamplerKind::Labor(vec![0, 4]))),
        ("sampled: LADIES layer size 0", cfg.clone(), sampled(SamplerKind::LayerWise(vec![0, 64]))),
        ("history: fanout 0", cfg.clone(), history(0)),
        ("history: batch_size 0", zero_batch, history(4)),
    ];
    for (name, cfg, run) in &cases {
        match catch_unwind(AssertUnwindSafe(|| run(&ds, cfg))) {
            Err(_) => panic!("{name}: panicked"),
            Ok(Ok(())) => panic!("{name}: returned Ok"),
            Ok(Err(TrainError::InvalidInput(_))) => {}
            Ok(Err(e)) => panic!("{name}: expected InvalidInput, got {e}"),
        }
    }
}
