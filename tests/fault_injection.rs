//! End-to-end fault-injection suite (DESIGN.md §8): each recovery policy
//! exercised through the public facade the way an operator would hit it —
//! corrupted checkpoint files rejected with offsets, a panicking batch
//! pipeline producer restarted without disturbing the batch stream, halo
//! corruption detected by checksum and repaired by bounded retry, and
//! memory exhaustion surfacing as a clean `Err` from every trainer.
//!
//! Assertions go through [`FaultPlan::fired_count`]/[`exhausted`]
//! (always live), never the `fault.injected`/`recovery.retries` obs
//! counters — those are zero-overhead-when-off and this binary runs
//! without observability.

use sgnn::core::error::{TrainError, TrainResult};
use sgnn::core::models::decoupled::PrecomputeMethod;
use sgnn::core::shard::train_sharded_gcn;
use sgnn::core::trainer::{
    train_cluster_gcn, train_coarse, train_decoupled, train_full_gcn, train_saint, train_sampled,
    SamplerKind, TrainConfig,
};
use sgnn::core::trainer_ext::{train_history, train_seignn};
use sgnn::data::sbm_dataset;
use sgnn::fault::{Ckpt, CkptError, FaultPlan};
use sgnn::partition::hash_partition;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sgnn_faultinj_{}_{tag}.ckpt", std::process::id()))
}

fn small_ds() -> sgnn::data::Dataset {
    sbm_dataset(200, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 31)
}

// ---------------------------------------------------------------------------
// Checkpoint corruption
// ---------------------------------------------------------------------------

fn sample_ckpt() -> Ckpt {
    let mut c = Ckpt::new();
    c.put_str("meta.trainer", "gcn-full");
    c.put_u64("meta.epoch_done", 5);
    c.put_f32s("param.0", &[1.0, -2.5, 3.25, 0.125, 9.0]);
    c
}

#[test]
fn truncated_checkpoint_is_rejected_with_offset() {
    let path = tmp_path("trunc");
    sample_ckpt().save(&path).unwrap();
    let full = std::fs::read(&path).unwrap();
    // Chop mid-way through the last record.
    std::fs::write(&path, &full[..full.len() - 7]).unwrap();
    match Ckpt::load(&path) {
        Err(CkptError::Truncated { offset }) => {
            assert!(offset > 0 && offset < full.len() as u64, "offset {offset} out of range");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flipped_checkpoint_is_rejected_with_record_and_offset() {
    let path = tmp_path("flip");
    sample_ckpt().save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one bit in the last record's payload (the f32 array), leaving
    // the framing intact so the CRC — not a length check — catches it.
    let n = bytes.len();
    bytes[n - 6] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    match Ckpt::load(&path) {
        Err(CkptError::CrcMismatch { record, offset, stored, computed }) => {
            assert_eq!(record, "param.0", "corruption must be pinned to its record");
            assert!(offset > 0, "offset must locate the record");
            assert_ne!(stored, computed);
        }
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_from_corrupt_checkpoint_fails_loud_not_silent() {
    // A trainer handed a corrupt resume file must error, not cold-start:
    // silently retraining from scratch would masquerade as recovery.
    let ds = small_ds();
    let dir = std::env::temp_dir().join(format!("sgnn_faultinj_{}_dir", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = TrainConfig {
        epochs: 2,
        hidden: vec![4],
        ckpt_dir: Some(dir.clone()),
        ..Default::default()
    };
    train_full_gcn(&ds, &cfg).unwrap();
    let ckpt = dir.join("gcn-full.ckpt");
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&ckpt, &bytes).unwrap();
    let resume = TrainConfig { resume_from: Some(ckpt), ckpt_dir: None, ..cfg };
    match train_full_gcn(&ds, &resume) {
        Err(TrainError::Checkpoint(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("offset"), "error must name the byte offset: {msg}");
        }
        Err(other) => panic!("expected TrainError::Checkpoint, got {other:?}"),
        Ok(_) => panic!("corrupt resume file must not be accepted"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Pipeline producer panic → bounded restart, identical stream
// ---------------------------------------------------------------------------

#[test]
fn producer_panic_is_restarted_and_training_matches_unfaulted_run() {
    let ds = small_ds();
    let base = TrainConfig { epochs: 3, hidden: vec![6], batch_size: 64, ..Default::default() };
    let sampler = SamplerKind::NodeWise(vec![4, 4]);
    let (_, ref_report) = train_sampled(&ds, &sampler, &base).unwrap();
    // Panic the producer while it prepares the second global batch. The
    // pipeline's restart budget (armed whenever a fault plan is present)
    // replays the batch; determinism makes the replay identical, so the
    // run must finish bit-for-bit equal to the unfaulted reference.
    let plan = Arc::new(FaultPlan::new(7).panic_producer(1));
    let cfg = TrainConfig { fault_plan: Some(Arc::clone(&plan)), ..base };
    let (_, report) = train_sampled(&ds, &sampler, &cfg).unwrap();
    assert!(plan.exhausted(), "armed producer panic never fired");
    assert_eq!(report.final_loss.to_bits(), ref_report.final_loss.to_bits());
    assert_eq!(report.val_acc, ref_report.val_acc);
    assert_eq!(report.test_acc, ref_report.test_acc);
}

#[test]
fn producer_panic_without_a_plan_still_propagates() {
    // The restart budget exists only under an armed fault plan; a panic
    // in a plain run must surface (no silent swallowing of real bugs).
    // Exercised at the pipeline level in crates/core/src/pipeline.rs; at
    // the trainer level a kill-style plan with no restart budget left is
    // equivalent, so here we just pin the config default.
    let cfg = TrainConfig::default();
    assert!(cfg.fault_plan.is_none());
}

// ---------------------------------------------------------------------------
// Halo corruption → checksum detect, bounded-retry repair
// ---------------------------------------------------------------------------

#[test]
fn halo_corruption_is_detected_and_repaired_bitwise() {
    let ds = small_ds();
    let base = TrainConfig { epochs: 3, hidden: vec![6], dropout: 0.1, ..Default::default() };
    let (_, ref_report) = train_full_gcn(&ds, &base).unwrap();
    for k in [2usize, 4] {
        let part = hash_partition(ds.num_nodes(), k);
        for exchange in [0u64, 1, 3] {
            let plan = Arc::new(FaultPlan::new(97).corrupt_halo(exchange, 8));
            let cfg = TrainConfig { fault_plan: Some(Arc::clone(&plan)), ..base.clone() };
            let (_, report, _) = train_sharded_gcn(&ds, &part, &cfg).unwrap();
            assert!(plan.exhausted(), "k={k}: corruption of exchange {exchange} never fired");
            assert_eq!(
                report.final_loss.to_bits(),
                ref_report.final_loss.to_bits(),
                "k={k} exchange={exchange}: repair must be bitwise"
            );
            assert_eq!(report.val_acc, ref_report.val_acc, "k={k} exchange={exchange}");
            assert_eq!(report.test_acc, ref_report.test_acc, "k={k} exchange={exchange}");
        }
    }
}

/// The checksum-verified bounded-retry policy covers *compressed* halo
/// payloads too (DESIGN.md §11): corruption injected into a quantized
/// ghost matrix is detected sender-side-CRC vs rebuilt-CRC and repaired
/// from the pristine dequantized blocks, leaving the run identical to
/// the same compressed run without the fault.
#[test]
fn compressed_halo_corruption_is_detected_and_repaired() {
    use sgnn::core::CommRegime;
    use sgnn::linalg::QuantMode;
    let ds = small_ds();
    for (quant, staleness) in [(QuantMode::Int8, 1u64), (QuantMode::F16, 2)] {
        let base = TrainConfig {
            epochs: 3,
            hidden: vec![6],
            dropout: 0.1,
            comm_regime: CommRegime::Compressed { quant, staleness },
            ..Default::default()
        };
        let part = hash_partition(ds.num_nodes(), 3);
        let (_, clean_report, _) = train_sharded_gcn(&ds, &part, &base).unwrap();
        for exchange in [0u64, 1, 3] {
            let plan = Arc::new(FaultPlan::new(97).corrupt_halo(exchange, 8));
            let cfg = TrainConfig { fault_plan: Some(Arc::clone(&plan)), ..base.clone() };
            let (_, report, _) = train_sharded_gcn(&ds, &part, &cfg).unwrap();
            assert!(
                plan.exhausted(),
                "{quant:?} s={staleness}: corruption of exchange {exchange} never fired"
            );
            assert_eq!(
                report.final_loss.to_bits(),
                clean_report.final_loss.to_bits(),
                "{quant:?} s={staleness} exchange={exchange}: repair must restore the clean run"
            );
            assert_eq!(report.val_acc, clean_report.val_acc);
            assert_eq!(report.test_acc, clean_report.test_acc);
        }
    }
}

// ---------------------------------------------------------------------------
// Memory exhaustion → graceful Err from every trainer
// ---------------------------------------------------------------------------

#[test]
fn exceeding_the_budget_errors_from_every_trainer() {
    let ds = small_ds();
    // 1 KiB is below any trainer's first resident charge.
    let cfg =
        TrainConfig { epochs: 2, hidden: vec![4], mem_budget: Some(1024), ..Default::default() };
    let budget_err = |e: TrainError| {
        assert!(matches!(e, TrainError::BudgetExceeded(_)), "expected BudgetExceeded, got {e:?}");
    };
    budget_err(train_full_gcn(&ds, &cfg).err().expect("full"));
    budget_err(
        train_decoupled(&ds, &PrecomputeMethod::Sgc { k: 2 }, &cfg).err().expect("decoupled"),
    );
    budget_err(
        train_sampled(&ds, &SamplerKind::NodeWise(vec![4, 4]), &cfg).err().expect("sampled"),
    );
    budget_err(
        train_saint(&ds, sgnn::sample::SaintSampler::RandomWalk { roots: 20, length: 4 }, 2, &cfg)
            .err()
            .expect("saint"),
    );
    budget_err(train_cluster_gcn(&ds, 4, 2, &cfg).err().expect("cluster"));
    budget_err(train_coarse(&ds, 0.5, &cfg).expect_err("coarse"));
    let part = hash_partition(ds.num_nodes(), 2);
    budget_err(train_sharded_gcn(&ds, &part, &cfg).err().expect("sharded"));
    budget_err(train_history(&ds, 4, &cfg).expect_err("history"));
    budget_err(train_seignn(&ds, 4, &cfg).expect_err("seignn"));
}

/// Runs `train` under a budget of exactly its `resident` charges, so no
/// batch transient fits, with a kill armed at epoch 1. Charged per batch
/// before its forward pass, the budget must trip in epoch 0; a trainer
/// that charged batches only after its epoch loop would instead train
/// epoch 0 and die at the kill.
fn assert_fails_at_first_batch<T>(resident: usize, train: impl Fn(&TrainConfig) -> TrainResult<T>) {
    let plan = Arc::new(FaultPlan::new(3).kill_at_epoch(1));
    let cfg = TrainConfig {
        epochs: 3,
        hidden: vec![4],
        batch_size: 64,
        mem_budget: Some(resident),
        fault_plan: Some(Arc::clone(&plan)),
        ..Default::default()
    };
    match train(&cfg).err() {
        Some(TrainError::BudgetExceeded(b)) => assert_eq!(b.current, resident, "resident fits"),
        other => panic!("expected BudgetExceeded at the first batch, got {other:?}"),
    }
    assert!(!plan.exhausted(), "epoch 0 ran to the kill");
}

#[test]
fn sampled_budget_trips_at_the_first_batch() {
    let ds = small_ds();
    assert_fails_at_first_batch(ds.features.nbytes(), |cfg| {
        train_sampled(&ds, &SamplerKind::NodeWise(vec![4, 4]), cfg)
    });
}

#[test]
fn saint_budget_trips_at_the_first_batch() {
    let ds = small_ds();
    let sampler = sgnn::sample::SaintSampler::RandomWalk { roots: 20, length: 4 };
    assert_fails_at_first_batch(ds.features.nbytes(), |cfg| train_saint(&ds, sampler, 2, cfg));
}

#[test]
fn cluster_gcn_budget_trips_at_the_first_batch() {
    let ds = small_ds();
    assert_fails_at_first_batch(ds.features.nbytes(), |cfg| train_cluster_gcn(&ds, 4, 2, cfg));
}

#[test]
fn seignn_budget_trips_at_the_first_batch() {
    let ds = small_ds();
    // Resident: the features augmented with one coarse row per part.
    let resident = (ds.num_nodes() + 4) * ds.feature_dim() * 4;
    assert_fails_at_first_batch(resident, |cfg| train_seignn(&ds, 4, cfg));
}

#[test]
fn plan_budget_and_config_budget_take_the_tighter_bound() {
    let ds = small_ds();
    // Plan says 1 KiB, config says huge: the plan's simulated exhaustion
    // must win (min of the two).
    let plan = Arc::new(FaultPlan::new(0).mem_budget(1024));
    let cfg = TrainConfig {
        epochs: 2,
        hidden: vec![4],
        mem_budget: Some(usize::MAX),
        fault_plan: Some(plan),
        ..Default::default()
    };
    let err = train_full_gcn(&ds, &cfg).err().expect("budget must trip");
    match err {
        TrainError::BudgetExceeded(b) => {
            assert_eq!(b.budget, 1024);
            assert!(b.requested > 0);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn generous_budget_does_not_perturb_training() {
    let ds = small_ds();
    let base = TrainConfig { epochs: 2, hidden: vec![4], ..Default::default() };
    let (_, ref_report) = train_full_gcn(&ds, &base).unwrap();
    let cfg = TrainConfig { mem_budget: Some(1 << 30), ..base };
    let (_, report) = train_full_gcn(&ds, &cfg).unwrap();
    assert_eq!(report.final_loss.to_bits(), ref_report.final_loss.to_bits());
    assert_eq!(report.test_acc, ref_report.test_acc);
}

// ---------------------------------------------------------------------------
// Invalid caller input → typed error, no panic
// ---------------------------------------------------------------------------

fn assert_invalid_input(err: Option<TrainError>) {
    assert!(matches!(err, Some(TrainError::InvalidInput(_))), "expected InvalidInput, got {err:?}");
}

#[test]
fn fanouts_not_matching_the_layers_are_refused() {
    let ds = small_ds();
    let cfg = TrainConfig { epochs: 1, hidden: vec![4], ..Default::default() };
    // One hidden layer makes two layers; three fanouts do not fit.
    assert_invalid_input(train_sampled(&ds, &SamplerKind::NodeWise(vec![4, 4, 4]), &cfg).err());
}

#[test]
fn partition_not_covering_the_dataset_is_refused() {
    let ds = small_ds();
    let cfg = TrainConfig { epochs: 1, hidden: vec![4], ..Default::default() };
    let part = hash_partition(ds.num_nodes() - 1, 2);
    assert_invalid_input(train_sharded_gcn(&ds, &part, &cfg).err());
}

#[test]
fn partition_with_an_out_of_range_part_id_is_refused() {
    let ds = small_ds();
    let cfg = TrainConfig { epochs: 1, hidden: vec![4], ..Default::default() };
    // Built through the public fields, which `Partition::new` would check.
    let mut part = hash_partition(ds.num_nodes(), 2);
    part.parts[7] = 2;
    assert_invalid_input(train_sharded_gcn(&ds, &part, &cfg).err());
}
