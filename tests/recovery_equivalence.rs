//! Differential recovery suite (DESIGN.md §8): kill a training run at
//! every possible fault site, resume from the last checkpoint, and
//! assert the recovered run is **bitwise** indistinguishable from an
//! uninterrupted reference — identical final loss bits, identical
//! val/test accuracies, identical final weight bits.
//!
//! This works because all training randomness is stateless (per-element
//! dropout hashes, chunk-seeded samplers, fixed-point allreduce), so the
//! checkpointed state — parameters, Adam moments, stopper counters,
//! epoch index — is the *entire* evolving state of a run.
//!
//! Faults are injected with [`sgnn::fault::FaultPlan`]: one-shot and
//! positional, so every interrupted run is itself reproducible. Runs at
//! the ambient thread count; CI's `SGNN_THREADS=1`/`2` matrix covers the
//! inline and pooled paths.

use sgnn::core::ckpt::SlotParams;
use sgnn::core::error::{TrainError, TrainResult};
use sgnn::core::models::decoupled::PrecomputeMethod;
use sgnn::core::shard::train_sharded_gcn;
use sgnn::core::trainer::{
    train_cluster_gcn, train_coarse_with, train_decoupled, train_full_gcn, train_saint,
    train_sampled, SamplerKind, TrainConfig, TrainReport,
};
use sgnn::core::trainer_ext::{train_history, train_seignn};
use sgnn::data::sbm_dataset;
use sgnn::fault::FaultPlan;
use sgnn::linalg::DenseMatrix;
use sgnn::partition::hash_partition;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fresh per-test checkpoint directory under the system temp dir.
fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sgnn_recovery_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The rolling checkpoint written into `dir`, if the run got far enough
/// to write one (a kill before the first epoch completes leaves none —
/// resume is then a cold start, which must also reproduce the reference).
fn maybe_ckpt(dir: &Path) -> Option<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    assert!(files.len() <= 1, "one rolling checkpoint per trainer, found {files:?}");
    files.pop()
}

/// All parameter bits of a model, in checkpoint slot order.
fn param_bits<M: SlotParams>(model: &mut M) -> Vec<u32> {
    let mut bits = Vec::new();
    model.visit_params_mut(&mut |p| bits.extend(p.data().iter().map(|v| v.to_bits())));
    bits
}

/// Kills `run` at every epoch in `0..epochs`, resumes each interrupted
/// run from its last checkpoint, and asserts bit-equality with the
/// uninterrupted reference.
fn sweep_epoch_kills<M, F>(tag: &str, base: &TrainConfig, epochs: usize, run: F)
where
    M: SlotParams,
    F: Fn(&TrainConfig) -> TrainResult<(M, TrainReport)>,
{
    let (mut reference, ref_report) = run(base).unwrap();
    let ref_bits = param_bits(&mut reference);
    for kill in 0..epochs {
        let dir = tmp_dir(&format!("{tag}_e{kill}"));
        let plan = Arc::new(FaultPlan::new(17).kill_at_epoch(kill));
        let cfg = TrainConfig {
            ckpt_dir: Some(dir.clone()),
            fault_plan: Some(Arc::clone(&plan)),
            ..base.clone()
        };
        let err = run(&cfg).err().expect("armed kill must abort the run");
        assert!(
            matches!(err, TrainError::InjectedCrash { site: "epoch", at } if at == kill as u64),
            "{tag} kill {kill}: unexpected error {err:?}"
        );
        assert!(plan.exhausted(), "{tag}: armed kill at epoch {kill} never fired");
        let resume = TrainConfig { resume_from: maybe_ckpt(&dir), ..base.clone() };
        let (mut model, report) = run(&resume).unwrap();
        assert_eq!(
            report.final_loss.to_bits(),
            ref_report.final_loss.to_bits(),
            "{tag} kill {kill}: loss bits diverged"
        );
        assert_eq!(report.val_acc, ref_report.val_acc, "{tag} kill {kill}: val acc diverged");
        assert_eq!(report.test_acc, ref_report.test_acc, "{tag} kill {kill}: test acc diverged");
        assert_eq!(param_bits(&mut model), ref_bits, "{tag} kill {kill}: weight bits diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn full_gcn_killed_at_every_epoch_resumes_bitwise() {
    let ds = sbm_dataset(240, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 7);
    let base = TrainConfig { epochs: 4, hidden: vec![6], dropout: 0.1, ..Default::default() };
    sweep_epoch_kills("gcn-full", &base, 4, |cfg| train_full_gcn(&ds, cfg));
}

#[test]
fn full_gcn_with_early_stopping_replays_the_stop_decision() {
    // With patience the checkpoint also carries the stopper's (best, bad)
    // counters and the stop flag; a resume must replay the same break.
    let ds = sbm_dataset(240, 3, 8.0, 0.9, 5, 0.7, 0, 0.5, 0.25, 3);
    let base = TrainConfig { epochs: 30, hidden: vec![6], patience: Some(3), ..Default::default() };
    let (_, ref_report) = train_full_gcn(&ds, &base).unwrap();
    let stop_epoch = ref_report.epochs_run;
    assert!(stop_epoch < 30, "patience must trigger for this test to bite");
    for kill in [stop_epoch / 2, stop_epoch - 1] {
        let dir = tmp_dir(&format!("stopper_e{kill}"));
        let plan = Arc::new(FaultPlan::new(23).kill_at_epoch(kill));
        let cfg =
            TrainConfig { ckpt_dir: Some(dir.clone()), fault_plan: Some(plan), ..base.clone() };
        train_full_gcn(&ds, &cfg).err().expect("armed kill must abort the run");
        let resume = TrainConfig { resume_from: maybe_ckpt(&dir), ..base.clone() };
        let (_, report) = train_full_gcn(&ds, &resume).unwrap();
        assert_eq!(report.epochs_run, ref_report.epochs_run, "kill {kill}: stop epoch diverged");
        assert_eq!(report.final_loss.to_bits(), ref_report.final_loss.to_bits(), "kill {kill}");
        assert_eq!(report.val_acc, ref_report.val_acc, "kill {kill}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sampled_sage_killed_at_every_epoch_resumes_bitwise() {
    let ds = sbm_dataset(220, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 11);
    let base = TrainConfig { epochs: 3, hidden: vec![6], batch_size: 64, ..Default::default() };
    sweep_epoch_kills("sage", &base, 3, |cfg| {
        train_sampled(&ds, &SamplerKind::NodeWise(vec![4, 4]), cfg)
    });
}

#[test]
fn saint_killed_at_every_epoch_resumes_bitwise() {
    let ds = sbm_dataset(220, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 13);
    let base = TrainConfig { epochs: 3, hidden: vec![6], ..Default::default() };
    sweep_epoch_kills("saint", &base, 3, |cfg| {
        train_saint(&ds, sgnn::sample::SaintSampler::RandomWalk { roots: 30, length: 4 }, 3, cfg)
    });
}

#[test]
fn cluster_gcn_killed_at_every_epoch_resumes_bitwise() {
    let ds = sbm_dataset(220, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 19);
    let base = TrainConfig { epochs: 3, hidden: vec![6], ..Default::default() };
    sweep_epoch_kills("cluster", &base, 3, |cfg| train_cluster_gcn(&ds, 6, 2, cfg));
}

/// Report-only adapter for trainers that return no model: the sweep then
/// compares loss bits and val/test accuracy (no weights to compare).
struct NoParams;

impl SlotParams for NoParams {
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut DenseMatrix)) {}
}

/// A run with `ckpt_dir` set leaves a checkpoint behind — without it the
/// kill sweep would pass vacuously, every resume a cold start.
fn assert_checkpoints(
    tag: &str,
    base: &TrainConfig,
    run: impl Fn(&TrainConfig) -> TrainResult<()>,
) {
    let dir = tmp_dir(&format!("{tag}_written"));
    run(&TrainConfig { ckpt_dir: Some(dir.clone()), ..base.clone() }).unwrap();
    assert!(maybe_ckpt(&dir).is_some(), "{tag} wrote no checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coarse_killed_at_every_epoch_resumes_bitwise() {
    let ds = sbm_dataset(220, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 37);
    let coarse = sgnn::coarsen::coarsen_to_ratio(&ds.graph, 0.5, 0);
    let base = TrainConfig { epochs: 3, hidden: vec![6], dropout: 0.1, ..Default::default() };
    let run = |cfg: &TrainConfig| train_coarse_with(&ds, &coarse, cfg, "coarse-r0.5");
    assert_checkpoints("coarse", &base, |cfg| run(cfg).map(|_| ()));
    sweep_epoch_kills("coarse", &base, 3, |cfg| run(cfg).map(|r| (NoParams, r)));
}

#[test]
fn seignn_killed_at_every_epoch_resumes_bitwise() {
    let ds = sbm_dataset(220, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 41);
    let base = TrainConfig { epochs: 3, hidden: vec![6], dropout: 0.1, ..Default::default() };
    assert_checkpoints("seignn", &base, |cfg| train_seignn(&ds, 4, cfg).map(|_| ()));
    sweep_epoch_kills("seignn", &base, 3, |cfg| train_seignn(&ds, 4, cfg).map(|r| (NoParams, r)));
}

#[test]
fn trainers_without_checkpointable_state_refuse_checkpoint_settings() {
    // The decoupled MLP and the history trainer's cache cannot be
    // restored, so asking either to checkpoint or resume is an error
    // raised before any work, not a silent cold start.
    let ds = sbm_dataset(200, 3, 8.0, 0.85, 5, 0.8, 0, 0.5, 0.25, 43);
    let dir = tmp_dir("stateless");
    let base = TrainConfig { epochs: 2, hidden: vec![5], ..Default::default() };
    for cfg in [
        TrainConfig { ckpt_dir: Some(dir.clone()), ..base.clone() },
        TrainConfig { resume_from: Some(dir.join("sgc-k2.ckpt")), ..base },
    ] {
        let sgc = train_decoupled(&ds, &PrecomputeMethod::Sgc { k: 2 }, &cfg).err();
        assert!(matches!(sgc, Some(TrainError::InvalidInput(_))), "decoupled: {sgc:?}");
        let history = train_history(&ds, 4, &cfg).err();
        assert!(matches!(history, Some(TrainError::InvalidInput(_))), "history: {history:?}");
    }
    assert_eq!(maybe_ckpt(&dir), None, "a refused run must write nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_killed_at_every_superstep_resumes_bitwise() {
    // The sharded trainer's fault sites are BSP supersteps (every compute
    // and exchange barrier, cumulatively across epochs). Sweep s = 0, 1,
    // 2, … until a run completes with its kill still armed — that run
    // proves s walked past the final superstep, i.e. every barrier of the
    // whole schedule was killed exactly once.
    let ds = sbm_dataset(180, 3, 8.0, 0.85, 5, 0.8, 0, 0.5, 0.25, 3);
    let epochs = 3usize;
    let base = TrainConfig { epochs, hidden: vec![4], dropout: 0.1, ..Default::default() };
    let (mut ref_gcn, ref_report) = train_full_gcn(&ds, &base).unwrap();
    let ref_bits = param_bits(&mut ref_gcn);
    for k in [1usize, 2, 4] {
        let part = hash_partition(ds.num_nodes(), k);
        let mut s = 0u64;
        loop {
            let dir = tmp_dir(&format!("shard_k{k}_s{s}"));
            let plan = Arc::new(FaultPlan::new(5).kill_at_superstep(s));
            let cfg = TrainConfig {
                ckpt_dir: Some(dir.clone()),
                fault_plan: Some(Arc::clone(&plan)),
                ..base.clone()
            };
            match train_sharded_gcn(&ds, &part, &cfg) {
                Err(e) => {
                    assert!(
                        matches!(e, TrainError::InjectedCrash { site: "superstep", at } if at == s),
                        "k={k} s={s}: unexpected error {e:?}"
                    );
                    let resume = TrainConfig { resume_from: maybe_ckpt(&dir), ..base.clone() };
                    let (mut gcn, report, _) = train_sharded_gcn(&ds, &part, &resume).unwrap();
                    assert_eq!(
                        report.final_loss.to_bits(),
                        ref_report.final_loss.to_bits(),
                        "k={k} s={s}: loss bits diverged"
                    );
                    assert_eq!(report.val_acc, ref_report.val_acc, "k={k} s={s}");
                    assert_eq!(report.test_acc, ref_report.test_acc, "k={k} s={s}");
                    assert_eq!(param_bits(&mut gcn), ref_bits, "k={k} s={s}: weights diverged");
                    s += 1;
                }
                Ok(_) => {
                    assert!(
                        !plan.exhausted(),
                        "k={k}: run completed even though the kill at superstep {s} fired"
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                    break;
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        // Sanity: the sweep covered the full schedule (≥ one compute, one
        // loss, one backward barrier per epoch).
        assert!(s as usize >= 3 * epochs, "k={k}: only {s} supersteps swept");
    }
}

#[test]
fn resume_from_a_finished_run_is_a_no_op_replay() {
    // Resuming a checkpoint whose run already completed all epochs must
    // run zero additional epochs and reproduce the reference exactly.
    let ds = sbm_dataset(200, 3, 8.0, 0.85, 5, 0.8, 0, 0.5, 0.25, 29);
    let dir = tmp_dir("noop");
    let base = TrainConfig { epochs: 3, hidden: vec![5], ..Default::default() };
    let with_ckpt = TrainConfig { ckpt_dir: Some(dir.clone()), ..base.clone() };
    let (mut reference, ref_report) = train_full_gcn(&ds, &with_ckpt).unwrap();
    let resume = TrainConfig { resume_from: maybe_ckpt(&dir), ..base };
    let (mut resumed, report) = train_full_gcn(&ds, &resume).unwrap();
    assert_eq!(report.final_loss.to_bits(), ref_report.final_loss.to_bits());
    assert_eq!(report.epochs_run, ref_report.epochs_run);
    assert_eq!(report.test_acc, ref_report.test_acc);
    assert_eq!(param_bits(&mut resumed), param_bits(&mut reference));
    let _ = std::fs::remove_dir_all(&dir);
}
