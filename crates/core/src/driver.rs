//! The one epoch loop every trainer runs under.
//!
//! The survey compares its training families on accuracy, time and
//! memory; that comparison is only fair if every family runs under the
//! same loop, ledger and recovery rules. A trainer therefore supplies
//! only its name, its model state, a per-epoch body (batch preparation
//! and compute, the phases of Yuan et al.) and an eval; [`Driver::run`]
//! owns everything around them, in this order:
//!
//! 1. resume from `cfg.resume_from` (under `trainer.recover`);
//! 2. per epoch: the fault plan's epoch-kill poll, the `trainer.epoch`
//!    span, the body, the early-stopping validation eval (when
//!    `patience` is set), the rolling checkpoint (when `ckpt_dir` is
//!    set) and `mark_epoch`;
//! 3. the final val/test eval (under a root `trainer.eval` span),
//!    `export_now` and the [`TrainReport`].
//!
//! Memory: trainers charge their resident set to [`Driver::ledger`]
//! before `run`, and each mini-batch body charges every batch's
//! transient before its forward pass ([`Epoch::batches`]), so an
//! over-budget run fails at its first batch rather than after training.

use crate::ckpt::{ckpt_path, save_epoch, try_restore, CkptSidecar, ResumeState, SlotParams};
use crate::error::{TrainError, TrainResult};
use crate::memory::Ledger;
use crate::models::decoupled::DecoupledModel;
use crate::models::gcn::{Gcn, GcnConfig};
use crate::models::sage::Sage;
use crate::pipeline::BatchPipeline;
use crate::trainer::{TrainConfig, TrainReport};
use sgnn_data::Dataset;
use sgnn_graph::{CsrGraph, NodeId};
use sgnn_linalg::DenseMatrix;
use sgnn_nn::loss::{accuracy, softmax_cross_entropy};
use sgnn_nn::optim::Adam;
use sgnn_obs::{Phase, PhaseBreakdown};
use std::time::Instant;

/// What a trainer's state exposes to checkpoint and resume.
pub(crate) trait Checkpointed {
    /// The parameters (and optional sidecar) a checkpoint carries;
    /// `None` for state with nothing restorable.
    fn ckpt_parts(&mut self) -> Option<(&mut dyn SlotParams, Option<&mut dyn CkptSidecar>)> {
        None
    }
}

/// A model checkpoints its slot-ordered parameters.
impl<M: SlotParams> Checkpointed for M {
    fn ckpt_parts(&mut self) -> Option<(&mut dyn SlotParams, Option<&mut dyn CkptSidecar>)> {
        Some((self, None))
    }
}

impl Checkpointed for DecoupledModel {}

/// A run's budgeted ledger, built before the trainer's set-up work.
pub(crate) struct Driver<'c> {
    cfg: &'c TrainConfig,
    /// Trainers charge their resident set here before [`Driver::run`].
    pub(crate) ledger: Ledger,
}

/// One epoch's view of the run, handed to the trainer's body.
pub(crate) struct Epoch<'r> {
    /// Epoch index (resumed runs start past 0).
    pub(crate) index: usize,
    pub(crate) opt: &'r mut Adam,
    pub(crate) ledger: &'r mut Ledger,
    pub(crate) phases: &'r mut PhaseBreakdown,
    cfg: &'r TrainConfig,
}

impl<'c> Driver<'c> {
    /// Checks the dataset and builds the ledger with the tightest of the
    /// config budget, the fault plan's budget and `SGNN_MEM_BUDGET`. A
    /// dataset that fails [`Dataset::validate`] (non-finite features
    /// included) or has no training row is refused before any work, in
    /// O(n·d + n) once per run.
    pub(crate) fn new(cfg: &'c TrainConfig, ds: &Dataset) -> TrainResult<Self> {
        // Every argmax path assumes `num_classes ≥ 1`.
        if ds.num_classes == 0 {
            return Err(TrainError::EmptyLogits);
        }
        ds.validate().map_err(|e| TrainError::InvalidInput(format!("dataset: {e}")))?;
        if ds.splits.train.is_empty() {
            return Err(TrainError::InvalidInput("dataset: empty train split".into()));
        }
        let plan_budget = cfg.fault_plan.as_ref().and_then(|p| p.budget()).map(|b| b as usize);
        let explicit = match (cfg.mem_budget, plan_budget) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Ok(Driver { cfg, ledger: Ledger::budgeted(explicit) })
    }

    /// [`Driver::new`] for a trainer with no checkpointable state: a set
    /// `ckpt_dir` or `resume_from` is refused before any work.
    pub(crate) fn without_checkpoints(
        cfg: &'c TrainConfig,
        ds: &Dataset,
        trainer: &str,
    ) -> TrainResult<Self> {
        if cfg.ckpt_dir.is_some() || cfg.resume_from.is_some() {
            return Err(no_checkpoints(trainer));
        }
        Self::new(cfg, ds)
    }

    /// Runs the epochs. `body` trains one epoch and returns its last
    /// batch loss (`None` when no batch had a training row); `eval`
    /// returns `(val, test)` accuracy, skipping test (0) when its flag is
    /// false, as for the per-epoch early-stopping check.
    pub(crate) fn run<S: Checkpointed>(
        mut self,
        name: String,
        precompute_secs: f64,
        state: &mut S,
        mut body: impl FnMut(&mut S, &mut Epoch<'_>) -> TrainResult<Option<f32>>,
        mut eval: impl FnMut(&mut S, bool) -> TrainResult<(f64, f64)>,
    ) -> TrainResult<TrainReport> {
        let cfg = self.cfg;
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        // Early stopping: best validation accuracy and the epochs since.
        let (mut best, mut bad) = (f64::NEG_INFINITY, 0usize);
        let mut phases = PhaseBreakdown::new();
        let (mut final_loss, mut epochs_run, mut start) = (0f32, 0usize, 0usize);
        let t1 = Instant::now();
        if let Some(path) = &cfg.resume_from {
            let (model, sidecar) = state.ckpt_parts().ok_or_else(|| no_checkpoints(&name))?;
            if let Some(st) = try_restore(path, &name, &mut opt, model, sidecar)? {
                (best, bad) = (st.stopper_best, st.stopper_bad);
                (epochs_run, final_loss) = (st.epoch_done, st.final_loss);
                // A run that already stopped early replays its break.
                start = if st.stopped { usize::MAX } else { st.epoch_done };
            }
        }
        for index in start..cfg.epochs {
            if cfg.fault_plan.as_ref().is_some_and(|p| p.poll_kill_epoch(index)) {
                return Err(TrainError::InjectedCrash { site: "epoch", at: index as u64 });
            }
            let _ep = sgnn_obs::span!("trainer.epoch");
            epochs_run += 1;
            let mut ep =
                Epoch { index, opt: &mut opt, ledger: &mut self.ledger, phases: &mut phases, cfg };
            if let Some(loss) = body(state, &mut ep)? {
                final_loss = loss;
            }
            let mut stop = false;
            if let Some(patience) = cfg.patience {
                let (val, _) = phases.time(Phase::Eval, || eval(state, false))?;
                stop = if val > best + 1e-9 {
                    (best, bad) = (val, 0);
                    false
                } else {
                    bad += 1;
                    bad >= patience
                };
            }
            if let Some(dir) = &cfg.ckpt_dir {
                let (model, sidecar) = state.ckpt_parts().ok_or_else(|| no_checkpoints(&name))?;
                let st = ResumeState {
                    epoch_done: index + 1,
                    final_loss,
                    stopper_best: best,
                    stopper_bad: bad,
                    stopped: stop,
                };
                let side = sidecar.map(|s| &*s);
                let bytes = save_epoch(&ckpt_path(dir, &name), &name, &st, &opt, model, side)?;
                sgnn_fault::record_ckpt_bytes(bytes);
            }
            sgnn_obs::mark_epoch(index as u64);
            if stop {
                break;
            }
        }
        let train_secs = t1.elapsed().as_secs_f64();
        // Spanned under the per-epoch eval's name, but charged to no
        // phase: `PhaseBreakdown` covers the epoch loop only.
        let (val_acc, test_acc) = {
            let _sp = sgnn_obs::span!(Phase::Eval.span_name());
            eval(state, true)?
        };
        sgnn_obs::export_now();
        Ok(TrainReport {
            name,
            test_acc,
            val_acc,
            final_loss,
            precompute_secs,
            train_secs,
            peak_mem_bytes: self.ledger.peak(),
            epochs_run,
            phases,
        })
    }
}

fn no_checkpoints(trainer: &str) -> TrainError {
    TrainError::InvalidInput(format!(
        "{trainer} has no checkpointable state; unset ckpt_dir and resume_from"
    ))
}

impl Epoch<'_> {
    /// The prefetch pipeline this run's mini-batch bodies use; a fault
    /// plan arms one producer restart.
    pub(crate) fn pipeline(&self) -> BatchPipeline {
        BatchPipeline::with_restarts(self.cfg.prefetch, self.cfg.fault_plan.is_some() as u32)
    }

    /// Runs this epoch's `n` batches through [`Epoch::pipeline`], polling
    /// the producer-panic fault site before each `prepare`. `step` charges
    /// its batch's transient before training on it; the first error skips
    /// the remaining batches and is returned. Returns the last loss `step`
    /// reported.
    pub(crate) fn batches<T: Send>(
        &mut self,
        n: usize,
        prepare: impl Fn(usize) -> T + Sync,
        mut step: impl FnMut(&mut Self, usize, T) -> TrainResult<Option<f32>>,
    ) -> TrainResult<Option<f32>> {
        let (cfg, epoch) = (self.cfg, self.index);
        let (mut loss, mut failed) = (None, None);
        let secs = self.pipeline().run(
            n,
            |i| {
                if cfg.fault_plan.as_ref().is_some_and(|p| p.poll_producer_panic(epoch * n + i)) {
                    panic!("injected: pipeline producer fault at batch {i}");
                }
                prepare(i)
            },
            |i, batch| {
                if failed.is_none() {
                    match step(self, i, batch) {
                        Ok(l) => loss = l.or(loss),
                        Err(e) => failed = Some(e),
                    }
                }
            },
        );
        self.phases.add(Phase::Sample, secs);
        failed.map_or(Ok(loss), Err)
    }

    /// One GCN step on `x` over `op`, with the loss on rows `idx`;
    /// returns the loss.
    pub(crate) fn gcn_step(
        &mut self,
        gcn: &mut Gcn,
        op: &CsrGraph,
        x: &DenseMatrix,
        idx: &[usize],
        labels: &[usize],
        weights: Option<&[f32]>,
    ) -> f32 {
        let (loss, dl_rows) = self.phases.time(Phase::Forward, || {
            let logits = gcn.forward(op, x);
            softmax_cross_entropy(&logits.gather_rows(idx), labels, weights)
        });
        self.phases.time(Phase::Backward, || {
            let mut dl = DenseMatrix::zeros(x.rows(), dl_rows.cols());
            dl.scatter_rows(idx, &dl_rows);
            gcn.zero_grad();
            gcn.backward(op, &dl);
        });
        let opt = &mut *self.opt;
        self.phases.time(Phase::Step, || gcn.step(opt));
        loss
    }

    /// One GCN subgraph batch: charges its transient (the operator and
    /// gathered features live alongside the layer activations), then
    /// trains on its loss rows, if it has any.
    pub(crate) fn gcn_batch(
        &mut self,
        gcn: &mut Gcn,
        op: &CsrGraph,
        x: &DenseMatrix,
        idx: &[usize],
        labels: &[usize],
        weights: Option<&[f32]>,
    ) -> TrainResult<Option<f32>> {
        self.ledger.try_transient(op.nbytes() + x.nbytes() + gcn.step_bytes(x.rows(), x.cols()))?;
        if idx.is_empty() {
            return Ok(None);
        }
        Ok(Some(self.gcn_step(gcn, op, x, idx, labels, weights)))
    }
}

/// Refuses a zero `value` for the config field `what`.
pub(crate) fn positive(what: &str, value: usize) -> TrainResult<()> {
    if value == 0 {
        return Err(TrainError::InvalidInput(format!("{what} must be positive")));
    }
    Ok(())
}

pub(crate) fn rows_of(nodes: &[NodeId]) -> Vec<usize> {
    nodes.iter().map(|&u| u as usize).collect()
}

/// Layer widths `[features, hidden…, classes]`.
pub(crate) fn layer_dims(ds: &Dataset, cfg: &TrainConfig) -> Vec<usize> {
    let mut dims = vec![ds.feature_dim()];
    dims.extend_from_slice(&cfg.hidden);
    dims.push(ds.num_classes);
    dims
}

/// The GCN every GCN-family trainer starts from.
pub(crate) fn new_gcn(ds: &Dataset, cfg: &TrainConfig) -> Gcn {
    let gcn_cfg = GcnConfig { hidden: cfg.hidden.clone(), dropout: cfg.dropout, seed: cfg.seed };
    Gcn::new(ds.feature_dim(), ds.num_classes, &gcn_cfg)
}

/// `(val, test)` from a per-split score; test is 0 unless `test`.
pub(crate) fn split_scores(
    ds: &Dataset,
    test: bool,
    mut score: impl FnMut(&[NodeId]) -> f64,
) -> (f64, f64) {
    let val = score(&ds.splits.val);
    (val, if test { score(&ds.splits.test) } else { 0.0 })
}

/// [`split_scores`] read off logits with one row per dataset node.
pub(crate) fn logits_accuracy(ds: &Dataset, logits: &DenseMatrix, test: bool) -> (f64, f64) {
    split_scores(ds, test, |nodes| {
        accuracy(&logits.gather_rows(&rows_of(nodes)), &ds.labels_of(nodes))
    })
}

/// `(val, test)` accuracy of `sage` from one [`Sage::forward_full`]
/// call over val, followed by test when `test` is set, so the two splits
/// share the layers their receptive fields have in common.
pub(crate) fn sage_accuracy(ds: &Dataset, sage: &Sage, test: bool) -> (f64, f64) {
    let val = &ds.splits.val[..];
    let tst = if test { &ds.splits.test[..] } else { &[] };
    let preds = sage.forward_full(&ds.graph, &ds.features, &[val, tst].concat()).argmax_rows();
    let score = |preds: &[usize], nodes: &[NodeId]| {
        let hits = preds.iter().zip(nodes).filter(|&(&p, &u)| p == ds.labels[u as usize]).count();
        hits as f64 / nodes.len().max(1) as f64
    };
    let (pv, pt) = preds.split_at(val.len());
    (score(pv, val), if test { score(pt, tst) } else { 0.0 })
}

/// Training-split membership, indexed by node id.
pub(crate) struct TrainMask(Vec<bool>);

impl TrainMask {
    pub(crate) fn new(ds: &Dataset) -> Self {
        let mut mask = vec![false; ds.num_nodes()];
        for &u in &ds.splits.train {
            mask[u as usize] = true;
        }
        TrainMask(mask)
    }

    /// False for ids past the dataset (e.g. SEIGNN's coarse nodes).
    pub(crate) fn contains(&self, u: NodeId) -> bool {
        self.0.get(u as usize).copied().unwrap_or(false)
    }

    /// Local positions and labels of the training members of `nodes`.
    pub(crate) fn loss_rows(&self, ds: &Dataset, nodes: &[NodeId]) -> (Vec<usize>, Vec<usize>) {
        nodes
            .iter()
            .enumerate()
            .filter(|&(_, &g)| self.contains(g))
            .map(|(local, &g)| (local, ds.labels[g as usize]))
            .unzip()
    }
}
