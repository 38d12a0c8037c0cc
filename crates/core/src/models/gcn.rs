//! Full-batch GCN — the canonical message-passing baseline (§3.1.1).
//!
//! `H^{(l+1)} = σ(Â H^{(l)} W^{(l)})` with `Â = D̃^{-1/2}(A+I)D̃^{-1/2}`.
//! Every scalable design in this workspace is benchmarked against this
//! model: it is accurate, and it is exactly the thing that does not scale
//! (graph-sized activations per layer, `L·nnz·d` work per epoch).
//!
//! The model does **not** own its propagation operator — `forward`/
//! `backward` take it per call, so the same weights train on the full
//! graph, on GraphSAINT / Cluster-GCN subgraph batches, or on a coarse
//! graph (experiments E3/E12) without copies.

use sgnn_graph::normalize::{normalized_adjacency, NormKind};
use sgnn_graph::spmm::{spmm, spmm_into};
use sgnn_graph::CsrGraph;
use sgnn_linalg::DenseMatrix;
use sgnn_nn::layers::{Dropout, Linear};
use sgnn_nn::optim::Optimizer;

/// GCN hyperparameters.
#[derive(Debug, Clone)]
pub struct GcnConfig {
    /// Hidden layer widths (e.g. `[64]` for a 2-layer GCN).
    pub hidden: Vec<usize>,
    /// Dropout probability between layers.
    pub dropout: f32,
    /// Parameter seed.
    pub seed: u64,
}

impl Default for GcnConfig {
    fn default() -> Self {
        GcnConfig { hidden: vec![64], dropout: 0.5, seed: 0 }
    }
}

/// Builds the standard GCN operator for a graph (symmetric normalization
/// with self-loops).
pub fn gcn_operator(g: &CsrGraph) -> CsrGraph {
    normalized_adjacency(g, NormKind::Sym, true).expect("valid graph")
}

/// Where the rows of a training layer step sit in the full forward: the
/// dropout call number (the model's training-forward count, 1-based)
/// and each row's global id (`None`: row `r` is node `r`).
#[derive(Clone, Copy)]
pub(crate) struct StepRows<'a> {
    pub(crate) call: u64,
    pub(crate) ids: Option<&'a [u32]>,
}

/// What a training layer step keeps for its backward: the propagated
/// input rows `Â·H` and the ReLU mask (empty for the output layer).
#[derive(Default)]
pub(crate) struct StepCache {
    pub(crate) x: DenseMatrix,
    pub(crate) mask: Vec<bool>,
}

/// GCN weights, reusable across propagation operators.
///
/// Training runs one per-layer step on any row set (`layer_forward` /
/// `layer_backward`): [`forward`](Gcn::forward) and
/// [`backward`](Gcn::backward) loop it over all rows of one operator, and
/// the shard trainer runs it on each shard's owned rows.
pub struct Gcn {
    linears: Vec<Linear>,
    /// Dropout probability between layers.
    dropout: f32,
    /// Parameter seed; hidden layer `i` draws its dropout masks from the
    /// stream seeded `seed + 100 + i`.
    seed: u64,
    /// Training forwards so far: the dropout call number, i.e. the mask
    /// stream position of every hidden layer.
    calls: u64,
    /// Per-layer caches of the last training forward, reused every
    /// forward, so steady-state epochs perform zero allocations on the
    /// propagation path.
    caches: Vec<StepCache>,
    /// Backward scratch: the fixed-point `[gW | gb]` partials and the
    /// propagated gradient.
    fx: Vec<i128>,
    prop_scratch: DenseMatrix,
}

impl Gcn {
    /// Builds GCN weights for the given input/output widths.
    pub fn new(in_dim: usize, num_classes: usize, cfg: &GcnConfig) -> Self {
        assert!(cfg.hidden.is_empty() || (0.0..1.0).contains(&cfg.dropout), "dropout in [0, 1)");
        let mut dims = vec![in_dim];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(num_classes);
        let linears = (0..dims.len() - 1)
            .map(|i| Linear::new(dims[i], dims[i + 1], cfg.seed.wrapping_add(i as u64)))
            .collect();
        Gcn {
            linears,
            dropout: cfg.dropout,
            seed: cfg.seed,
            calls: 0,
            caches: Vec::new(),
            fx: Vec::new(),
            prop_scratch: DenseMatrix::default(),
        }
    }

    /// Number of weight layers.
    pub fn num_layers(&self) -> usize {
        self.linears.len()
    }

    /// Total parameters.
    pub fn num_params(&self) -> usize {
        self.linears.iter().map(|l| l.num_params()).sum()
    }

    /// Direct access to a layer (tests, inspection).
    pub fn layer(&self, i: usize) -> &Linear {
        &self.linears[i]
    }

    /// Mutable access to a layer (tests).
    pub fn layer_mut(&mut self, i: usize) -> &mut Linear {
        &mut self.linears[i]
    }

    /// Layer `i`'s dense step on any row set `x`: `z = x·W + b`, then,
    /// for a hidden layer, ReLU and — in a training forward (`rows` set)
    /// — inverted dropout. Each mask element is a stateless hash of
    /// `(layer seed, call, global row, column)`, so a shard running this
    /// on its owned rows reproduces exactly those rows of the full
    /// forward (DESIGN.md §7). Returns `z` and the ReLU mask, which is
    /// empty for the output layer and for inference.
    pub(crate) fn layer_forward(
        &self,
        i: usize,
        x: &DenseMatrix,
        rows: Option<StepRows<'_>>,
    ) -> (DenseMatrix, Vec<bool>) {
        let mut z = self.linears[i].forward_inference(x);
        let mut mask = Vec::new();
        if i + 1 == self.linears.len() {
            return (z, mask);
        }
        let Some(rows) = rows else {
            z.map_inplace(|v| v.max(0.0));
            return (z, mask);
        };
        mask.reserve(z.rows() * z.cols());
        self.each_dropout(i, rows, &mut z, |v, scale| {
            mask.push(*v > 0.0);
            *v = v.max(0.0) * scale;
        });
        (z, mask)
    }

    /// The backward of [`layer_forward`](Gcn::layer_forward) over the
    /// same rows: for a hidden layer, the dropout backward and then the
    /// ReLU backward of `dy`; then the layer's `[gW | gb]` partials added
    /// into `fx` ([`Linear::fold_fx`]), and `dX = dY·Wᵀ` only when
    /// `need_dx`.
    pub(crate) fn layer_backward(
        &self,
        i: usize,
        cache: &StepCache,
        dy: &DenseMatrix,
        rows: StepRows<'_>,
        fx: &mut [i128],
        need_dx: bool,
    ) -> Option<DenseMatrix> {
        let mut g = dy.clone();
        if i + 1 < self.linears.len() {
            let mut relu = cache.mask.iter();
            self.each_dropout(i, rows, &mut g, |v, scale| {
                *v *= scale;
                if relu.next() != Some(&true) {
                    *v = 0.0;
                }
            });
        }
        let linear = &self.linears[i];
        linear.fold_fx(&cache.x, &g, fx);
        need_dx.then(|| linear.input_grad(&g, &mut DenseMatrix::default()))
    }

    /// Calls `f(element, scale)` on every element of `m`, in row-major
    /// order, with hidden layer `i`'s dropout scale for that element in
    /// the training forward `rows` names: a stateless hash of
    /// `(seed + 100 + i, call, global row, column)`.
    fn each_dropout(
        &self,
        i: usize,
        rows: StepRows<'_>,
        m: &mut DenseMatrix,
        mut f: impl FnMut(&mut f32, f32),
    ) {
        let cs = Dropout::call_seed(self.seed.wrapping_add(100 + i as u64), rows.call);
        let d = m.cols() as u64;
        for r in 0..m.rows() {
            let base = rows.ids.map_or(r as u64, |ids| ids[r] as u64) * d;
            for (c, v) in m.row_mut(r).iter_mut().enumerate() {
                f(v, Dropout::element_scale(cs, self.dropout, base + c as u64));
            }
        }
    }

    /// Training forward over the graph behind `op` (a pre-normalized
    /// operator from [`gcn_operator`]); caches activations for backward.
    pub fn forward(&mut self, op: &CsrGraph, x: &DenseMatrix) -> DenseMatrix {
        self.calls += 1;
        let rows = StepRows { call: self.calls, ids: None };
        let mut caches = std::mem::take(&mut self.caches);
        caches.resize_with(self.linears.len(), StepCache::default);
        let mut h: Option<DenseMatrix> = None;
        for (i, cache) in caches.iter_mut().enumerate() {
            let input = h.as_ref().unwrap_or(x);
            cache.x.reshape_scratch(input.rows(), input.cols());
            spmm_into(op, input, &mut cache.x);
            let (z, mask) = self.layer_forward(i, &cache.x, Some(rows));
            cache.mask = mask;
            h = Some(z);
        }
        self.caches = caches;
        h.expect("models have at least one layer")
    }

    /// Inference forward (no caches, no dropout).
    pub fn forward_inference(&self, op: &CsrGraph, x: &DenseMatrix) -> DenseMatrix {
        (0..self.linears.len()).fold(x.clone(), |h, i| self.layer_forward(i, &spmm(op, &h), None).0)
    }

    /// Backward from the logits gradient through the same operator. The
    /// layer-0 input gradient is never formed: nothing reads it.
    ///
    /// Uses `Âᵀ = Â` (symmetric normalization), so `op` must be symmetric
    /// in values — true for [`gcn_operator`] on undirected graphs.
    pub fn backward(&mut self, op: &CsrGraph, dlogits: &DenseMatrix) {
        let rows = StepRows { call: self.calls, ids: None };
        let mut fx = std::mem::take(&mut self.fx);
        let mut scratch = std::mem::take(&mut self.prop_scratch);
        let mut g = dlogits.clone();
        for i in (0..self.linears.len()).rev() {
            fx.clear();
            fx.resize(self.linears[i].num_params(), 0);
            let d_ah = self.layer_backward(i, &self.caches[i], &g, rows, &mut fx, i > 0);
            self.linears[i].accumulate_fx(&fx);
            if let Some(d_ah) = d_ah {
                // The retired gradient buffer becomes next layer's scratch.
                scratch.reshape_scratch(d_ah.rows(), d_ah.cols());
                spmm_into(op, &d_ah, &mut scratch);
                std::mem::swap(&mut g, &mut scratch);
            }
        }
        self.fx = fx;
        self.prop_scratch = scratch;
    }

    /// Zeroes gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.linears {
            l.zero_grad();
        }
    }

    /// Optimizer step over all layers.
    pub fn step(&mut self, opt: &mut dyn Optimizer) {
        let mut slot = 0usize;
        for l in &mut self.linears {
            l.visit_params(&mut |p, g| {
                opt.update(slot, p, g);
                slot += 1;
            });
        }
        opt.step_done();
    }

    /// Visits every parameter tensor in the slot order [`step`](Gcn::step)
    /// uses — the checkpoint save/restore contract.
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut DenseMatrix)) {
        for l in &mut self.linears {
            l.visit_params(&mut |p, _| f(p));
        }
    }

    /// Per-hidden-layer dropout call counters — the mask stream
    /// positions. Part of the checkpoint contract: a resumed run must
    /// continue the same call sequence the reference run would use.
    pub fn dropout_calls(&self) -> Vec<u64> {
        vec![self.calls; self.linears.len() - 1]
    }

    /// Restores the dropout call counters (checkpoint resume).
    pub fn restore_dropout_calls(&mut self, calls: &[u64]) {
        if let Some(&c) = calls.first() {
            self.calls = c;
        }
    }

    /// Peak resident bytes of one training step on an `n_nodes` graph:
    /// two graph-scale activations per layer, parameters, and the
    /// last forward's cached layer inputs.
    pub fn step_bytes(&self, n_nodes: usize, in_dim: usize) -> usize {
        let mut dims = vec![in_dim];
        dims.extend(self.linears.iter().map(|l| l.out_dim()));
        let acts: usize = dims.iter().map(|&d| 2 * n_nodes * d * 4).sum();
        let params: usize = self.linears.iter().map(|l| l.nbytes()).sum();
        acts + params + self.caches.iter().map(|c| c.x.nbytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_data::sbm_dataset;
    use sgnn_nn::loss::softmax_cross_entropy;
    use sgnn_nn::optim::Adam;

    #[test]
    fn gcn_learns_homophilous_sbm() {
        let ds = sbm_dataset(400, 4, 10.0, 0.9, 8, 1.0, 0, 0.5, 0.25, 1);
        let op = gcn_operator(&ds.graph);
        let mut gcn = Gcn::new(8, 4, &GcnConfig { hidden: vec![16], dropout: 0.1, seed: 2 });
        let mut opt = Adam::new(0.01);
        let train_rows: Vec<usize> = ds.splits.train.iter().map(|&u| u as usize).collect();
        let train_labels = ds.labels_of(&ds.splits.train);
        for _ in 0..60 {
            let logits = gcn.forward(&op, &ds.features);
            let batch_logits = logits.gather_rows(&train_rows);
            let (_, dl_batch) = softmax_cross_entropy(&batch_logits, &train_labels, None);
            let mut dl = DenseMatrix::zeros(400, 4);
            dl.scatter_rows(&train_rows, &dl_batch);
            gcn.zero_grad();
            gcn.backward(&op, &dl);
            gcn.step(&mut opt);
        }
        let logits = gcn.forward_inference(&op, &ds.features);
        let test_rows: Vec<usize> = ds.splits.test.iter().map(|&u| u as usize).collect();
        let acc = sgnn_nn::loss::accuracy(
            &logits.gather_rows(&test_rows),
            &ds.labels_of(&ds.splits.test),
        );
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn gradient_check_through_propagation() {
        let ds = sbm_dataset(30, 2, 4.0, 0.8, 4, 0.5, 0, 0.5, 0.25, 3);
        let op = gcn_operator(&ds.graph);
        let mut gcn = Gcn::new(4, 2, &GcnConfig { hidden: vec![5], dropout: 0.0, seed: 4 });
        let targets: Vec<usize> = ds.labels.clone();
        let loss_of = |g: &Gcn| {
            let logits = g.forward_inference(&op, &ds.features);
            softmax_cross_entropy(&logits, &targets, None).0
        };
        let logits = gcn.forward(&op, &ds.features);
        let (_, dl) = softmax_cross_entropy(&logits, &targets, None);
        gcn.zero_grad();
        gcn.backward(&op, &dl);
        let analytic = gcn.layer(0).gw.get(1, 2);
        let eps = 1e-2f32;
        let w0 = gcn.layer(0).w.get(1, 2);
        let base = loss_of(&gcn);
        gcn.layer_mut(0).w.set(1, 2, w0 + eps);
        let bumped = loss_of(&gcn);
        let num = (bumped - base) / eps;
        assert!((num - analytic).abs() < 2e-2, "num {num} vs analytic {analytic}");
    }

    #[test]
    fn same_weights_run_on_different_operators() {
        // The subgraph-training contract: one weight set, many graphs.
        let ds = sbm_dataset(100, 2, 6.0, 0.8, 4, 0.5, 0, 0.5, 0.25, 5);
        let op_full = gcn_operator(&ds.graph);
        let (sub, nodes) = ds.graph.induced_subgraph(&(0..40u32).collect::<Vec<_>>());
        let op_sub = gcn_operator(&sub);
        let gcn = Gcn::new(4, 2, &GcnConfig { hidden: vec![8], dropout: 0.0, seed: 6 });
        let full = gcn.forward_inference(&op_full, &ds.features);
        let rows: Vec<usize> = nodes.iter().map(|&u| u as usize).collect();
        let sub_logits = gcn.forward_inference(&op_sub, &ds.features.gather_rows(&rows));
        assert_eq!(full.shape(), (100, 2));
        assert_eq!(sub_logits.shape(), (40, 2));
    }

    #[test]
    fn shapes_and_params() {
        let gcn = Gcn::new(6, 2, &GcnConfig { hidden: vec![8, 4], dropout: 0.2, seed: 6 });
        assert_eq!(gcn.num_layers(), 3);
        assert_eq!(gcn.num_params(), 6 * 8 + 8 + 8 * 4 + 4 + 4 * 2 + 2);
        assert!(gcn.step_bytes(50, 6) > 0);
    }
}
