//! Sampled GraphSAGE over message-flow blocks (§3.1.2 "Graph Sampling").
//!
//! Layer rule: `h'_u = σ(W_self·h_u + W_neigh·mean_{v∈S(u)} h_v)` where
//! `S(u)` is whatever the block's sampler chose (node-wise, LADIES, or
//! LABOR — the model is sampler-agnostic; it just consumes
//! [`Block`](sgnn_sample::Block) stacks).
//!
//! Every path runs one layer step over a [`CsrView`] (`layer_forward` /
//! `layer_backward`): the block forward and backward, the history
//! trainer's two layers, and each tile of [`Sage::forward_full`], which
//! evaluates without sampling: one layer at a time over full
//! neighbourhoods, each node of the requested nodes' receptive field
//! once. The neighbour mean is `sgnn_graph::blocked`'s register gather.

use sgnn_graph::blocked::{aggregate_backward_into, aggregate_into};
use sgnn_graph::{CsrGraph, CsrView, NodeId};
use sgnn_linalg::{vecops, DenseMatrix};
use sgnn_nn::layers::Linear;
use sgnn_nn::optim::Optimizer;
use sgnn_sample::Block;

/// Output rows per tile of [`Sage::forward_full`]. A tile gathers its
/// self rows and neighbour means into two `EVAL_TILE × width` scratch
/// matrices, so the scratch stays fixed however large a layer is.
pub const EVAL_TILE: usize = 2048;

pub(crate) struct SageLayer {
    pub(crate) lin_self: Linear,
    pub(crate) lin_neigh: Linear,
    is_last: bool,
}

/// What a layer step keeps for its backward, reused across steps: the
/// self rows, their neighbour means, the ReLU mask (empty for the
/// output layer), and the backward's scratch.
#[derive(Default)]
pub(crate) struct SageCache {
    x_self: DenseMatrix,
    agg: DenseMatrix,
    mask: Vec<bool>,
    /// Whether the self rows were the view's dst prefix, which
    /// [`SageLayer::layer_backward`] assumes.
    prefix: bool,
    /// The masked output gradient of a hidden layer.
    dz: DenseMatrix,
    /// A transposed weight.
    wt: DenseMatrix,
    /// The gradient fold's fixed-point partials.
    fx: Vec<i128>,
}

impl SageLayer {
    /// One layer over `view`, whose rows are this layer's outputs and
    /// whose columns are rows of `h`: `z = h_self·W_self + (view·h)·W_neigh`,
    /// then ReLU for a hidden layer. The self rows are the rows of `h`
    /// that `self_rows` lists, or its first `view.num_rows()` rows when
    /// `None` (a block's dst prefix). `h` is borrowed; `cache` keeps the
    /// self rows, the means and the mask for
    /// [`layer_backward`](Self::layer_backward).
    pub(crate) fn layer_forward(
        &self,
        view: CsrView<'_>,
        h: &DenseMatrix,
        self_rows: Option<&[usize]>,
        cache: &mut SageCache,
    ) -> DenseMatrix {
        let (rows, d) = (view.num_rows(), h.cols());
        cache.prefix = self_rows.is_none();
        cache.x_self.reshape_scratch(rows, d);
        match self_rows {
            Some(idx) => h.gather_rows_into(idx, &mut cache.x_self),
            None => cache.x_self.data_mut().copy_from_slice(&h.data()[..rows * d]),
        }
        cache.agg.reshape_scratch(rows, d);
        aggregate_into(view, h, &mut cache.agg);
        let mut z = self.lin_self.forward_inference(&cache.x_self);
        z.add_scaled(1.0, &self.lin_neigh.forward_inference(&cache.agg)).expect("shapes fixed");
        cache.mask.clear();
        if !self.is_last {
            cache.mask.extend(z.data().iter().map(|&v| v > 0.0));
            z.map_inplace(|v| v.max(0.0));
        }
        z
    }

    /// The backward of [`layer_forward`](Self::layer_forward) over the
    /// same `view` (self rows the dst prefix): the ReLU backward of `dy`
    /// for a hidden layer, both linears' gradients folded exactly
    /// ([`Linear::fold_fx`]) and accumulated, and, only when `dx` is
    /// given, the input gradient written into it: `view`'s transpose
    /// applied to `dZ·W_neighᵀ`, plus `dZ·W_selfᵀ` on the prefix rows.
    pub(crate) fn layer_backward(
        &mut self,
        view: CsrView<'_>,
        cache: &mut SageCache,
        dy: &DenseMatrix,
        dx: Option<&mut DenseMatrix>,
    ) {
        debug_assert!(cache.prefix, "layer_backward needs a forward over the dst prefix");
        let SageCache { x_self, agg, mask, dz, wt, fx, .. } = cache;
        let dz = if self.is_last {
            dy
        } else {
            dz.reshape_scratch(dy.rows(), dy.cols());
            for ((g, &v), &m) in dz.data_mut().iter_mut().zip(dy.data()).zip(mask.iter()) {
                *g = if m { v } else { 0.0 };
            }
            &*dz
        };
        for (lin, x) in [(&mut self.lin_self, &*x_self), (&mut self.lin_neigh, &*agg)] {
            fx.clear();
            fx.resize(lin.num_params(), 0);
            lin.fold_fx(x, dz, fx);
            lin.accumulate_fx(fx);
        }
        if let Some(dh) = dx {
            let d_agg = self.lin_neigh.input_grad(dz, wt);
            dh.reshape_scratch(view.num_cols, d_agg.cols());
            aggregate_backward_into(view, &d_agg, dh);
            let d_self = self.lin_self.input_grad(dz, wt);
            for r in 0..d_self.rows() {
                vecops::axpy(1.0, d_self.row(r), dh.row_mut(r));
            }
        }
    }
}

/// A GraphSAGE model: one [`SageLayer`] per sampled block.
pub struct Sage {
    pub(crate) layers: Vec<SageLayer>,
    /// Per-layer caches of the last training forward.
    caches: Vec<SageCache>,
    /// Backward scratch: one layer's output gradient and its input
    /// gradient, swapped after each layer.
    grads: [DenseMatrix; 2],
}

impl Sage {
    /// Builds a SAGE model: `dims = [in, hidden…, classes]`, one layer per
    /// consecutive dim pair (must equal the number of blocks fed later).
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2);
        let mut layers = Vec::new();
        for i in 0..dims.len() - 1 {
            layers.push(SageLayer {
                lin_self: Linear::new(dims[i], dims[i + 1], seed.wrapping_add(2 * i as u64)),
                lin_neigh: Linear::new(dims[i], dims[i + 1], seed.wrapping_add(2 * i as u64 + 1)),
                is_last: i + 2 == dims.len(),
            });
        }
        Sage { layers, caches: Vec::new(), grads: Default::default() }
    }

    /// Number of layers (= blocks consumed per forward).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.lin_self.num_params() + l.lin_neigh.num_params()).sum()
    }

    /// Training forward through a block stack (deepest block first).
    /// `x_input` holds features of `blocks[0].src`.
    pub fn forward(&mut self, blocks: &[Block], x_input: &DenseMatrix) -> DenseMatrix {
        assert_eq!(blocks.len(), self.layers.len(), "one block per layer");
        let mut caches = std::mem::take(&mut self.caches);
        caches.resize_with(self.layers.len(), SageCache::default);
        let mut h: Option<DenseMatrix> = None;
        for ((layer, block), cache) in self.layers.iter().zip(blocks).zip(&mut caches) {
            let input = h.as_ref().unwrap_or(x_input);
            h = Some(layer.layer_forward(block.view(), input, None, cache));
        }
        self.caches = caches;
        h.expect("Sage has at least one layer")
    }

    /// Inference forward (no caches kept).
    pub fn forward_inference(&self, blocks: &[Block], x_input: &DenseMatrix) -> DenseMatrix {
        let mut scratch = SageCache::default();
        let mut h: Option<DenseMatrix> = None;
        for (layer, block) in self.layers.iter().zip(blocks) {
            let input = h.as_ref().unwrap_or(x_input);
            h = Some(layer.layer_forward(block.view(), input, None, &mut scratch));
        }
        h.unwrap_or_else(|| x_input.clone())
    }

    /// Full-neighbour inference for `nodes`: row `i` of the result is
    /// the output for `nodes[i]`. `x` holds one feature row per node of
    /// `g`.
    ///
    /// Layer `ℓ` of `L` runs once for each node within `L − 1 − ℓ` hops
    /// of `nodes` (the last layer for `nodes` themselves), however much
    /// their neighbourhoods overlap. A node's neighbour half is the mean
    /// over *all* its neighbours: weight `1 / deg` per edge, in CSR
    /// order, through the same layer step and gather as a block. That is
    /// the block the node-wise sampler builds when `deg ≤ fanout`, so
    /// where no node of the receptive field has a degree above the fanout
    /// the output equals [`forward_inference`](Self::forward_inference)
    /// over sampled blocks bit for bit. Each tile of [`EVAL_TILE`] nodes
    /// is a view whose columns are input rows: features straight from
    /// `x`, later layers from the previous output, so at most two layer
    /// outputs and the tile scratch are alive at once.
    pub fn forward_full(&self, g: &CsrGraph, x: &DenseMatrix, nodes: &[NodeId]) -> DenseMatrix {
        let (n, depth) = (g.num_nodes(), self.layers.len());
        assert_eq!(x.rows(), n, "one feature row per node");
        // Hop distance from `nodes`, up to `depth − 1`; farther is MAX.
        let mut hops = vec![u32::MAX; n];
        let mut frontier: Vec<NodeId> = Vec::new();
        for &u in nodes {
            if hops[u as usize] == u32::MAX {
                hops[u as usize] = 0;
                frontier.push(u);
            }
        }
        for hop in 1..depth as u32 {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in g.neighbors(u) {
                    if hops[v as usize] == u32::MAX {
                        hops[v as usize] = hop;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        // Row of each node in the previous layer's output.
        let mut pos = vec![0u32; n];
        let mut prev: Option<DenseMatrix> = None;
        let mut scratch = SageCache::default();
        // One tile as a view, reused across tiles: each node's full
        // neighbourhood at weight `1 / deg`, columns and self rows mapped
        // to rows of the layer input.
        let (mut indptr, mut cols, mut weights, mut self_rows) = (vec![0], vec![], vec![], vec![]);
        for (l, layer) in self.layers.iter().enumerate() {
            let reach = (depth - 1 - l) as u32;
            let owned: Vec<NodeId>;
            let rows = if layer.is_last {
                nodes
            } else {
                owned = (0..n as NodeId).filter(|&u| hops[u as usize] <= reach).collect();
                &owned
            };
            let input = prev.as_ref().unwrap_or(x);
            let from_prev = prev.is_some();
            let row_of = |v: NodeId| if from_prev { pos[v as usize] as usize } else { v as usize };
            let width = layer.lin_self.out_dim();
            let mut out = DenseMatrix::zeros(rows.len(), width);
            for (t, tile) in rows.chunks(EVAL_TILE).enumerate() {
                indptr.truncate(1);
                cols.clear();
                weights.clear();
                self_rows.clear();
                for &u in tile {
                    let neigh = g.neighbors(u);
                    cols.extend(neigh.iter().map(|&v| row_of(v) as u32));
                    weights.extend(std::iter::repeat_n(1.0 / neigh.len() as f32, neigh.len()));
                    indptr.push(cols.len());
                    self_rows.push(row_of(u));
                }
                let w = Some(&weights[..]);
                let view =
                    CsrView { indptr: &indptr, cols: &cols, weights: w, num_cols: input.rows() };
                let z = layer.layer_forward(view, input, Some(&self_rows), &mut scratch);
                let start = t * EVAL_TILE * width;
                out.data_mut()[start..start + z.data().len()].copy_from_slice(z.data());
            }
            if !layer.is_last {
                for (i, &u) in rows.iter().enumerate() {
                    pos[u as usize] = i as u32;
                }
            }
            prev = Some(out);
        }
        prev.expect("Sage has at least one layer")
    }

    /// Backward through the same block stack. The layer-0 input
    /// gradient is never formed: nothing reads it.
    pub fn backward(&mut self, blocks: &[Block], dlogits: &DenseMatrix) {
        let [mut dy, mut dx] = std::mem::take(&mut self.grads);
        let last = self.layers.len() - 1;
        for (i, (layer, block)) in self.layers.iter_mut().zip(blocks).enumerate().rev() {
            let g = if i == last { dlogits } else { &dy };
            let want = (i > 0).then_some(&mut dx);
            layer.layer_backward(block.view(), &mut self.caches[i], g, want);
            std::mem::swap(&mut dy, &mut dx);
        }
        self.grads = [dy, dx];
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.lin_self.zero_grad();
            l.lin_neigh.zero_grad();
        }
    }

    /// Visits every parameter tensor in the slot order [`step`](Sage::step)
    /// uses — the checkpoint save/restore contract.
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut DenseMatrix)) {
        for l in &mut self.layers {
            l.lin_self.visit_params(&mut |p, _| f(p));
            l.lin_neigh.visit_params(&mut |p, _| f(p));
        }
    }

    /// Optimizer step.
    pub fn step(&mut self, opt: &mut dyn Optimizer) {
        let mut slot = 0usize;
        for l in &mut self.layers {
            l.lin_self.visit_params(&mut |p, g| {
                opt.update(slot, p, g);
                slot += 1;
            });
            l.lin_neigh.visit_params(&mut |p, g| {
                opt.update(slot, p, g);
                slot += 1;
            });
        }
        opt.step_done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_data::sbm_dataset;
    use sgnn_nn::loss::softmax_cross_entropy;
    use sgnn_nn::optim::Adam;
    use sgnn_sample::node_wise::sample_blocks;

    #[test]
    fn shapes_flow_through_block_stack() {
        let ds = sbm_dataset(300, 3, 8.0, 0.8, 6, 0.5, 0, 0.5, 0.25, 1);
        let targets: Vec<u32> = vec![0, 5, 9, 20];
        let blocks = sample_blocks(&ds.graph, &targets, &[4, 4], 2);
        let mut sage = Sage::new(&[6, 8, 3], 3);
        let src_rows: Vec<usize> = blocks[0].src.iter().map(|&v| v as usize).collect();
        let x_in = ds.features.gather_rows(&src_rows);
        let logits = sage.forward(&blocks, &x_in);
        assert_eq!(logits.shape(), (4, 3));
        let (_, dl) = softmax_cross_entropy(&logits, &[0, 1, 2, 0], None);
        sage.zero_grad();
        sage.backward(&blocks, &dl);
    }

    #[test]
    fn sage_learns_sbm_with_sampling() {
        let ds = sbm_dataset(600, 3, 10.0, 0.9, 6, 0.8, 0, 0.5, 0.25, 4);
        let mut sage = Sage::new(&[6, 16, 3], 5);
        let mut opt = Adam::new(0.01);
        let batch = 64usize;
        for epoch in 0..30u64 {
            for (bi, chunk) in ds.splits.train.chunks(batch).enumerate() {
                let blocks = sample_blocks(&ds.graph, chunk, &[5, 5], epoch * 1000 + bi as u64);
                let src_rows: Vec<usize> = blocks[0].src.iter().map(|&v| v as usize).collect();
                let x_in = ds.features.gather_rows(&src_rows);
                let logits = sage.forward(&blocks, &x_in);
                let (_, dl) = softmax_cross_entropy(&logits, &ds.labels_of(chunk), None);
                sage.zero_grad();
                sage.backward(&blocks, &dl);
                sage.step(&mut opt);
            }
        }
        // Evaluate with large fanout (near-exact aggregation).
        let blocks = sample_blocks(&ds.graph, &ds.splits.test, &[30, 30], 999);
        let src_rows: Vec<usize> = blocks[0].src.iter().map(|&v| v as usize).collect();
        let x_in = ds.features.gather_rows(&src_rows);
        let logits = sage.forward_inference(&blocks, &x_in);
        let acc = sgnn_nn::loss::accuracy(&logits, &ds.labels_of(&ds.splits.test));
        assert!(acc > 0.75, "accuracy {acc}");
    }

    #[test]
    fn gradient_check_through_block() {
        let ds = sbm_dataset(40, 2, 4.0, 0.8, 4, 0.5, 0, 0.5, 0.25, 7);
        let targets: Vec<u32> = vec![0, 3];
        let blocks = sample_blocks(&ds.graph, &targets, &[3], 8);
        let mut sage = Sage::new(&[4, 2], 9);
        let src_rows: Vec<usize> = blocks[0].src.iter().map(|&v| v as usize).collect();
        let x_in = ds.features.gather_rows(&src_rows);
        let labels = [0usize, 1];
        let loss_of = |s: &Sage| {
            let logits = s.forward_inference(&blocks, &x_in);
            softmax_cross_entropy(&logits, &labels, None).0
        };
        let logits = sage.forward(&blocks, &x_in);
        let (_, dl) = softmax_cross_entropy(&logits, &labels, None);
        sage.zero_grad();
        sage.backward(&blocks, &dl);
        let analytic = sage.layers[0].lin_neigh.gw.get(2, 1);
        let base = loss_of(&sage);
        let eps = 1e-2f32;
        let w = sage.layers[0].lin_neigh.w.get(2, 1);
        sage.layers[0].lin_neigh.w.set(2, 1, w + eps);
        let num = (loss_of(&sage) - base) / eps;
        assert!((num - analytic).abs() < 2e-2, "num {num} vs analytic {analytic}");
    }
}
