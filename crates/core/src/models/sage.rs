//! Sampled GraphSAGE over message-flow blocks (§3.1.2 "Graph Sampling").
//!
//! Layer rule: `h'_u = σ(W_self·h_u + W_neigh·mean_{v∈S(u)} h_v)` where
//! `S(u)` is whatever the block's sampler chose (node-wise, LADIES, or
//! LABOR — the model is sampler-agnostic; it just consumes
//! [`Block`](sgnn_sample::Block) stacks).
//!
//! Evaluation does not sample: [`Sage::forward_full`] runs one layer at a
//! time over full neighbourhoods, computing each node of the requested
//! nodes' receptive field once.

use sgnn_graph::{CsrGraph, NodeId};
use sgnn_linalg::{par, vecops, DenseMatrix};
use sgnn_nn::layers::{Linear, ReLU};
use sgnn_nn::optim::Optimizer;
use sgnn_sample::Block;

/// Output rows per tile of [`Sage::forward_full`]. A tile gathers its
/// self rows and neighbour means into two `EVAL_TILE × width` scratch
/// matrices, so the scratch stays fixed however large a layer is.
pub const EVAL_TILE: usize = 2048;

pub(crate) struct SageLayer {
    pub(crate) lin_self: Linear,
    pub(crate) lin_neigh: Linear,
    pub(crate) relu: ReLU,
    is_last: bool,
}

impl SageLayer {
    /// This layer's output rows for `tile`, reading input rows of `h`
    /// through `row_of` (global id → row).
    fn infer_tile(
        &self,
        g: &CsrGraph,
        h: &DenseMatrix,
        row_of: &(impl Fn(NodeId) -> usize + Sync),
        tile: &[NodeId],
        self_t: &mut DenseMatrix,
        agg_t: &mut DenseMatrix,
    ) -> DenseMatrix {
        let d = h.cols();
        self_t.reshape_scratch(tile.len(), d);
        agg_t.reshape_scratch(tile.len(), d);
        for (i, &u) in tile.iter().enumerate() {
            self_t.row_mut(i).copy_from_slice(h.row(row_of(u)));
        }
        if d > 0 {
            par::par_rows_mut(agg_t.data_mut(), d, 64, |first, rows| {
                for (i, row) in rows.chunks_mut(d).enumerate() {
                    row.fill(0.0);
                    let neigh = g.neighbors(tile[first + i]);
                    let w = 1.0 / neigh.len() as f32;
                    for &v in neigh {
                        vecops::axpy(w, h.row(row_of(v)), row);
                    }
                }
            });
        }
        let mut z = self.lin_self.forward_inference(self_t);
        z.add_scaled(1.0, &self.lin_neigh.forward_inference(agg_t)).expect("shapes fixed");
        if self.is_last {
            z
        } else {
            self.relu.forward_inference(&z)
        }
    }
}

/// A GraphSAGE model: one [`SageLayer`] per sampled block.
pub struct Sage {
    pub(crate) layers: Vec<SageLayer>,
    // Per-layer caches for backward: (h_src, block dims).
    cache: Vec<CacheEntry>,
}

struct CacheEntry {
    num_dst: usize,
    num_src: usize,
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
                relu: ReLU::new(),
                is_last: i + 2 == dims.len(),
            });
        }
        Sage { layers, cache: Vec::new() }
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
        self.cache.clear();
        let mut h = x_input.clone();
        for (layer, block) in self.layers.iter_mut().zip(blocks.iter()) {
            assert_eq!(h.rows(), block.num_src());
            self.cache.push(CacheEntry { num_dst: block.num_dst(), num_src: block.num_src() });
            let h_dst = h.gather_rows(&(0..block.num_dst()).collect::<Vec<_>>());
            let agg = block.aggregate(&h);
            let mut z = layer.lin_self.forward(&h_dst);
            let zn = layer.lin_neigh.forward(&agg);
            z.add_scaled(1.0, &zn).expect("shapes fixed");
            h = if layer.is_last { z } else { layer.relu.forward(&z) };
        }
        h
    }

    /// Inference forward (no caches).
    pub fn forward_inference(&self, blocks: &[Block], x_input: &DenseMatrix) -> DenseMatrix {
        let mut h = x_input.clone();
        for (layer, block) in self.layers.iter().zip(blocks.iter()) {
            let h_dst = h.gather_rows(&(0..block.num_dst()).collect::<Vec<_>>());
            let agg = block.aggregate(&h);
            let mut z = layer.lin_self.forward_inference(&h_dst);
            let zn = layer.lin_neigh.forward_inference(&agg);
            z.add_scaled(1.0, &zn).expect("shapes fixed");
            h = if layer.is_last { z } else { layer.relu.forward_inference(&z) };
        }
        h
    }

    /// Full-neighbour inference for `nodes`: row `i` of the result is
    /// the output for `nodes[i]`. `x` holds one feature row per node of
    /// `g`.
    ///
    /// Layer `ℓ` of `L` runs once for each node within `L − 1 − ℓ` hops
    /// of `nodes` (the last layer for `nodes` themselves), however much
    /// their neighbourhoods overlap. A node's neighbour half is the mean
    /// over *all* its neighbours: weight `1 / deg` per edge, in CSR
    /// order, accumulated by `axpy` into a zeroed row. That is the block
    /// the node-wise sampler builds when `deg ≤ fanout`, so where no
    /// node of the receptive field has a degree above the fanout the
    /// output equals [`forward_inference`](Self::forward_inference) over
    /// sampled blocks bit for bit. Inputs are read by global id, features
    /// straight from `x`, so at most two layer outputs and the tile
    /// scratch are alive at once.
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
        let (mut self_t, mut agg_t) = (DenseMatrix::default(), DenseMatrix::default());
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
                let z = layer.infer_tile(g, input, &row_of, tile, &mut self_t, &mut agg_t);
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

    /// Backward through the same block stack.
    pub fn backward(&mut self, blocks: &[Block], dlogits: &DenseMatrix) {
        let mut g = dlogits.clone();
        for (i, (layer, block)) in self.layers.iter_mut().zip(blocks.iter()).enumerate().rev() {
            let entry = &self.cache[i];
            let dz = if layer.is_last { g.clone() } else { layer.relu.backward(&g) };
            let d_hdst = layer.lin_self.backward(&dz);
            let d_agg = layer.lin_neigh.backward(&dz);
            let mut d_h = block.aggregate_backward(&d_agg);
            debug_assert_eq!(d_h.rows(), entry.num_src);
            // dst rows are the prefix of src rows.
            for r in 0..entry.num_dst {
                sgnn_linalg::vecops::axpy(1.0, d_hdst.row(r), d_h.row_mut(r));
            }
            g = d_h;
        }
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
