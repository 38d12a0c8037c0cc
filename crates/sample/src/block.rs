//! Bipartite message-flow blocks.
//!
//! A [`Block`] is the sampled computation graph between two consecutive GNN
//! layers: `dst` nodes (this layer's outputs) aggregate from `src` nodes
//! (previous layer's outputs) through a weighted bipartite CSR. A stack of
//! blocks — innermost layer first — is what a sampled mini-batch *is*; the
//! trainer feeds features of the outermost `src` set in, and gets
//! predictions for the batch targets out.
//!
//! Invariant maintained by every sampler here: `dst` is a prefix of `src`
//! (each destination also appears as source index `i`), so models can read
//! self-features without extra bookkeeping.
//!
//! A block is a rectangular CSR matrix ([`Block::view`]), so it
//! aggregates through `sgnn_graph::blocked`'s register gather — the body
//! full-graph SpMM runs — and backpropagates through that module's
//! scatter.

use sgnn_graph::blocked;
use sgnn_graph::{CsrView, NodeId};
use sgnn_linalg::DenseMatrix;

/// One sampled bipartite layer.
#[derive(Debug, Clone)]
pub struct Block {
    /// Global ids of destination (output) nodes; row `i` of the block.
    pub dst: Vec<NodeId>,
    /// Global ids of source (input) nodes; `dst` is always a prefix.
    pub src: Vec<NodeId>,
    /// CSR row offsets over `dst`.
    pub indptr: Vec<usize>,
    /// Column indices into `src`.
    pub cols: Vec<u32>,
    /// Aggregation weights (already bias-corrected by the sampler).
    pub weights: Vec<f32>,
}

impl Block {
    /// Number of destination rows.
    pub fn num_dst(&self) -> usize {
        self.dst.len()
    }

    /// Number of source columns.
    pub fn num_src(&self) -> usize {
        self.src.len()
    }

    /// Number of sampled edges.
    pub fn num_edges(&self) -> usize {
        self.cols.len()
    }

    /// The block as a `num_dst × num_src` CSR matrix.
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            indptr: &self.indptr,
            cols: &self.cols,
            weights: Some(&self.weights),
            num_cols: self.src.len(),
        }
    }

    /// Aggregates source-node features: `Y[i] = Σ_e w_e · X[cols[e]]` for
    /// row `i`. `x_src` must have `num_src()` rows.
    pub fn aggregate(&self, x_src: &DenseMatrix) -> DenseMatrix {
        let mut y = DenseMatrix::zeros(self.dst.len(), x_src.cols());
        self.aggregate_into(x_src, &mut y);
        y
    }

    /// [`aggregate`](Self::aggregate) into a caller-owned `(num_dst, d)`
    /// matrix, overwriting it — mini-batch trainers reuse one scratch
    /// across steps instead of allocating per block. Each row starts
    /// from its first edge's term ([`blocked::aggregate_into`]); a row
    /// without edges is zero.
    pub fn aggregate_into(&self, x_src: &DenseMatrix, y: &mut DenseMatrix) {
        blocked::aggregate_into(self.view(), x_src, y);
    }

    /// Backpropagates gradients through [`aggregate`](Self::aggregate):
    /// given `dY` (per-dst), accumulates `dX[cols[e]] += w_e · dY[i]`.
    pub fn aggregate_backward(&self, dy: &DenseMatrix) -> DenseMatrix {
        let mut dx = DenseMatrix::zeros(self.src.len(), dy.cols());
        blocked::aggregate_backward_into(self.view(), dy, &mut dx);
        dx
    }

    /// Validates the structural invariants (dst-prefix, bounds, shapes).
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.dst.len() + 1 {
            return Err("indptr length".into());
        }
        if *self.indptr.last().unwrap_or(&0) != self.cols.len() {
            return Err("indptr end".into());
        }
        if self.cols.len() != self.weights.len() {
            return Err("weights not parallel".into());
        }
        if self.src.len() < self.dst.len() || self.src[..self.dst.len()] != self.dst[..] {
            return Err("dst is not a prefix of src".into());
        }
        if self.cols.iter().any(|&c| c as usize >= self.src.len()) {
            return Err("column out of range".into());
        }
        Ok(())
    }

    /// Memory footprint of the block structure in bytes.
    pub fn nbytes(&self) -> usize {
        self.dst.len() * 4
            + self.src.len() * 4
            + self.indptr.len() * std::mem::size_of::<usize>()
            + self.cols.len() * 4
            + self.weights.len() * 4
    }
}

/// Builds the unique `src` list for a set of `dst` nodes plus their sampled
/// neighbor lists, preserving the dst-prefix invariant. Returns
/// `(src, index_of)` where `index_of` maps global → local (dense vector
/// scratch, `u32::MAX` = absent).
pub(crate) fn build_src_index(
    n: usize,
    dst: &[NodeId],
    extra: impl Iterator<Item = NodeId>,
) -> (Vec<NodeId>, Vec<u32>) {
    let mut index_of = vec![u32::MAX; n];
    let mut src: Vec<NodeId> = Vec::with_capacity(dst.len() * 2);
    for &u in dst {
        debug_assert_eq!(index_of[u as usize], u32::MAX, "duplicate dst node");
        index_of[u as usize] = src.len() as u32;
        src.push(u);
    }
    for v in extra {
        if index_of[v as usize] == u32::MAX {
            index_of[v as usize] = src.len() as u32;
            src.push(v);
        }
    }
    (src, index_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_block() -> Block {
        // dst = [10, 20]; src = [10, 20, 30].
        Block {
            dst: vec![10, 20],
            src: vec![10, 20, 30],
            indptr: vec![0, 2, 3],
            cols: vec![1, 2, 2],
            weights: vec![0.5, 0.5, 1.0],
        }
    }

    #[test]
    fn aggregate_weighted_mean() {
        let b = toy_block();
        b.validate().unwrap();
        let x = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let y = b.aggregate(&x);
        assert_eq!(y.row(0), &[3.0]); // 0.5·2 + 0.5·4
        assert_eq!(y.row(1), &[4.0]); // 1.0·4
    }

    #[test]
    fn backward_is_transpose_of_forward() {
        let b = toy_block();
        // <A x, y> == <x, A^T y> for random x, y.
        let x = DenseMatrix::gaussian(3, 2, 1.0, 1);
        let gy = DenseMatrix::gaussian(2, 2, 1.0, 2);
        let ax = b.aggregate(&x);
        let aty = b.aggregate_backward(&gy);
        let lhs = sgnn_linalg::vecops::dot(ax.data(), gy.data());
        let rhs = sgnn_linalg::vecops::dot(x.data(), aty.data());
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn empty_widths_rows_and_neighbourhoods_aggregate_without_panicking() {
        let nan = |rows: usize, d: usize| DenseMatrix::from_vec(rows, d, vec![f32::NAN; rows * d]);
        let b = toy_block();
        // Zero feature columns: nothing to write, forward or backward.
        let mut y = nan(2, 0);
        b.aggregate_into(&DenseMatrix::zeros(3, 0), &mut y);
        assert_eq!(y.shape(), (2, 0));
        assert_eq!(b.aggregate_backward(&DenseMatrix::zeros(2, 0)).shape(), (3, 0));
        // Zero dst rows.
        let none =
            Block { dst: vec![], src: vec![30], indptr: vec![0], cols: vec![], weights: vec![] };
        none.validate().unwrap();
        let mut y = nan(0, 5);
        none.aggregate_into(&DenseMatrix::gaussian(1, 5, 1.0, 3), &mut y);
        assert_eq!(y.shape(), (0, 5));
        let mut dx = nan(1, 5);
        blocked::aggregate_backward_into(none.view(), &DenseMatrix::zeros(0, 5), &mut dx);
        assert!(dx.data().iter().all(|&v| v == 0.0));
        // A dst row with no edges comes out all zero.
        let lonely = Block {
            dst: vec![10, 20],
            src: vec![10, 20, 30],
            indptr: vec![0, 0, 2],
            cols: vec![0, 2],
            weights: vec![0.5, 0.5],
        };
        lonely.validate().unwrap();
        for d in [1usize, 5, 70] {
            let mut y = nan(2, d);
            lonely.aggregate_into(&DenseMatrix::gaussian(3, d, 1.0, d as u64), &mut y);
            assert!(y.row(0).iter().all(|&v| v.to_bits() == 0), "d={d}");
            assert!(y.row(1).iter().all(|v| v.is_finite()), "d={d}");
        }
    }

    #[test]
    fn validate_catches_broken_prefix() {
        let mut b = toy_block();
        b.src = vec![20, 10, 30];
        assert!(b.validate().is_err());
    }

    #[test]
    fn validate_catches_out_of_range_col() {
        let mut b = toy_block();
        b.cols[0] = 9;
        assert!(b.validate().is_err());
    }

    #[test]
    fn src_index_builder_dedups_and_prefixes() {
        let (src, idx) = build_src_index(50, &[5, 7], [7u32, 9, 5, 9].into_iter());
        assert_eq!(src, vec![5, 7, 9]);
        assert_eq!(idx[5], 0);
        assert_eq!(idx[7], 1);
        assert_eq!(idx[9], 2);
        assert_eq!(idx[8], u32::MAX);
    }
}
