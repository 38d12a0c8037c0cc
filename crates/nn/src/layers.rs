//! Layers with explicit forward/backward passes.
//!
//! Every layer caches what its backward pass needs at forward time and
//! accumulates parameter gradients into its own buffers; `zero_grad`
//! clears them. Optimizers visit `(param, grad)` pairs through
//! [`Linear::visit_params`].

use sgnn_linalg::{reduce, DenseMatrix, QuantMatrix, QuantMode};

/// Fully-connected layer `Y = X·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix (`in × out`).
    pub w: DenseMatrix,
    /// Bias (`1 × out`).
    pub b: DenseMatrix,
    /// Weight gradient.
    pub gw: DenseMatrix,
    /// Bias gradient.
    pub gb: DenseMatrix,
    cache_x: Option<DenseMatrix>,
    /// Backward scratch, reused across calls: the fixed-point `[gW | gb]`
    /// partials and `Wᵀ`. Empty until the first backward.
    fx: Vec<i128>,
    wt: DenseMatrix,
}

impl Linear {
    /// Glorot-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Linear {
            w: DenseMatrix::glorot(in_dim, out_dim, seed),
            b: DenseMatrix::zeros(1, out_dim),
            gw: DenseMatrix::zeros(in_dim, out_dim),
            gb: DenseMatrix::zeros(1, out_dim),
            cache_x: None,
            fx: Vec::new(),
            wt: DenseMatrix::default(),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass; caches `x` for backward.
    pub fn forward(&mut self, x: &DenseMatrix) -> DenseMatrix {
        let mut y = x.matmul(&self.w).expect("linear shape mismatch");
        for r in 0..y.rows() {
            sgnn_linalg::vecops::axpy(1.0, self.b.row(0), y.row_mut(r));
        }
        self.cache_x = Some(x.clone());
        y
    }

    /// Inference-only forward (no cache).
    pub fn forward_inference(&self, x: &DenseMatrix) -> DenseMatrix {
        let mut y = x.matmul(&self.w).expect("linear shape mismatch");
        for r in 0..y.rows() {
            sgnn_linalg::vecops::axpy(1.0, self.b.row(0), y.row_mut(r));
        }
        y
    }

    /// Backward pass: accumulates `gw += Xᵀ·dY`, `gb += Σ dY`, returns
    /// `dX = dY·Wᵀ` — [`fold_fx`](Self::fold_fx),
    /// [`accumulate_fx`](Self::accumulate_fx) and
    /// [`input_grad`](Self::input_grad) over the cached input.
    pub fn backward(&mut self, dy: &DenseMatrix) -> DenseMatrix {
        let x = self.cache_x.as_ref().expect("backward before forward");
        let mut fx = std::mem::take(&mut self.fx);
        fx.clear();
        fx.resize(self.num_params(), 0);
        self.fold_fx(x, dy, &mut fx);
        self.accumulate_fx(&fx);
        self.fx = fx;
        let mut wt = std::mem::take(&mut self.wt);
        let dx = self.input_grad(dy, &mut wt);
        self.wt = wt;
        dx
    }

    /// Adds the fixed-point partials `gW += Xᵀ·dY`, `gb += Σ dY` of
    /// input rows `x` into `fx`, laid out `[gW | gb]`. The exact fold of
    /// [`sgnn_linalg::reduce`] makes them independent of row order and
    /// row partitioning, so per-shard partials, merged, equal the
    /// single-process fold bit for bit (DESIGN.md §7).
    pub fn fold_fx(&self, x: &DenseMatrix, dy: &DenseMatrix, fx: &mut [i128]) {
        let (gw, gb) = fx.split_at_mut(self.w.rows() * self.w.cols());
        reduce::grad_fx(x, dy, gw);
        reduce::colsum_fx(dy, gb);
    }

    /// Adds a `[gW | gb]` fixed-point total into the gradient buffers,
    /// with one `f32` rounding per element.
    pub fn accumulate_fx(&mut self, fx: &[i128]) {
        let (gw, gb) = fx.split_at(self.w.rows() * self.w.cols());
        reduce::accumulate_fx(self.gw.data_mut(), gw);
        reduce::accumulate_fx(self.gb.data_mut(), gb);
    }

    /// Input gradient `dX = dY·Wᵀ`, per row, transposing `W` into the
    /// caller's scratch `wt`.
    pub fn input_grad(&self, dy: &DenseMatrix, wt: &mut DenseMatrix) -> DenseMatrix {
        wt.reshape_scratch(self.w.cols(), self.w.rows());
        self.w.transpose_into(wt);
        dy.matmul(wt).expect("shapes fixed")
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gw.map_inplace(|_| 0.0);
        self.gb.map_inplace(|_| 0.0);
    }

    /// Visits `(param, grad)` pairs for the optimizer.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut DenseMatrix, &DenseMatrix)) {
        f(&mut self.w, &self.gw);
        f(&mut self.b, &self.gb);
    }

    /// Parameter count.
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.cols()
    }

    /// Resident bytes of parameters + gradients (+ cache when present).
    pub fn nbytes(&self) -> usize {
        self.w.nbytes()
            + self.b.nbytes()
            + self.gw.nbytes()
            + self.gb.nbytes()
            + self.cache_x.as_ref().map_or(0, |c| c.nbytes())
    }
}

/// A [`Linear`] layer's inference weights, quantized once under a lossy
/// [`QuantMode`]: `W` as a [`QuantMatrix`], the bias kept in f32. Each
/// forward quantizes its activations per row, accumulates in f32 and
/// adds the bias in f32 (error tolerance: DESIGN.md §9).
#[derive(Debug, Clone)]
pub(crate) struct QuantLinear {
    wq: QuantMatrix,
    b: DenseMatrix,
    mode: QuantMode,
}

impl QuantLinear {
    /// Quantizes `l`'s weights; `None` for [`QuantMode::F32`], which
    /// keeps the dense layer.
    pub(crate) fn new(l: &Linear, mode: QuantMode) -> Option<Self> {
        Some(QuantLinear { wq: QuantMatrix::quantize(&l.w, mode)?, b: l.b.clone(), mode })
    }

    /// `Y = q(X)·q(W) + b`.
    pub(crate) fn forward(&self, x: &DenseMatrix) -> DenseMatrix {
        let xq = QuantMatrix::quantize(x, self.mode).expect("mode is quantized");
        let mut y = DenseMatrix::zeros(x.rows(), self.b.cols());
        sgnn_linalg::qmatmul_into(&xq, &self.wq, &mut y).expect("linear shape mismatch");
        for r in 0..y.rows() {
            sgnn_linalg::vecops::axpy(1.0, self.b.row(0), y.row_mut(r));
        }
        y
    }
}

/// Rectified linear activation.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Vec<bool>,
}

impl ReLU {
    /// New activation layer.
    pub fn new() -> Self {
        ReLU { mask: Vec::new() }
    }

    /// Forward pass; records which entries were positive.
    pub fn forward(&mut self, x: &DenseMatrix) -> DenseMatrix {
        self.mask.clear();
        self.mask.extend(x.data().iter().map(|&v| v > 0.0));
        x.map(|v| v.max(0.0))
    }

    /// Inference-only forward.
    pub fn forward_inference(&self, x: &DenseMatrix) -> DenseMatrix {
        x.map(|v| v.max(0.0))
    }

    /// Backward pass: zero out gradients where the input was ≤ 0.
    pub fn backward(&self, dy: &DenseMatrix) -> DenseMatrix {
        assert_eq!(dy.data().len(), self.mask.len(), "backward before forward");
        let mut dx = dy.clone();
        for (v, &m) in dx.data_mut().iter_mut().zip(self.mask.iter()) {
            if !m {
                *v = 0.0;
            }
        }
        dx
    }
}

/// Inverted dropout.
///
/// The mask is a **stateless** function of `(seed, call number, element
/// index)` — a SplitMix64 hash per element rather than a sequential RNG
/// stream — so any row subset of a forward pass can reproduce exactly
/// its own mask entries. The GCN layer step relies on this: each shard
/// of the shard trainer regenerates the mask for the global rows it owns
/// via [`Dropout::element_scale`] and lands on the same bits the
/// full-matrix forward produced (DESIGN.md §7).
#[derive(Debug, Clone)]
pub struct Dropout {
    /// Drop probability.
    pub p: f32,
    mask: Vec<f32>,
    seed: u64,
    calls: u64,
}

impl Dropout {
    /// New dropout layer with drop probability `p`, deterministic under
    /// `seed`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p));
        Dropout { p, mask: Vec::new(), seed, calls: 0 }
    }

    /// Per-call seed: forward call `call` (1-based) of a layer seeded
    /// with `seed` draws its element hashes from this stream.
    #[inline]
    pub fn call_seed(seed: u64, call: u64) -> u64 {
        seed.wrapping_add(call.wrapping_mul(0x9E37_79B9))
    }

    /// Mask scale for one element: `0.0` (dropped) or `1/(1−p)` (kept),
    /// as a pure function of `(call_seed, element index)`. `elem` is the
    /// flat row-major index `row·cols + col` of the *full* forward
    /// matrix, so shards index by global row and agree with the
    /// reference.
    #[inline]
    pub fn element_scale(call_seed: u64, p: f32, elem: u64) -> f32 {
        if sgnn_linalg::rng::node_variate(call_seed, elem) < p as f64 {
            0.0
        } else {
            1.0 / (1.0 - p)
        }
    }

    /// Training forward: scales kept entries by `1/(1−p)`.
    pub fn forward(&mut self, x: &DenseMatrix) -> DenseMatrix {
        self.calls += 1;
        let cs = Self::call_seed(self.seed, self.calls);
        self.mask.clear();
        self.mask.reserve(x.data().len());
        let mut y = x.clone();
        for (i, v) in y.data_mut().iter_mut().enumerate() {
            let m = Self::element_scale(cs, self.p, i as u64);
            self.mask.push(m);
            *v *= m;
        }
        y
    }

    /// Inference forward: identity (inverted dropout needs no rescale).
    pub fn forward_inference(&self, x: &DenseMatrix) -> DenseMatrix {
        x.clone()
    }

    /// Backward pass through the recorded mask.
    pub fn backward(&self, dy: &DenseMatrix) -> DenseMatrix {
        assert_eq!(dy.data().len(), self.mask.len(), "backward before forward");
        let mut dx = dy.clone();
        for (v, &m) in dx.data_mut().iter_mut().zip(self.mask.iter()) {
            *v *= m;
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_matches_manual() {
        let mut l = Linear::new(2, 2, 1);
        l.w = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        l.b = DenseMatrix::from_rows(&[&[0.5, -0.5]]);
        let x = DenseMatrix::from_rows(&[&[1.0, 1.0]]);
        let y = l.forward(&x);
        assert_eq!(y.row(0), &[4.5, 5.5]);
    }

    #[test]
    fn linear_gradient_check() {
        // Finite differences on a scalar loss L = sum(Y ⊙ R).
        let mut l = Linear::new(3, 2, 2);
        let x = DenseMatrix::gaussian(4, 3, 1.0, 3);
        let r = DenseMatrix::gaussian(4, 2, 1.0, 4);
        let y = l.forward(&x);
        let _ = y;
        let dx = l.backward(&r);
        let eps = 1e-3f32;
        // Check dL/dW[0][1].
        let base = |l: &Linear| -> f32 {
            let y = l.forward_inference(&x);
            sgnn_linalg::vecops::dot(y.data(), r.data())
        };
        let mut lp = l.clone();
        let w01 = lp.w.get(0, 1);
        lp.w.set(0, 1, w01 + eps);
        let num = (base(&lp) - base(&l)) / eps;
        assert!((num - l.gw.get(0, 1)).abs() < 1e-2, "num {num} vs {}", l.gw.get(0, 1));
        // Check dL/db[0].
        let mut lb = l.clone();
        let b00 = lb.b.get(0, 0);
        lb.b.set(0, 0, b00 + eps);
        let numb = (base(&lb) - base(&l)) / eps;
        assert!((numb - l.gb.get(0, 0)).abs() < 1e-2);
        // Check dL/dX[1][2].
        let mut x2 = x.clone();
        let x12 = x2.get(1, 2);
        x2.set(1, 2, x12 + eps);
        let y2 = l.forward_inference(&x2);
        let numx = (sgnn_linalg::vecops::dot(y2.data(), r.data()) - base(&l)) / eps;
        assert!((numx - dx.get(1, 2)).abs() < 1e-2);
    }

    #[test]
    fn linear_gradients_accumulate_until_zeroed() {
        let mut l = Linear::new(2, 2, 5);
        let x = DenseMatrix::gaussian(3, 2, 1.0, 6);
        let dy = DenseMatrix::gaussian(3, 2, 1.0, 7);
        l.forward(&x);
        l.backward(&dy);
        let g1 = l.gw.get(0, 0);
        l.forward(&x);
        l.backward(&dy);
        assert!((l.gw.get(0, 0) - 2.0 * g1).abs() < 1e-5);
        l.zero_grad();
        assert_eq!(l.gw.get(0, 0), 0.0);
    }

    #[test]
    fn relu_masks_forward_and_backward() {
        let mut r = ReLU::new();
        let x = DenseMatrix::from_rows(&[&[-1.0, 2.0, 0.0]]);
        let y = r.forward(&x);
        assert_eq!(y.row(0), &[0.0, 2.0, 0.0]);
        let dy = DenseMatrix::from_rows(&[&[5.0, 5.0, 5.0]]);
        let dx = r.backward(&dy);
        assert_eq!(dx.row(0), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn dropout_preserves_expectation_and_masks_backward() {
        let mut d = Dropout::new(0.4, 1);
        let x = DenseMatrix::from_vec(1, 10_000, vec![1.0; 10_000]);
        let y = d.forward(&x);
        let mean = sgnn_linalg::vecops::mean(y.data());
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Backward uses the same mask.
        let dy = DenseMatrix::from_vec(1, 10_000, vec![1.0; 10_000]);
        let dx = d.backward(&dy);
        for (a, b) in y.data().iter().zip(dx.data()) {
            assert_eq!(a, b); // identical mask scaling on unit inputs
        }
        // Inference passes through.
        let yi = d.forward_inference(&x);
        assert_eq!(yi.data(), x.data());
    }

    #[test]
    fn param_visiting_and_counts() {
        let mut l = Linear::new(4, 3, 9);
        assert_eq!(l.num_params(), 15);
        let mut seen = 0;
        l.visit_params(&mut |_, _| seen += 1);
        assert_eq!(seen, 2);
        assert!(l.nbytes() > 0);
    }
}
