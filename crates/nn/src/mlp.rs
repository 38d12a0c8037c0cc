//! Multi-layer perceptron — the trainable head of every decoupled model.
//!
//! Decoupled scalable GNNs (§3.1.2) reduce training to "MLP on
//! precomputed embeddings"; this module is that MLP: `Linear → ReLU →
//! Dropout` blocks with a final linear layer, explicit backward, and
//! optimizer hookup.

use crate::layers::{Dropout, Linear, QuantLinear, ReLU};
use crate::optim::Optimizer;
use sgnn_linalg::{DenseMatrix, QuantMode};

/// # Example
///
/// ```
/// use sgnn_linalg::DenseMatrix;
/// use sgnn_nn::{Mlp, Adam, softmax_cross_entropy};
///
/// let mut mlp = Mlp::new(&[4, 8, 2], 0.0, 7);
/// let x = DenseMatrix::gaussian(16, 4, 1.0, 1);
/// let targets = vec![0usize; 16];
/// let mut opt = Adam::new(0.01);
/// for _ in 0..5 {
///     let logits = mlp.forward(&x);
///     let (_, grad) = softmax_cross_entropy(&logits, &targets, None);
///     mlp.zero_grad();
///     mlp.backward(&grad);
///     mlp.step(&mut opt);
/// }
/// assert_eq!(mlp.forward_inference(&x).shape(), (16, 2));
/// ```
/// An MLP with ReLU activations and inverted dropout between layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    linears: Vec<Linear>,
    relus: Vec<ReLU>,
    dropouts: Vec<Dropout>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[64, 32, 7]` maps
    /// 64-dim inputs to 7 classes through one 32-wide hidden layer.
    pub fn new(dims: &[usize], dropout: f32, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut linears = Vec::new();
        let mut relus = Vec::new();
        let mut dropouts = Vec::new();
        for i in 0..dims.len() - 1 {
            linears.push(Linear::new(dims[i], dims[i + 1], seed.wrapping_add(i as u64)));
            if i + 2 < dims.len() {
                relus.push(ReLU::new());
                dropouts.push(Dropout::new(dropout, seed.wrapping_add(1000 + i as u64)));
            }
        }
        Mlp { linears, relus, dropouts }
    }

    /// Number of weight layers.
    pub fn num_layers(&self) -> usize {
        self.linears.len()
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.linears.iter().map(|l| l.num_params()).sum()
    }

    /// Resident bytes (params + grads + caches).
    pub fn nbytes(&self) -> usize {
        self.linears.iter().map(|l| l.nbytes()).sum()
    }

    /// Training forward pass (caches activations for backward).
    pub fn forward(&mut self, x: &DenseMatrix) -> DenseMatrix {
        let mut h = x.clone();
        let n = self.linears.len();
        for i in 0..n {
            h = self.linears[i].forward(&h);
            if i + 1 < n {
                h = self.relus[i].forward(&h);
                h = self.dropouts[i].forward(&h);
            }
        }
        h
    }

    /// Inference forward (no caches, dropout off).
    pub fn forward_inference(&self, x: &DenseMatrix) -> DenseMatrix {
        let mut h = x.clone();
        let n = self.linears.len();
        for i in 0..n {
            h = self.linears[i].forward_inference(&h);
            if i + 1 < n {
                h = self.relus[i].forward_inference(&h);
            }
        }
        h
    }

    /// Inference forward with quantized linear layers (DESIGN.md §9).
    /// `QuantMode::F32` routes through [`Self::forward_inference`] and
    /// is bitwise-identical to it; `Int8`/`F16` run [`QuantMlp::forward`]
    /// on weights quantized for this call and document tolerance
    /// instead. The serving engine keeps the [`QuantMlp`].
    pub fn forward_inference_quant(&self, x: &DenseMatrix, mode: QuantMode) -> DenseMatrix {
        match self.quantize(mode) {
            Some(q) => q.forward(x),
            None => self.forward_inference(x),
        }
    }

    /// The inference weights quantized once under `mode`; `None` for
    /// [`QuantMode::F32`].
    pub fn quantize(&self, mode: QuantMode) -> Option<QuantMlp> {
        let linears =
            self.linears.iter().map(|l| QuantLinear::new(l, mode)).collect::<Option<_>>()?;
        Some(QuantMlp { linears })
    }

    /// Backward pass from logits gradient; returns the input gradient.
    pub fn backward(&mut self, dlogits: &DenseMatrix) -> DenseMatrix {
        let n = self.linears.len();
        let mut g = dlogits.clone();
        for i in (0..n).rev() {
            if i + 1 < n {
                g = self.dropouts[i].backward(&g);
                g = self.relus[i].backward(&g);
            }
            g = self.linears[i].backward(&g);
        }
        g
    }

    /// Zeroes every gradient buffer.
    pub fn zero_grad(&mut self) {
        for l in &mut self.linears {
            l.zero_grad();
        }
    }

    /// Applies one optimizer step over all parameters.
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
}

/// An [`Mlp`]'s inference weights quantized once under a lossy
/// [`QuantMode`] ([`Mlp::quantize`]), for a caller that applies the
/// head to many batches. Same layers, ReLUs and bits as
/// [`Mlp::forward_inference_quant`], which runs through it.
#[derive(Debug, Clone)]
pub struct QuantMlp {
    linears: Vec<QuantLinear>,
}

impl QuantMlp {
    /// Inference forward: quantized linear layers with ReLU between.
    pub fn forward(&self, x: &DenseMatrix) -> DenseMatrix {
        let (first, rest) = self.linears.split_first().expect("an MLP has a layer");
        rest.iter().fold(first.forward(x), |mut h, l| {
            h.map_inplace(|v| v.max(0.0));
            l.forward(&h)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{accuracy, softmax_cross_entropy};
    use crate::optim::Adam;

    #[test]
    fn shapes_flow_through() {
        let mut mlp = Mlp::new(&[8, 16, 3], 0.2, 1);
        assert_eq!(mlp.num_layers(), 2);
        let x = DenseMatrix::gaussian(5, 8, 1.0, 2);
        let y = mlp.forward(&x);
        assert_eq!(y.shape(), (5, 3));
        let dy = DenseMatrix::gaussian(5, 3, 1.0, 3);
        let dx = mlp.backward(&dy);
        assert_eq!(dx.shape(), (5, 8));
    }

    #[test]
    fn gradient_check_through_two_layers() {
        // No dropout so forward is deterministic.
        let mut mlp = Mlp::new(&[4, 6, 2], 0.0, 4);
        let x = DenseMatrix::gaussian(3, 4, 1.0, 5);
        let targets = [0usize, 1, 0];
        let loss_of = |m: &Mlp| {
            let logits = m.forward_inference(&x);
            softmax_cross_entropy(&logits, &targets, None).0
        };
        let logits = mlp.forward(&x);
        let (_, dlogits) = softmax_cross_entropy(&logits, &targets, None);
        mlp.zero_grad();
        mlp.backward(&dlogits);
        let eps = 1e-2f32;
        // Probe a first-layer weight (checks chaining through ReLU).
        let analytic = mlp.linears[0].gw.get(1, 2);
        let mut probe = mlp.clone();
        let w12 = probe.linears[0].w.get(1, 2);
        probe.linears[0].w.set(1, 2, w12 + eps);
        let num = (loss_of(&probe) - loss_of(&mlp)) / eps;
        assert!((num - analytic).abs() < 2e-2, "num {num} vs analytic {analytic}");
        // And a last-layer bias.
        let analytic_b = mlp.linears[1].gb.get(0, 1);
        let mut probe_b = mlp.clone();
        let b01 = probe_b.linears[1].b.get(0, 1);
        probe_b.linears[1].b.set(0, 1, b01 + eps);
        let num_b = (loss_of(&probe_b) - loss_of(&mlp)) / eps;
        assert!((num_b - analytic_b).abs() < 2e-2);
    }

    #[test]
    fn mlp_learns_xor() {
        // XOR: not linearly separable — requires the hidden layer to work.
        let x = DenseMatrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let targets = [0usize, 1, 1, 0];
        let mut mlp = Mlp::new(&[2, 16, 2], 0.0, 7);
        let mut opt = Adam::new(0.05);
        for _ in 0..500 {
            let logits = mlp.forward(&x);
            let (_, dl) = softmax_cross_entropy(&logits, &targets, None);
            mlp.zero_grad();
            mlp.backward(&dl);
            mlp.step(&mut opt);
        }
        let logits = mlp.forward_inference(&x);
        assert_eq!(accuracy(&logits, &targets), 1.0, "logits {:?}", logits.data());
    }

    #[test]
    fn quant_forward_f32_is_bitwise_and_lossy_is_close() {
        let mlp = Mlp::new(&[6, 12, 4], 0.0, 3);
        let x = DenseMatrix::gaussian(20, 6, 1.0, 5);
        let exact = mlp.forward_inference(&x);
        let f32_mode = mlp.forward_inference_quant(&x, sgnn_linalg::QuantMode::F32);
        assert_eq!(f32_mode.data(), exact.data());
        let scale = exact.data().iter().fold(0f32, |m, v| m.max(v.abs()));
        for (mode, tol) in
            [(sgnn_linalg::QuantMode::Int8, 0.05f32), (sgnn_linalg::QuantMode::F16, 0.01f32)]
        {
            let got = mlp.forward_inference_quant(&x, mode);
            let max_err =
                got.data().iter().zip(exact.data()).fold(0f32, |m, (a, b)| m.max((a - b).abs()));
            assert!(max_err < tol * scale.max(1.0), "{}: max_err {max_err}", mode.label());
        }
    }

    #[test]
    fn quantized_once_equals_layer_by_layer_quantization() {
        let mlp = Mlp::new(&[6, 12, 9, 4], 0.0, 3);
        let x = DenseMatrix::gaussian(20, 6, 1.0, 5);
        assert!(mlp.quantize(QuantMode::F32).is_none());
        for mode in [QuantMode::Int8, QuantMode::F16] {
            let n = mlp.linears.len();
            let mut want = x.clone();
            for (i, l) in mlp.linears.iter().enumerate() {
                want = QuantLinear::new(l, mode).expect("lossy mode").forward(&want);
                if i + 1 < n {
                    want = mlp.relus[i].forward_inference(&want);
                }
            }
            let q = mlp.quantize(mode).expect("lossy mode");
            let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&q.forward(&x)), bits(&want), "{}", mode.label());
        }
    }

    #[test]
    fn dropout_only_active_in_training() {
        let mut mlp = Mlp::new(&[4, 8, 2], 0.6, 9);
        let x = DenseMatrix::gaussian(10, 4, 1.0, 10);
        let a = mlp.forward_inference(&x);
        let b = mlp.forward_inference(&x);
        assert_eq!(a.data(), b.data()); // deterministic
        let t1 = mlp.forward(&x);
        let t2 = mlp.forward(&x);
        assert_ne!(t1.data(), t2.data()); // dropout varies
    }
}
