//! Finite-difference gradient checks for the manual-backprop stack.
//!
//! Every analytic backward pass in `sgnn-nn`, and the GCN's end-to-end
//! backward through SpMM propagation, is validated against central
//! finite differences: `dL/dθ ≈ (L(θ+ε) − L(θ−ε)) / 2ε`. The in-crate
//! unit tests spot-check single entries; this suite sweeps **every**
//! parameter and input entry of small instances, so a subtly wrong
//! index or transpose cannot hide in an unchecked coordinate.
//!
//! All comparisons use `close(num, analytic)` with an absolute+relative
//! band sized for f32 forward passes (the FD quotient itself carries
//! ~ε·|L|/ε ≈ 1e-3 of rounding noise).

use sgnn::core::models::gcn::{gcn_operator, Gcn, GcnConfig};
use sgnn::core::models::Sage;
use sgnn::data::sbm_dataset;
use sgnn::linalg::DenseMatrix;
use sgnn::nn::layers::{Dropout, Linear, ReLU};
use sgnn::nn::loss::softmax_cross_entropy;
use sgnn::nn::optim::Optimizer;
use sgnn::sample::node_wise::sample_blocks;

const EPS: f32 = 1e-2;

fn close(num: f32, analytic: f32) -> bool {
    (num - analytic).abs() < 1e-2 + 2e-2 * analytic.abs()
}

/// Central finite difference of `loss` under a ±EPS bump applied by
/// `bump`; restores `obj` before returning.
fn central<T>(obj: &mut T, loss: impl Fn(&T) -> f32, bump: impl Fn(&mut T, f32)) -> f32 {
    bump(obj, EPS);
    let up = loss(obj);
    bump(obj, -2.0 * EPS);
    let down = loss(obj);
    bump(obj, EPS); // restore
    (up - down) / (2.0 * EPS)
}

#[test]
fn linear_gradients_match_finite_differences_everywhere() {
    // Scalar loss L = Σ (Y ⊙ R) for a fixed random R, so dL/dY = R and
    // the analytic gradients are exactly one backward(R) call.
    let mut l = Linear::new(3, 2, 7);
    let x = DenseMatrix::gaussian(4, 3, 1.0, 8);
    let r = DenseMatrix::gaussian(4, 2, 1.0, 9);
    l.forward(&x);
    let dx = l.backward(&r);

    let loss = |l: &Linear, x: &DenseMatrix| {
        sgnn::linalg::vecops::dot(l.forward_inference(x).data(), r.data())
    };
    for i in 0..l.w.rows() {
        for j in 0..l.w.cols() {
            let mut lp = l.clone();
            let num = central(
                &mut lp,
                |lp| loss(lp, &x),
                |lp, d| {
                    let v = lp.w.get(i, j);
                    lp.w.set(i, j, v + d);
                },
            );
            assert!(close(num, l.gw.get(i, j)), "gw[{i}][{j}]: {num} vs {}", l.gw.get(i, j));
        }
    }
    for j in 0..l.b.cols() {
        let mut lp = l.clone();
        let num = central(
            &mut lp,
            |lp| loss(lp, &x),
            |lp, d| {
                let v = lp.b.get(0, j);
                lp.b.set(0, j, v + d);
            },
        );
        assert!(close(num, l.gb.get(0, j)), "gb[{j}]: {num} vs {}", l.gb.get(0, j));
    }
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            let mut xp = x.clone();
            let num = central(
                &mut xp,
                |xp| loss(&l, xp),
                |xp, d| {
                    let v = xp.get(i, j);
                    xp.set(i, j, v + d);
                },
            );
            assert!(close(num, dx.get(i, j)), "dx[{i}][{j}]: {num} vs {}", dx.get(i, j));
        }
    }
}

#[test]
fn relu_gradient_matches_finite_differences_off_the_kink() {
    // Entries are sampled away from 0, where ReLU is differentiable.
    let mut x = DenseMatrix::gaussian(3, 4, 1.0, 10);
    x.map_inplace(|v| if v.abs() < 0.2 { 0.5_f32.copysign(v) } else { v });
    let r = DenseMatrix::gaussian(3, 4, 1.0, 11);
    let mut relu = ReLU::new();
    relu.forward(&x);
    let dx = relu.backward(&r);
    let loss =
        |x: &DenseMatrix| sgnn::linalg::vecops::dot(relu.forward_inference(x).data(), r.data());
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            let mut xp = x.clone();
            let num = central(
                &mut xp,
                |xp| loss(xp),
                |xp, d| {
                    let v = xp.get(i, j);
                    xp.set(i, j, v + d);
                },
            );
            assert!(close(num, dx.get(i, j)), "dx[{i}][{j}]: {num} vs {}", dx.get(i, j));
        }
    }
}

#[test]
fn dropout_backward_is_the_recorded_stateless_mask() {
    // Dropout is linear in its input given the mask, so the exact
    // gradient through a fixed mask is the mask itself — and the mask is
    // a pure function of (seed, call, element), which is what the shard
    // trainer replays. Check backward against both the recorded forward
    // (y = x ⊙ m on unit input reveals m) and the stateless recomputation.
    let p = 0.35f32;
    let seed = 42u64;
    let mut d = Dropout::new(p, seed);
    let x = DenseMatrix::from_vec(2, 50, vec![1.0; 100]);
    let y = d.forward(&x); // call 1
    let dy = DenseMatrix::gaussian(2, 50, 1.0, 12);
    let dx = d.backward(&dy);
    let cs = Dropout::call_seed(seed, 1);
    for i in 0..100 {
        let m = Dropout::element_scale(cs, p, i as u64);
        assert_eq!(y.data()[i], m, "forward mask entry {i}");
        assert_eq!(dx.data()[i], dy.data()[i] * m, "backward mask entry {i}");
    }
}

#[test]
fn softmax_cross_entropy_gradient_matches_finite_differences_everywhere() {
    let logits = DenseMatrix::gaussian(4, 3, 1.0, 13);
    let targets = [2usize, 0, 1, 2];
    let weights = [1.0f32, 0.5, 2.0, 1.0];
    for w in [None, Some(&weights[..])] {
        let (_, grad) = softmax_cross_entropy(&logits, &targets, w);
        for i in 0..logits.rows() {
            for j in 0..logits.cols() {
                let mut lp = logits.clone();
                let num = central(
                    &mut lp,
                    |lp| softmax_cross_entropy(lp, &targets, w).0,
                    |lp, d| {
                        let v = lp.get(i, j);
                        lp.set(i, j, v + d);
                    },
                );
                assert!(
                    close(num, grad.get(i, j)),
                    "weighted={} ({i},{j}): {num} vs {}",
                    w.is_some(),
                    grad.get(i, j)
                );
            }
        }
    }
}

#[test]
fn gcn_end_to_end_gradients_match_finite_differences_everywhere() {
    // Dropout off so the training forward equals the inference forward
    // and the loss surface is deterministic; every weight and bias of
    // both layers is swept through the full SpMM → Linear → ReLU chain.
    let ds = sbm_dataset(40, 2, 4.0, 0.8, 4, 0.5, 0, 0.5, 0.25, 14);
    let op = gcn_operator(&ds.graph);
    let mut gcn = Gcn::new(4, 2, &GcnConfig { hidden: vec![5], dropout: 0.0, seed: 15 });
    let targets: Vec<usize> = ds.labels.clone();
    let logits = gcn.forward(&op, &ds.features);
    let (_, dl) = softmax_cross_entropy(&logits, &targets, None);
    gcn.zero_grad();
    gcn.backward(&op, &dl);

    let loss_of =
        |g: &Gcn| softmax_cross_entropy(&g.forward_inference(&op, &ds.features), &targets, None).0;
    for li in 0..gcn.num_layers() {
        let (wr, wc) = (gcn.layer(li).w.rows(), gcn.layer(li).w.cols());
        for i in 0..wr {
            for j in 0..wc {
                let analytic = gcn.layer(li).gw.get(i, j);
                let num = central(&mut gcn, loss_of, |g, d| {
                    let v = g.layer_mut(li).w.get(i, j);
                    g.layer_mut(li).w.set(i, j, v + d);
                });
                assert!(close(num, analytic), "layer {li} gw[{i}][{j}]: {num} vs {analytic}");
            }
        }
        for j in 0..gcn.layer(li).b.cols() {
            let analytic = gcn.layer(li).gb.get(0, j);
            let num = central(&mut gcn, loss_of, |g, d| {
                let v = g.layer_mut(li).b.get(0, j);
                g.layer_mut(li).b.set(0, j, v + d);
            });
            assert!(close(num, analytic), "layer {li} gb[{j}]: {num} vs {analytic}");
        }
    }
}

/// An optimizer that only records each slot's gradient.
struct GradRecorder(Vec<DenseMatrix>);

impl Optimizer for GradRecorder {
    fn update(&mut self, slot: usize, _param: &mut DenseMatrix, grad: &DenseMatrix) {
        assert_eq!(slot, self.0.len(), "slots are visited in order");
        self.0.push(grad.clone());
    }
}

/// Adds `delta` to entry `(i, j)` of the parameter in `slot`.
fn bump_sage(sage: &mut Sage, slot: usize, i: usize, j: usize, delta: f32) {
    let mut k = 0usize;
    sage.visit_params_mut(&mut |p| {
        if k == slot {
            p.set(i, j, p.get(i, j) + delta);
        }
        k += 1;
    });
}

#[test]
fn sage_end_to_end_gradients_match_finite_differences_everywhere() {
    // Two node-wise blocks; every weight and bias of both layers'
    // `lin_self` and `lin_neigh` is swept through block aggregation,
    // both linears and the hidden ReLU.
    let ds = sbm_dataset(60, 2, 5.0, 0.8, 4, 0.5, 0, 0.5, 0.25, 16);
    let targets: Vec<u32> = vec![0, 7, 19, 33, 50];
    let blocks = sample_blocks(&ds.graph, &targets, &[3, 3], 17);
    let rows: Vec<usize> = blocks[0].src.iter().map(|&v| v as usize).collect();
    let x_in = ds.features.gather_rows(&rows);
    let labels: Vec<usize> = targets.iter().map(|&u| ds.labels[u as usize]).collect();
    let mut sage = Sage::new(&[4, 5, 2], 18);
    let logits = sage.forward(&blocks, &x_in);
    let (_, dl) = softmax_cross_entropy(&logits, &labels, None);
    sage.zero_grad();
    sage.backward(&blocks, &dl);
    // Read the gradients through the optimizer interface; the step
    // itself changes nothing.
    let mut grads = GradRecorder(Vec::new());
    sage.step(&mut grads);
    assert_eq!(grads.0.len(), 8, "self/neigh weight and bias per layer");

    let loss_of =
        |s: &Sage| softmax_cross_entropy(&s.forward_inference(&blocks, &x_in), &labels, None).0;
    for (slot, grad) in grads.0.iter().enumerate() {
        for i in 0..grad.rows() {
            for j in 0..grad.cols() {
                let analytic = grad.get(i, j);
                let num = central(&mut sage, loss_of, |s, d| bump_sage(s, slot, i, j, d));
                assert!(close(num, analytic), "slot {slot} [{i}][{j}]: {num} vs {analytic}");
            }
        }
    }
}
