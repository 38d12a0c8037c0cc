//! Softmax cross-entropy with logits.
//!
//! The scalar loss is a cross-row reduction, so it folds through the
//! exact fixed-point representation in [`sgnn_linalg::reduce`]: the
//! per-row step [`loss_row_fx`] and the final conversion
//! [`loss_from_fx`] are shared with the shard trainer, which sums the
//! same `i128` terms over its owned rows and allreduces — landing on
//! the identical loss bits (DESIGN.md §7). The gradient is per-row
//! (given the global weight total) and needs no such treatment.

use sgnn_linalg::reduce::{fx, fx_to_f64};
use sgnn_linalg::{vecops, DenseMatrix};

/// One row of softmax cross-entropy, in place: softmaxes the logits
/// `row`, returns its fixed-point loss term
/// `fx(−w·ln(max(p_target, 1e-12)))`, and rewrites the row into its
/// gradient `w·(p − onehot(target))/total_w`. A pure function of the row
/// bits and the global `total_w`, so any row partitioning reproduces the
/// same terms and gradient rows.
#[inline]
pub fn loss_row_fx(row: &mut [f32], target: usize, w: f32, total_w: f32) -> i128 {
    vecops::softmax_row(row);
    let term = fx(-((w as f64) * (row[target].max(1e-12) as f64).ln()));
    row[target] -= 1.0;
    vecops::scale(row, w / total_w);
    term
}

/// Final scalar loss from a fixed-point term total: one rounding, after
/// the order-free integer fold.
#[inline]
pub fn loss_from_fx(total: i128, total_w: f32) -> f32 {
    (fx_to_f64(total) / total_w as f64) as f32
}

/// Computes mean softmax cross-entropy and its gradient w.r.t. logits.
///
/// `weights`, when provided, are per-sample loss weights (GraphSAINT's
/// `1/λ_v` normalization); otherwise every sample weighs 1. Returns
/// `(loss, dlogits)` with `dlogits = weight·(softmax − onehot)/Σweights`.
pub fn softmax_cross_entropy(
    logits: &DenseMatrix,
    targets: &[usize],
    weights: Option<&[f32]>,
) -> (f32, DenseMatrix) {
    let n = logits.rows();
    assert_eq!(targets.len(), n, "one target per row");
    if let Some(w) = weights {
        assert_eq!(w.len(), n);
    }
    let total_w: f32 = match weights {
        Some(w) => w.iter().sum(),
        None => n as f32,
    };
    let total_w = total_w.max(1e-12);
    let mut grad = logits.clone();
    let mut loss_fx = 0i128;
    for r in 0..n {
        let w = weights.map_or(1.0, |ws| ws[r]);
        debug_assert!(targets[r] < logits.cols(), "target class out of range");
        loss_fx = loss_fx.wrapping_add(loss_row_fx(grad.row_mut(r), targets[r], w, total_w));
    }
    (loss_from_fx(loss_fx, total_w), grad)
}

/// Classification accuracy of logits against targets.
pub fn accuracy(logits: &DenseMatrix, targets: &[usize]) -> f64 {
    if targets.is_empty() {
        return 0.0;
    }
    let pred = logits.argmax_rows();
    let hits = pred.iter().zip(targets.iter()).filter(|&(p, t)| p == t).count();
    hits as f64 / targets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = DenseMatrix::zeros(4, 3);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2, 0], None);
        assert!((loss - (3f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = DenseMatrix::gaussian(3, 4, 1.0, 1);
        let targets = [2usize, 0, 3];
        let (_, grad) = softmax_cross_entropy(&logits, &targets, None);
        let eps = 1e-3f32;
        for &(r, c) in &[(0usize, 2usize), (1, 1), (2, 3), (0, 0)] {
            let mut lp = logits.clone();
            let v = lp.get(r, c);
            lp.set(r, c, v + eps);
            let (l1, _) = softmax_cross_entropy(&lp, &targets, None);
            let (l0, _) = softmax_cross_entropy(&logits, &targets, None);
            let num = (l1 - l0) / eps;
            assert!(
                (num - grad.get(r, c)).abs() < 1e-2,
                "({r},{c}): num {num} vs analytic {}",
                grad.get(r, c)
            );
        }
    }

    #[test]
    fn perfect_prediction_has_tiny_loss_and_gradient() {
        let mut logits = DenseMatrix::zeros(2, 2);
        logits.set(0, 0, 20.0);
        logits.set(1, 1, 20.0);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1], None);
        assert!(loss < 1e-6);
        assert!(grad.frobenius() < 1e-6);
    }

    #[test]
    fn weights_scale_per_sample_contributions() {
        let logits = DenseMatrix::gaussian(2, 3, 1.0, 2);
        // Zero weight on sample 1 → same loss as sample 0 alone.
        let (lw, gw) = softmax_cross_entropy(&logits, &[1, 2], Some(&[1.0, 0.0]));
        let solo = logits.gather_rows(&[0]);
        let (ls, _) = softmax_cross_entropy(&solo, &[1], None);
        assert!((lw - ls).abs() < 1e-5);
        // Gradient on the zero-weight row vanishes.
        assert!(gw.row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(accuracy(&DenseMatrix::zeros(0, 2), &[]), 0.0);
    }
}
