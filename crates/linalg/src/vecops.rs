//! Flat-slice vector primitives shared by every hot loop in the workspace.
//!
//! All functions are branch-light and allocation-free; the perf-book
//! guidance (reuse buffers, operate on contiguous slices) is enforced here
//! so higher layers inherit it for free.

/// Dot product of two equal-length `f32` slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0f32;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Dot product in `f64` (used by eigensolvers and PPR residual math).
#[inline]
pub fn dot64(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0f64;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// `y += alpha * x`, on the dispatched SIMD kernel (bitwise-identical to
/// the scalar loop; see [`crate::simd`]).
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    crate::simd::axpy_f32(alpha, x, y);
}

/// `y += alpha * x` in `f64`.
#[inline]
pub fn axpy64(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    crate::simd::axpy_f64(alpha, x, y);
}

/// Scales a slice in place.
#[inline]
pub fn scale(x: &mut [f32], alpha: f32) {
    crate::simd::scale_f32(x, alpha);
}

/// Scales an `f64` slice in place.
#[inline]
pub fn scale64(x: &mut [f64], alpha: f64) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f32]) -> f32 {
    dot(x, x).sqrt()
}

/// Euclidean norm in `f64`.
#[inline]
pub fn norm2_64(x: &[f64]) -> f64 {
    dot64(x, x).sqrt()
}

/// Normalizes `x` to unit Euclidean length; returns the original norm.
///
/// Leaves an all-zero vector untouched and returns `0.0`.
pub fn normalize(x: &mut [f32]) -> f32 {
    let n = norm2(x);
    if n > 0.0 {
        scale(x, 1.0 / n);
    }
    n
}

/// `f64` variant of [`normalize`].
pub fn normalize64(x: &mut [f64]) -> f64 {
    let n = norm2_64(x);
    if n > 0.0 {
        scale64(x, 1.0 / n);
    }
    n
}

/// Cosine similarity between two vectors; `0.0` when either is all-zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm2(a);
    let nb = norm2(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// In-place numerically-stable softmax over one row.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let mut sum = 0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Index of the maximum entry; ties resolve to the first occurrence.
///
/// Returns `0` for an empty slice by convention (callers never pass empty
/// rows in practice; class counts are ≥ 1).
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Mean of a slice; `0.0` when empty.
pub fn mean(x: &[f32]) -> f32 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f32>() / x.len() as f32
    }
}

/// Population variance of a slice; `0.0` when empty.
pub fn variance(x: &[f32]) -> f32 {
    if x.is_empty() {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / x.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_axpy_agree_with_manual() {
        let a = [1.0f32, 2.0, 3.0];
        let mut b = [4.0f32, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        axpy(2.0, &a, &mut b);
        assert_eq!(b, [6.0, 9.0, 12.0]);
    }

    #[test]
    fn softmax_row_sums_to_one_and_is_stable() {
        let mut r = [1000.0f32, 1001.0, 999.0];
        softmax_row(&mut r);
        let s: f32 = r.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(r[1] > r[0] && r[0] > r[2]);
    }

    #[test]
    fn argmax_breaks_ties_toward_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 0.0]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut z = [0.0f32; 4];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, [0.0; 4]);
    }

    #[test]
    fn cosine_bounds() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 2.0];
        assert_eq!(cosine(&a, &b), 0.0);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
        let na = [-1.0f32, 0.0];
        assert!((cosine(&a, &na) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[2.0; 8]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-6);
    }
}
