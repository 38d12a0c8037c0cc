//! Exact fixed-point reductions for order-independent gradient sums.
//!
//! Floating-point addition is not associative, so a cross-row reduction
//! (`gW = Xᵀ·dY`, `gb = Σ rows`, the scalar loss fold) computed per shard
//! and then combined would in general differ in the last bits from the
//! same reduction computed in one sequential sweep. The shard-parallel
//! trainer (DESIGN.md §7) promises **bitwise** equality with the
//! single-process trainer at any shard count, so every reduction that
//! crosses the row (node) dimension goes through this module instead:
//!
//! 1. Each term is formed exactly: the product of two `f32`s is exact in
//!    `f64`, and multiplying by [`FX_SCALE`] (a power of two) only shifts
//!    the exponent.
//! 2. The scaled term is truncated to `i128` — a pure, deterministic
//!    function of the term's bits (truncating, saturating, NaN → 0).
//! 3. Terms are accumulated with `wrapping_add`, which is exactly
//!    associative and commutative even on overflow.
//!
//! Step 3 makes the fold order-free: per-shard partial sums combined in
//! any fixed order equal the sequential reference fold integer-for-
//! integer, and a single rounding happens at the final `i128 → f32`
//! conversion. The reference kernels (`Linear::backward`, the softmax
//! cross-entropy loss) use the same representation, so "sharded ≡
//! single" reduces to integer arithmetic.
//!
//! `2^60` leaves |values| up to ~2^67 representable before the final
//! conversion would lose integer exactness (f64 has 53 mantissa bits,
//! but the conversion rounds identically in both paths regardless), and
//! keeps ~18 decimal digits below the point — far below f32's 2^-149
//! subnormal floor matters only for terms that are already zero in f32.
//!
//! # The i64 block fast path
//!
//! Converting to `i128` is a software routine and the 128-bit add two
//! instructions, so [`grad_fx`] and [`colsum_fx`] fold most terms in
//! `i64` instead and still produce the same integers. The reduction rows
//! are split into blocks of [`BLOCK`] `= 64` rows. A block (for
//! `grad_fx`: one output row `i` against one row block) takes the fast
//! path when `max|x| · max|dy| <` [`FAST_BOUND`] `= 8/64` (for
//! `colsum_fx`, where `x ≡ 1`: `max|dy| < 8/64`). Then:
//!
//! - every term satisfies `|x·dy·2^60| < 2^60 · 2^3 / 2^6 = 2^57`, so
//!   `as i64` truncates it to the same integer `as i128` does (both are
//!   truncation toward zero of an exactly represented value, and the
//!   value is far inside both ranges);
//! - the block's 64 terms sum to less than `64 · 2^57 = 2^63` in
//!   magnitude, so the `i64` block sum is the exact integer sum and
//!   cannot overflow;
//! - widening that sum once and adding it with `wrapping_add` equals
//!   adding the 64 terms one by one, because wrapping addition is
//!   associative.
//!
//! The maxima are taken over the magnitude bits (`to_bits() &
//! 0x7fff_ffff` ordered as integers: finite < ±inf < NaN), so a NaN or an
//! infinity in either operand makes the product non-finite and the test
//! `< FAST_BOUND` false; such a block, and every other block over the
//! bound, runs the term-by-term `i128` loop. `f32::max` would skip a NaN,
//! which is why it is not used. The bound test is itself exact: the
//! product of two `f32` maxima is exact in `f64`.
//!
//! Inside a fast block the terms are formed in the integers, not through
//! an `f64 → i64` conversion: [`simd::fold_fx_i64`] multiplies the two
//! 24-bit mantissas and shifts the 48-bit product right by the exponent
//! sum, which is `trunc(x·dy·2^60)` exactly (derivation at
//! [`simd::fx_pack`]); the AVX2 backend does four terms per instruction.

use crate::dense::DenseMatrix;
use crate::par::par_rows_mut;
use crate::simd;

/// Fixed-point scale: `2^60`. A power of two so `t * FX_SCALE` is an
/// exact exponent shift for every finite `t`.
pub const FX_SCALE: f64 = (1u64 << 60) as f64;

/// Reduction rows per block of the `i64` fast path.
pub const BLOCK: usize = 64;

/// A block whose `max|x| · max|dy|` is below this folds in `i64`: each
/// scaled term is below `2^57`, so [`BLOCK`] of them stay below `2^63`.
pub const FAST_BOUND: f64 = 8.0 / BLOCK as f64;

// One count per (output row, row block) pair `grad_fx` folds, and how
// many of those missed the fast-path bound (module docs). A falling
// speed-up with a rising `fallback_blocks` share points at the data, not
// the kernel.
static GRAD_FX_BLOCKS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.grad_fx.blocks");
static GRAD_FX_FALLBACK: sgnn_obs::Counter =
    sgnn_obs::Counter::new("linalg.grad_fx.fallback_blocks");

/// Converts one `f64` term to fixed point (truncating; saturating at the
/// `i128` range; NaN maps to 0). Pure function of the term's bits.
#[inline]
pub fn fx(t: f64) -> i128 {
    (t * FX_SCALE) as i128
}

/// Fixed point back to `f64` (single rounding).
#[inline]
pub fn fx_to_f64(v: i128) -> f64 {
    v as f64 / FX_SCALE
}

/// Fixed point back to `f32` via `f64` (the conversion both the
/// reference and the sharded path perform exactly once per slot).
#[inline]
pub fn fx_to_f32(v: i128) -> f32 {
    fx_to_f64(v) as f32
}

/// Largest magnitude in `v` (0 for an empty slice); NaN when `v` holds a
/// NaN, +inf when it holds an infinity and no NaN. Sign-cleared `f32`
/// bits order as integers exactly like the magnitudes, with NaN above
/// infinity, so an integer max never skips a NaN.
#[inline]
fn max_abs(v: &[f32]) -> f64 {
    f32::from_bits(v.iter().fold(0u32, |m, a| m.max(a.to_bits() & 0x7fff_ffff))) as f64
}

/// Adds `Σ_k fx(xb[k] · dyb[k][j])` into `out[j]` for one row block
/// whose terms all pass the [`FAST_BOUND`] test: summed in `i64` by
/// [`simd::fold_fx_i64`] over the block's packed `dy` (`packed`), then
/// widened once. `part` is `i64` scratch of `out.len()` slots.
#[inline]
fn fold_fast(xb: &[f32], packed: &[u64], part: &mut [i64], out: &mut [i128]) {
    part.fill(0);
    simd::fold_fx_i64(xb, packed, part);
    for (o, &p) in out.iter_mut().zip(part.iter()) {
        *o = o.wrapping_add(p as i128);
    }
}

/// The same sum term by term in `i128`, for any inputs. Zero entries of
/// `x` are skipped: `0 · dy` contributes `fx(±0.0) = 0` for finite `dy`
/// and NaN → 0 for non-finite `dy`, so the skip is exact in every case.
#[inline]
fn fold_exact(xb: &[f32], dyb: &[f32], out: &mut [i128]) {
    for (&a, dyr) in xb.iter().zip(dyb.chunks_exact(out.len())) {
        if a == 0.0 {
            continue;
        }
        let af = a as f64;
        for (o, &d) in out.iter_mut().zip(dyr) {
            *o = o.wrapping_add(fx(af * d as f64));
        }
    }
}

/// Packs a `dy` block for [`fold_fast`].
#[inline]
fn pack_block<'a>(dyb: &[f32], packed: &'a mut [u64]) -> &'a [u64] {
    let packed = &mut packed[..dyb.len()];
    for (w, &d) in packed.iter_mut().zip(dyb) {
        *w = simd::fx_pack(d);
    }
    packed
}

/// Accumulates `Xᵀ·dY` into `acc` in fixed point: `acc[i*dout + j] +=
/// Σ_k fx(x[k][i] · dy[k][j])`.
///
/// `acc` has `x.cols() × dy.cols()` slots (the weight-gradient shape).
/// Rows `k` are the reduction dimension, so a shard holding a subset of
/// rows produces a partial that combines exactly with any other shard's
/// (`wrapping_add` is associative and commutative). Parallelism is over
/// *output* rows `i` — each worker owns disjoint `acc` rows — which is
/// thread-count-invariant by construction. Each (output row, row block)
/// pair folds in `i64` when it passes the bound of the module docs and
/// term by term in `i128` otherwise; both give the same integers.
pub fn grad_fx(x: &DenseMatrix, dy: &DenseMatrix, acc: &mut [i128]) {
    let _sp = sgnn_obs::span!("linalg.grad_fx");
    let (n, din) = x.shape();
    let dout = dy.cols();
    assert_eq!(dy.rows(), n, "grad_fx: row mismatch {} vs {}", dy.rows(), n);
    assert_eq!(acc.len(), din * dout, "grad_fx: acc shape");
    if acc.is_empty() {
        return;
    }
    // Transpose once so the inner loop reads x contiguously per output row.
    let xt = x.transpose();
    let dyd = dy.data();
    let dy_max: Vec<f64> = dyd.chunks(BLOCK * dout).map(max_abs).collect();
    par_rows_mut(acc, dout, 4, |first, rows| {
        let mut part = vec![0i64; dout];
        let mut packed = vec![0u64; BLOCK * dout];
        let mut fallback = 0u64;
        // Block-outer: one dY block is packed once and stays in cache
        // across this worker's output rows.
        for (b, (dyb, &dmax)) in dyd.chunks(BLOCK * dout).zip(&dy_max).enumerate() {
            let ks = b * BLOCK..b * BLOCK + dyb.len() / dout;
            let packed = pack_block(dyb, &mut packed);
            for (r, out) in rows.chunks_exact_mut(dout).enumerate() {
                let xb = &xt.row(first + r)[ks.clone()];
                if max_abs(xb) * dmax < FAST_BOUND {
                    fold_fast(xb, packed, &mut part, out);
                } else {
                    fallback += 1;
                    fold_exact(xb, dyb, out);
                }
            }
        }
        GRAD_FX_BLOCKS.add((dy_max.len() * rows.len() / dout) as u64);
        GRAD_FX_FALLBACK.add(fallback);
    });
}

/// Accumulates the column sums of `dy` into `acc` in fixed point:
/// `acc[j] += Σ_k fx(dy[k][j])` (the bias-gradient reduction). This is
/// [`grad_fx`] against a column of ones, so the same block rule applies
/// with `max|x| = 1`.
pub fn colsum_fx(dy: &DenseMatrix, acc: &mut [i128]) {
    let dout = dy.cols();
    assert_eq!(acc.len(), dout, "colsum_fx: acc shape");
    if dout == 0 {
        return;
    }
    const ONES: [f32; BLOCK] = [1.0; BLOCK];
    let mut part = vec![0i64; dout];
    let mut packed = vec![0u64; BLOCK * dout];
    for dyb in dy.data().chunks(BLOCK * dout) {
        let ones = &ONES[..dyb.len() / dout];
        if max_abs(dyb) < FAST_BOUND {
            fold_fast(ones, pack_block(dyb, &mut packed), &mut part, acc);
        } else {
            fold_exact(ones, dyb, acc);
        }
    }
}

/// Merges `src` into `dst` slot-wise (`dst[i] += src[i]`, wrapping).
/// The allreduce combiner: exact, so the combine tree's shape is
/// irrelevant to the result — the *fixed order* the shard trainer uses
/// is for auditability, not correctness.
#[inline]
pub fn merge_fx(dst: &mut [i128], src: &[i128]) {
    assert_eq!(dst.len(), src.len(), "merge_fx: length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.wrapping_add(*s);
    }
}

/// Adds the fixed-point accumulator into an `f32` buffer slot-wise
/// (`dst[i] += fx_to_f32(src[i])`).
///
/// Both the reference kernels and the shard trainer write gradients back
/// through this exact expression — `+=` rather than a store, so a zeroed
/// destination yields `0.0 + v`, which matters for the sign of zero: a
/// direct store of `-0.0` and `0.0 + (-0.0)` differ bitwise.
pub fn accumulate_fx(dst: &mut [f32], src: &[i128]) {
    assert_eq!(dst.len(), src.len(), "accumulate_fx: length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += fx_to_f32(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::set_threads;

    #[test]
    fn fx_roundtrip_is_close_and_deterministic() {
        for &t in &[0.0f64, 1.0, -1.0, 3.25, -0.1, 1e-6, 123.456] {
            let v = fx(t);
            assert!((fx_to_f64(v) - t).abs() < 1e-12, "t={t}");
            assert_eq!(fx(t), v, "pure function");
        }
        assert_eq!(fx(f64::NAN), 0);
        assert_eq!(fx(f64::INFINITY), i128::MAX);
        assert_eq!(fx(f64::NEG_INFINITY), i128::MIN);
    }

    #[test]
    fn partial_sums_match_sequential_fold_exactly() {
        // The whole point: split the row range any way, combine in any
        // order, get the identical integers.
        let x = DenseMatrix::gaussian(37, 5, 1.0, 1);
        let dy = DenseMatrix::gaussian(37, 3, 1.0, 2);
        let mut whole = vec![0i128; 15];
        grad_fx(&x, &dy, &mut whole);

        for split in [1usize, 9, 18, 30] {
            let xa = x.gather_rows(&(0..split).collect::<Vec<_>>());
            let xb = x.gather_rows(&(split..37).collect::<Vec<_>>());
            let da = dy.gather_rows(&(0..split).collect::<Vec<_>>());
            let db = dy.gather_rows(&(split..37).collect::<Vec<_>>());
            let mut pa = vec![0i128; 15];
            let mut pb = vec![0i128; 15];
            grad_fx(&xa, &da, &mut pa);
            grad_fx(&xb, &db, &mut pb);
            // Combine b-first to prove order irrelevance.
            let mut combined = vec![0i128; 15];
            merge_fx(&mut combined, &pb);
            merge_fx(&mut combined, &pa);
            assert_eq!(combined, whole, "split at {split}");
        }
    }

    #[test]
    fn grad_fx_matches_dense_reference_numerically() {
        let x = DenseMatrix::gaussian(20, 4, 1.0, 3);
        let dy = DenseMatrix::gaussian(20, 6, 1.0, 4);
        let mut acc = vec![0i128; 24];
        grad_fx(&x, &dy, &mut acc);
        let reference = x.transpose().matmul(&dy).unwrap();
        for i in 0..4 {
            for j in 0..6 {
                let got = fx_to_f64(acc[i * 6 + j]);
                let want = reference.get(i, j) as f64;
                assert!((got - want).abs() < 1e-5, "[{i}][{j}] {got} vs {want}");
            }
        }
    }

    #[test]
    fn colsum_fx_matches_manual_sum() {
        let dy = DenseMatrix::gaussian(50, 3, 2.0, 7);
        let mut acc = vec![0i128; 3];
        colsum_fx(&dy, &mut acc);
        for j in 0..3 {
            let manual: i128 = (0..50).map(|k| fx(dy.get(k, j) as f64)).fold(0, i128::wrapping_add);
            assert_eq!(acc[j], manual);
        }
    }

    #[test]
    fn grad_fx_is_thread_count_invariant() {
        let x = DenseMatrix::gaussian(64, 24, 1.0, 5);
        let dy = DenseMatrix::gaussian(64, 16, 1.0, 6);
        set_threads(1);
        let mut seq = vec![0i128; 24 * 16];
        grad_fx(&x, &dy, &mut seq);
        set_threads(4);
        let mut par = vec![0i128; 24 * 16];
        grad_fx(&x, &dy, &mut par);
        set_threads(0);
        assert_eq!(seq, par);
    }
}
