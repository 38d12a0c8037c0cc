//! The `i64` block fast path of `reduce::grad_fx` / `reduce::colsum_fx`
//! must produce exactly the integers of the term-by-term `i128` fold
//! (`reduce` module docs). The reference here is that fold written out
//! from `reduce::fx`, with no zero skip and no blocking, and every
//! comparison runs at one thread and at the default thread count.
//!
//! Inputs cover ±0, subnormals, ±inf and NaN in either operand, terms on
//! either side of the `2^63` fixed-point limit (`|x·dy| ≈ 8`), blocks just
//! under and just over the `8/64` bound, and row counts 0, 1, 63, 64, 65
//! and odd sizes.

use proptest::prelude::*;
use sgnn::linalg::par::set_threads;
use sgnn::linalg::reduce::{colsum_fx, fx, grad_fx, BLOCK, FAST_BOUND};
use sgnn::linalg::rng::{mix64, unit_f64};
use sgnn::linalg::{simd, DenseMatrix};
use std::sync::Mutex;

/// Serializes the tests of this file: `set_threads` is process-wide and
/// the counter test reads global counters the other tests would bump.
static GLOBAL: Mutex<()> = Mutex::new(());

/// Row counts around the 64-row block edge, plus odd sizes.
const ROWS: [usize; 9] = [0, 1, 63, 64, 65, 127, 129, 191, 203];

/// `Σ_k fx(x[k][i] · dy[k][j])`, term by term in `i128`.
fn reference_grad(x: &DenseMatrix, dy: &DenseMatrix) -> Vec<i128> {
    let (n, din) = x.shape();
    let dout = dy.cols();
    let mut acc = vec![0i128; din * dout];
    for k in 0..n {
        for i in 0..din {
            for j in 0..dout {
                let t = fx(x.get(k, i) as f64 * dy.get(k, j) as f64);
                acc[i * dout + j] = acc[i * dout + j].wrapping_add(t);
            }
        }
    }
    acc
}

/// `Σ_k fx(dy[k][j])`, term by term in `i128`.
fn reference_colsum(dy: &DenseMatrix) -> Vec<i128> {
    let mut acc = vec![0i128; dy.cols()];
    for k in 0..dy.rows() {
        for (j, slot) in acc.iter_mut().enumerate() {
            *slot = slot.wrapping_add(fx(dy.get(k, j) as f64));
        }
    }
    acc
}

/// Runs both kernels at one thread and at the default count, starting
/// from a non-zero accumulator, and checks every result against the
/// reference integers.
fn assert_exact(x: &DenseMatrix, dy: &DenseMatrix) -> Result<(), String> {
    let start: Vec<i128> = (0..x.cols() * dy.cols()).map(|s| (s as i128 - 3) << 70).collect();
    let mut want = reference_grad(x, dy);
    for (w, s) in want.iter_mut().zip(&start) {
        *w = w.wrapping_add(*s);
    }
    let want_b = reference_colsum(dy);
    for threads in [1, 0] {
        set_threads(threads);
        let mut got = start.clone();
        grad_fx(x, dy, &mut got);
        let mut got_b = vec![0i128; dy.cols()];
        colsum_fx(dy, &mut got_b);
        set_threads(0);
        if let Some(s) = (0..want.len()).find(|&s| got[s] != want[s]) {
            return Err(format!(
                "grad_fx slot {s} at threads={threads}: {} vs {}",
                got[s], want[s]
            ));
        }
        if let Some(j) = (0..want_b.len()).find(|&j| got_b[j] != want_b[j]) {
            return Err(format!(
                "colsum_fx col {j} at threads={threads}: {} vs {}",
                got_b[j], want_b[j]
            ));
        }
    }
    Ok(())
}

/// Values that stress the conversion: signed zeros, subnormals,
/// non-finite values, and magnitudes whose products land on either side
/// of `2^63 / 2^60 = 8` (`2 · 4 = 8`) and far beyond the `i128` range.
fn special(h: u64) -> f32 {
    const SPECIAL: [f32; 16] = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -1.0e-40,
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        2.0,
        -4.0,
        3.999_999_8,
        4.000_000_5,
        3.0e9,
        -1.0e20,
        f32::MAX,
        0.125,
    ];
    SPECIAL[(h % SPECIAL.len() as u64) as usize]
}

/// A `rows × cols` matrix of seeded values: `N(0, sigma)`-like entries,
/// with a share `special_rate` replaced by [`special`] values.
fn matrix(rows: usize, cols: usize, sigma: f32, special_rate: f64, seed: u64) -> DenseMatrix {
    let data = (0..rows * cols)
        .map(|e| {
            let h = mix64(seed ^ mix64(e as u64));
            if unit_f64(mix64(h)) < special_rate {
                special(h >> 7)
            } else {
                // Sum of uniforms: bounded, roughly Gaussian.
                let u: f64 = (0..4).map(|t| unit_f64(mix64(h + t)) - 0.5).sum();
                (u * 1.7) as f32 * sigma
            }
        })
        .collect();
    DenseMatrix::from_vec(rows, cols, data)
}

/// Reads one counter from the current observability snapshot.
fn counter(name: &str) -> u64 {
    sgnn::obs::report().counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Gradient-scale data (almost every block fast), sprinkled with
    /// special values (their blocks fall back), and large data (mostly
    /// fallback) all give the reference integers.
    #[test]
    fn fast_path_equals_reference_integers(
        rows in 0usize..9,
        din in 1usize..7,
        dout in 1usize..10,
        mode in 0u64..4,
        seed in 0u64..1_000_000,
    ) {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let n = ROWS[rows];
        let (x_sigma, dy_sigma, rate) = match mode {
            0 => (1.0, 1e-3, 0.0),
            1 => (1.0, 1e-3, 0.01),
            2 => (0.5, 0.2, 0.0),
            _ => (30.0, 30.0, 0.1),
        };
        let x = matrix(n, din, x_sigma, rate, seed);
        let dy = matrix(n, dout, dy_sigma, rate, seed ^ 0xd1b5);
        prop_assert_eq!(assert_exact(&x, &dy), Ok(()));
    }

    /// Row blocks whose bound sits one ulp either side of `8/64`: the
    /// block under it sums 64 terms just below `2^57` each in `i64`, the
    /// largest sum the fast path allows.
    #[test]
    fn blocks_one_ulp_either_side_of_the_bound_are_exact(
        rows in 0usize..9,
        dout in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let n = ROWS[rows];
        let bound = FAST_BOUND as f32;
        let under = f32::from_bits(bound.to_bits() - 1);
        let over = f32::from_bits(bound.to_bits() + 1);
        let dy_vals: Vec<f32> = (0..n * dout)
            .map(|e| {
                let h = mix64(seed ^ e as u64);
                let v = match (e / dout / BLOCK + (seed as usize)) % 3 {
                    0 => under,
                    1 => bound,
                    _ => over,
                };
                if h & 1 == 0 { v } else { -v }
            })
            .collect();
        let dy = DenseMatrix::from_vec(n, dout, dy_vals);
        let x_vals: Vec<f32> = (0..n * 2)
            .map(|e| if mix64(seed ^ (e as u64) << 1) & 1 == 0 { 1.0 } else { -1.0 })
            .collect();
        let x = DenseMatrix::from_vec(n, 2, x_vals);
        prop_assert_eq!(assert_exact(&x, &dy), Ok(()));
    }
}

/// Three 64-row blocks against all-ones `x`: `dy` one ulp under the
/// bound in the first (fast) and exactly at it in the other two (the
/// test is strict: fallback), plus one NaN in `x` inside the first block
/// (fallback for that output row only). The counters report one block
/// per (output row, row block) pair and every over-bound pair as a
/// fallback.
#[test]
fn over_bound_blocks_count_as_fallback() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let (din, dout) = (3usize, 4usize);
    let n = 3 * BLOCK;
    let under = f32::from_bits((FAST_BOUND as f32).to_bits() - 1);
    let dy_vals: Vec<f32> = (0..n * dout)
        .map(|e| if e / dout < BLOCK { under } else { -(FAST_BOUND as f32) })
        .collect();
    let dy = DenseMatrix::from_vec(n, dout, dy_vals);
    let mut x_vals = vec![1.0f32; n * din];
    x_vals[5 * din + 1] = f32::NAN;
    let x = DenseMatrix::from_vec(n, din, x_vals);
    for threads in [1, 0] {
        set_threads(threads);
        sgnn::obs::enable();
        sgnn::obs::reset();
        let mut got = vec![0i128; din * dout];
        grad_fx(&x, &dy, &mut got);
        let (blocks, fallback) =
            (counter("linalg.grad_fx.blocks"), counter("linalg.grad_fx.fallback_blocks"));
        sgnn::obs::disable();
        sgnn::obs::reset();
        set_threads(0);
        assert_eq!(got, reference_grad(&x, &dy), "threads={threads}");
        assert_eq!(blocks, (3 * din) as u64, "threads={threads}");
        assert_eq!(fallback, (2 * din + 1) as u64, "threads={threads}");
    }
    assert_eq!(assert_exact(&x, &dy), Ok(()));
}

/// Every row of the fast block at the largest allowed magnitude: the
/// `i64` block sum is within one term of `±2^63` and must not wrap: a
/// wrapped sum would differ from the `i128` fold.
#[test]
fn largest_fast_block_sums_do_not_overflow() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let under = f32::from_bits((FAST_BOUND as f32).to_bits() - 1);
    for sign in [1.0f32, -1.0] {
        let dy = DenseMatrix::from_vec(BLOCK, 2, vec![sign * under; BLOCK * 2]);
        let x = DenseMatrix::from_vec(BLOCK, 1, vec![1.0; BLOCK]);
        let mut got = vec![0i128; 2];
        grad_fx(&x, &dy, &mut got);
        let term = fx(sign as f64 * under as f64);
        assert_eq!(got, vec![term * BLOCK as i128; 2]);
        assert!(got[0].unsigned_abs() > (1u128 << 62), "the sum really is near 2^63");
        assert_eq!(assert_exact(&x, &dy), Ok(()));
    }
}

/// Empty shapes: zero rows, zero input or output columns.
#[test]
fn empty_shapes_are_no_ops() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    for (n, din, dout) in [(0, 3, 2), (5, 0, 2), (5, 3, 0), (0, 0, 0)] {
        let x = matrix(n, din, 1.0, 0.0, 1);
        let dy = matrix(n, dout, 1.0, 0.0, 2);
        assert_eq!(assert_exact(&x, &dy), Ok(()), "{n}x{din} · {n}x{dout}");
    }
}

/// Factors spanning the whole `f32` range: signed zeros, subnormals,
/// seeded mantissas at every eighth exponent, values one ulp either side
/// of the bound, and non-finite values.
fn factor_palette() -> Vec<f32> {
    let bound = FAST_BOUND as f32;
    let mut vals = vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(0x7f_ffff),
        f32::MIN_POSITIVE,
        1.0,
        -1.0,
        bound,
        f32::from_bits(bound.to_bits() - 1),
        -f32::from_bits(bound.to_bits() + 1),
        f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    for e in (-149i32..128).step_by(8) {
        let m = 1.0 + unit_f64(mix64(e as u64)) as f32;
        let v = m * 2f32.powi(e);
        vals.push(if e % 16 == 0 { -v } else { v });
    }
    vals
}

/// The packed integer fold equals `fx(x·d) as i64` for every pair inside
/// the bound, on the scalar reference that hosts without AVX2 run as
/// well as on the dispatched kernel; and the dispatched kernel equals
/// the scalar reference bit for bit on every input, bound or not, with
/// row widths that exercise the vector body and its tail.
#[test]
fn packed_fold_terms_equal_fx_on_every_backend() {
    let vals = factor_palette();
    for &x in &vals {
        for &d in &vals {
            let packed = [simd::fx_pack(d)];
            let (mut s, mut v) = ([0i64], [0i64]);
            simd::scalar::fold_fx_i64(&[x], &packed, &mut s);
            simd::fold_fx_i64(&[x], &packed, &mut v);
            assert_eq!(s, v, "backends differ at {x:e} · {d:e}");
            let t = x as f64 * d as f64;
            if t.abs() < FAST_BOUND && x != 0.0 {
                assert_eq!(s[0] as i128, fx(t), "{x:e} · {d:e}");
            }
        }
    }
    for width in 1..=9 {
        let rows = 7;
        let xb: Vec<f32> = (0..rows).map(|k| vals[(k * 5 + width) % vals.len()]).collect();
        let packed: Vec<u64> =
            (0..rows * width).map(|e| simd::fx_pack(vals[(e * 11 + 3) % vals.len()])).collect();
        let mut s = vec![7i64; width];
        let mut v = s.clone();
        simd::scalar::fold_fx_i64(&xb, &packed, &mut s);
        simd::fold_fx_i64(&xb, &packed, &mut v);
        assert_eq!(s, v, "width {width}");
    }
}
