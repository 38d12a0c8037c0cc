//! Explicit-SIMD micro-kernels, compiled into every build.
//!
//! Every kernel here is an element-wise (lane-independent) operation or an
//! edge-ordered gather whose per-element operation sequence is *identical*
//! to its [`scalar`] reference: multiplies and adds are emitted separately
//! (never fused into FMA, which rounds once instead of twice), lanes never
//! exchange values, and accumulation order over edges is preserved. That
//! makes every f32/f64 kernel in this module **bitwise identical** to its
//! reference — the DESIGN.md §4–§8 determinism contracts hold on every
//! backend and at any thread count.
//!
//! Dispatch: x86_64 picks AVX2 (AVX2 + F16C for [`axpy_f16`]) when the CPU
//! has it, runtime-detected once and cached in an atomic; aarch64 uses
//! NEON (baseline on that architecture) for the element-wise f32/f64
//! kernels. Everything else — and an x86_64 CPU without AVX2 — runs the
//! [`scalar`] reference loops, which are also what the tests compare every
//! dispatched kernel against. The quantized kernels ([`axpy_i8`],
//! [`axpy_f16`]) follow the same rule: integer→float conversions are exact
//! in both paths, so quantized inference is also bitwise reproducible
//! across backends (its *error* is relative to f32, not across machines;
//! see `quant`). The fixed-point gradient fold ([`fold_fx_i64`]) is
//! integer arithmetic throughout, so it is exact on every backend too.

/// Name of the backend the f32 kernels will actually run on — used by
/// `benchkernels` to attribute speedups to lanes honestly.
pub fn active_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    return if x86::avx2() { "avx2" } else { "scalar(no-avx2)" };
    #[cfg(target_arch = "aarch64")]
    return "neon";
    #[allow(unreachable_code)]
    "scalar"
}

/// f32 lanes per vector op on the active backend (1 = scalar).
pub fn f32_lanes() -> usize {
    match active_backend() {
        "avx2" => 8,
        "neon" => 4,
        _ => 1,
    }
}

// ---------------------------------------------------------------------------
// Element-wise kernels (used by vecops and the dense GEMM)
// ---------------------------------------------------------------------------

/// `y += alpha * x` (f32). Bitwise identical to [`scalar::axpy_f32`].
#[inline]
pub fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { x86::axpy_f32(alpha, x, y) };
    }
    #[cfg(target_arch = "aarch64")]
    return neon::axpy_f32(alpha, x, y);
    #[allow(unreachable_code)]
    scalar::axpy_f32(alpha, x, y)
}

/// `y += x` (f32). Bitwise identical to [`scalar::add_f32`].
#[inline]
pub fn add_f32(x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { x86::add_f32(x, y) };
    }
    #[cfg(target_arch = "aarch64")]
    return neon::add_f32(x, y);
    #[allow(unreachable_code)]
    scalar::add_f32(x, y)
}

/// `y += alpha * x` (f64). Bitwise identical to [`scalar::axpy_f64`].
#[inline]
pub fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { x86::axpy_f64(alpha, x, y) };
    }
    #[cfg(target_arch = "aarch64")]
    return neon::axpy_f64(alpha, x, y);
    #[allow(unreachable_code)]
    scalar::axpy_f64(alpha, x, y)
}

/// `x *= alpha` in place (f32). Bitwise identical to [`scalar::scale_f32`].
#[inline]
pub fn scale_f32(x: &mut [f32], alpha: f32) {
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { x86::scale_f32(x, alpha) };
    }
    #[cfg(target_arch = "aarch64")]
    return neon::scale_f32(x, alpha);
    #[allow(unreachable_code)]
    scalar::scale_f32(x, alpha)
}

/// `y += alpha * (x[i] as f32)` for int8 payloads (quantized inference:
/// the i8→f32 conversion is exact, so backends agree bitwise).
#[inline]
pub fn axpy_i8(alpha: f32, x: &[i8], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { x86::axpy_i8(alpha, x, y) };
    }
    #[allow(unreachable_code)]
    scalar::axpy_i8(alpha, x, y)
}

/// `y += alpha * f16_to_f32(x[i])` for IEEE-754 binary16 payloads stored
/// as `u16` bits (the conversion is exact in both paths).
#[inline]
pub fn axpy_f16(alpha: f32, x: &[u16], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if x86::f16c() {
        // SAFETY: `f16c()` confirmed the CPU supports AVX2 and F16C.
        return unsafe { x86::axpy_f16(alpha, x, y) };
    }
    #[allow(unreachable_code)]
    scalar::axpy_f16(alpha, x, y)
}

// ---------------------------------------------------------------------------
// Row-gather kernels (the SpMM inner loop)
// ---------------------------------------------------------------------------
//
// One call aggregates one destination row's neighbors over one feature
// column window: `out[j] = Σ_e w_e · x[idx_e · d + col_off + j]`, edges in
// CSR order, initialized from the *first* edge (no zero-init pass, so
// `-0.0` sources reproduce too). The AVX2 version holds the whole column
// window in vector registers across the edge loop, so per edge the only
// memory traffic is the gathered source row; dispatch happens once per
// (row, window), never per edge.

/// Unweighted gather-accumulate into `out` (a `tw`-wide column window).
/// `idx` must be non-empty; callers zero-fill empty rows themselves.
#[inline]
pub fn row_gather_unweighted(out: &mut [f32], xd: &[f32], d: usize, col_off: usize, idx: &[u32]) {
    debug_assert!(!idx.is_empty());
    debug_assert!(col_off + out.len() <= d);
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { x86::row_gather(out, xd, d, col_off, idx, None) };
    }
    #[allow(unreachable_code)]
    scalar::row_gather_unweighted(out, xd, d, col_off, idx)
}

/// Weighted gather-accumulate; `ws` is the row's edge-weight slice,
/// parallel to `idx`.
#[inline]
pub fn row_gather_weighted(
    out: &mut [f32],
    xd: &[f32],
    d: usize,
    col_off: usize,
    idx: &[u32],
    ws: &[f32],
) {
    debug_assert!(!idx.is_empty());
    debug_assert_eq!(idx.len(), ws.len());
    debug_assert!(col_off + out.len() <= d);
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { x86::row_gather(out, xd, d, col_off, idx, Some(ws)) };
    }
    #[allow(unreachable_code)]
    scalar::row_gather_weighted(out, xd, d, col_off, idx, ws)
}

// ---------------------------------------------------------------------------
// Exact fixed-point term fold (the `reduce` i64 fast path)
// ---------------------------------------------------------------------------
//
// `reduce::grad_fx` needs `trunc(x·d·2^60)` per term. An f64 → integer
// conversion has no AVX2 instruction, so the fold works on the integers
// instead: a finite f32 is `m·2^e` with a 24-bit mantissa `m`, the term
// is `m_x·m_d·2^(e_x+e_d+60)`, and `trunc` of it is the 48-bit mantissa
// product shifted right (lanes of `_mm256_mul_epu32` and `_srlv_epi64`),
// then signed. [`fx_pack`] lays out `d` once per row block so the
// inner loop is integer ops only.

/// `part[j] += trunc(x_k · d_kj · 2^60)` (wrapping) over the rows `k` of
/// one block: `packed` holds `xb.len()` rows of `part.len()` words made by
/// [`fx_pack`]. Zero `x_k` are skipped. Each term equals
/// `reduce::fx(x_k · d_kj) as i64` whenever both factors are finite and
/// `|x_k · d_kj| < 2^-3` — the bound `reduce` checks per block; other
/// inputs give unspecified (but backend-independent) values. Bitwise
/// identical to [`scalar::fold_fx_i64`].
#[inline]
pub fn fold_fx_i64(xb: &[f32], packed: &[u64], part: &mut [i64]) {
    debug_assert_eq!(packed.len(), xb.len() * part.len());
    #[cfg(target_arch = "x86_64")]
    if x86::avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { x86::fold_fx_i64(xb, packed, part) };
    }
    #[allow(unreachable_code)]
    scalar::fold_fx_i64(xb, packed, part)
}

/// Offset of the packed shift field: a term's right shift is
/// `shift(d) + shift(x) − FX_SHIFT_OFFSET` (see [`fx_pack`]).
const FX_SHIFT_OFFSET: u64 = 467;

/// Packs an `f32` for [`fold_fx_i64`]. Writing a nonzero finite value as
/// `m·2^e` with `2^23 ≤ m < 2^24` (subnormals normalized), the word holds
/// `m << 7` in bits 0–31, `211 − e` in bits 32–41 (106…383 for finite
/// values) and the sign in bit 63; ±0 packs to its sign bit alone.
///
/// For a term `x·d`, `p = (m_x << 8)·(m_d << 7) = m_x·m_d·2^15 < 2^63`
/// and `|x·d·2^60| = p·2^(e_x+e_d+45)`, so `trunc` of it is `p` shifted
/// right by `r = −45 − e_x − e_d = (211 − e_d) + (211 − e_x) − 467`.
/// Under the fast-path bound `|x·d·2^60| < 2^57` and `m_x·m_d ≥ 2^46`
/// give `r ≥ 5`; `r ≥ 64` means the term truncates to 0.
#[inline]
pub fn fx_pack(v: f32) -> u64 {
    let bits = v.to_bits();
    let sign = u64::from(bits >> 31) << 63;
    let mag = bits & 0x7fff_ffff;
    if mag == 0 {
        return sign;
    }
    let (m, e) = if mag < 0x80_0000 {
        let sh = mag.leading_zeros() - 8;
        (mag << sh, -149 - sh as i64)
    } else {
        (mag & 0x7f_ffff | 0x80_0000, (mag >> 23) as i64 - 150)
    };
    sign | ((211 - e) as u64) << 32 | u64::from(m) << 7
}

/// The per-row factors of `x` in a fold: mantissa `m_x << 8`, its
/// shift field less [`FX_SHIFT_OFFSET`], and an all-ones sign mask.
#[inline]
fn fx_row_factors(x: f32) -> (u64, u64, i64) {
    let p = fx_pack(x);
    ((p & 0xffff_ffff) << 1, FX_SHIFT_OFFSET - ((p >> 32) & 0x3ff), p as i64 >> 63)
}

/// One term of the fold: `trunc(x·d·2^60)` from `x`'s row factors and
/// `d`'s packed word (shift counts ≥ 64, or negative ones from inputs
/// outside the bound, give 0, as `_mm256_srlv_epi64` does).
#[inline]
fn fx_term(mx: u64, off: u64, sx: i64, d: u64) -> i64 {
    let r = ((d >> 32) & 0x3ff).wrapping_sub(off);
    let q = u32::try_from(r).ok().and_then(|r| ((d & 0xffff_ffff) * mx).checked_shr(r));
    let neg = (d as i64 >> 63) ^ sx;
    (q.unwrap_or(0) as i64 ^ neg).wrapping_sub(neg)
}

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

/// Portable reference kernels: the specification of every dispatched
/// kernel above, with the same signatures.
///
/// Each performs, per output element, the same rounded operations in the
/// same order as its vector counterpart, so a dispatched kernel must
/// equal its reference bit for bit on every input (NaN positions
/// included). They run wherever no vector backend applies, finish the
/// vector kernels' sub-lane tails, and are what the equivalence tests
/// compare against.
pub mod scalar {
    /// `y += alpha * x` (f32).
    #[inline]
    pub fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (o, s) in y.iter_mut().zip(x) {
            *o += alpha * *s;
        }
    }

    /// `y += x` (f32).
    #[inline]
    pub fn add_f32(x: &[f32], y: &mut [f32]) {
        for (o, s) in y.iter_mut().zip(x) {
            *o += *s;
        }
    }

    /// `y += alpha * x` (f64).
    #[inline]
    pub fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (o, s) in y.iter_mut().zip(x) {
            *o += alpha * *s;
        }
    }

    /// `x *= alpha` in place (f32).
    #[inline]
    pub fn scale_f32(x: &mut [f32], alpha: f32) {
        for v in x.iter_mut() {
            *v *= alpha;
        }
    }

    /// `y += alpha * (x[i] as f32)` for int8 payloads.
    #[inline]
    pub fn axpy_i8(alpha: f32, x: &[i8], y: &mut [f32]) {
        for (o, &q) in y.iter_mut().zip(x) {
            *o += alpha * q as f32;
        }
    }

    /// `y += alpha * f16_to_f32(x[i])` for binary16 payloads.
    #[inline]
    pub fn axpy_f16(alpha: f32, x: &[u16], y: &mut [f32]) {
        for (o, &h) in y.iter_mut().zip(x) {
            *o += alpha * crate::quant::f16_to_f32(h);
        }
    }

    /// Unweighted gather over a column window: the first edge's source
    /// window initializes `out`, later edges add theirs in CSR order.
    #[inline]
    pub fn row_gather_unweighted(
        out: &mut [f32],
        xd: &[f32],
        d: usize,
        col_off: usize,
        idx: &[u32],
    ) {
        let tw = out.len();
        out.copy_from_slice(&xd[idx[0] as usize * d + col_off..][..tw]);
        for &v in &idx[1..] {
            add_f32(&xd[v as usize * d + col_off..][..tw], out);
        }
    }

    /// Weighted gather over a column window: `out = w₀·x₀`, then
    /// `out += w_e·x_e` for the later edges in CSR order.
    #[inline]
    pub fn row_gather_weighted(
        out: &mut [f32],
        xd: &[f32],
        d: usize,
        col_off: usize,
        idx: &[u32],
        ws: &[f32],
    ) {
        let tw = out.len();
        for (o, s) in out.iter_mut().zip(&xd[idx[0] as usize * d + col_off..][..tw]) {
            *o = ws[0] * *s;
        }
        for (&v, &w) in idx[1..].iter().zip(&ws[1..]) {
            axpy_f32(w, &xd[v as usize * d + col_off..][..tw], out);
        }
    }

    /// `part[j] += trunc(x_k · d_kj · 2^60)` (wrapping) over one block.
    #[inline]
    pub fn fold_fx_i64(xb: &[f32], packed: &[u64], part: &mut [i64]) {
        for (&x, row) in xb.iter().zip(packed.chunks_exact(part.len().max(1))) {
            if x == 0.0 {
                continue;
            }
            let (mx, off, sx) = super::fx_row_factors(x);
            for (p, &d) in part.iter_mut().zip(row) {
                *p = p.wrapping_add(super::fx_term(mx, off, sx, d));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// x86_64 AVX2 backend
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::scalar;
    use std::arch::x86_64::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Cached runtime feature probe: 0 = unknown, 1 = absent, 2 = present.
    macro_rules! probe {
        ($fn_name:ident, $feat:tt) => {
            #[inline]
            pub(super) fn $fn_name() -> bool {
                static STATE: AtomicU8 = AtomicU8::new(0);
                match STATE.load(Ordering::Relaxed) {
                    2 => true,
                    1 => false,
                    _ => {
                        let has = std::arch::is_x86_feature_detected!($feat);
                        STATE.store(if has { 2 } else { 1 }, Ordering::Relaxed);
                        has
                    }
                }
            }
        };
    }

    probe!(avx2, "avx2");
    probe!(f16c_raw, "f16c");

    #[inline]
    pub(super) fn f16c() -> bool {
        // The f16 axpy uses AVX2 register math around the F16C convert.
        avx2() && f16c_raw()
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY (loads and stores below): `i + 8 <= n` and `n` bounds
        // both slices, whatever lengths the caller passed.
        let n = x.len().min(y.len());
        let a = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            // mul then add (no FMA): two roundings, same as scalar.
            let r = _mm256_add_ps(yv, _mm256_mul_ps(a, xv));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), r);
            i += 8;
        }
        scalar::axpy_f32(alpha, &x[i..], &mut y[i..]);
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_f32(x: &[f32], y: &mut [f32]) {
        // SAFETY (loads and stores below): `i + 8 <= n` and `n` bounds
        // both slices, whatever lengths the caller passed.
        let n = x.len().min(y.len());
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_add_ps(yv, xv));
            i += 8;
        }
        scalar::add_f32(&x[i..], &mut y[i..]);
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY (loads and stores below): `i + 4 <= n` and `n` bounds
        // both slices, whatever lengths the caller passed.
        let n = x.len().min(y.len());
        let a = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            let r = _mm256_add_pd(yv, _mm256_mul_pd(a, xv));
            _mm256_storeu_pd(y.as_mut_ptr().add(i), r);
            i += 4;
        }
        scalar::axpy_f64(alpha, &x[i..], &mut y[i..]);
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_fx_i64(xb: &[f32], packed: &[u64], part: &mut [i64]) {
        let n = part.len();
        let field = _mm256_set1_epi64x(0x3ff);
        let zero = _mm256_setzero_si256();
        for (&x, row) in xb.iter().zip(packed.chunks_exact(n.max(1))) {
            if x == 0.0 {
                continue;
            }
            let (mx, off, sx) = super::fx_row_factors(x);
            let (mxv, offv, sxv) = (
                _mm256_set1_epi64x(mx as i64),
                _mm256_set1_epi64x(off as i64),
                _mm256_set1_epi64x(sx),
            );
            // SAFETY (loads and stores below): `j + 4 <= n`, and `n` is the
            // length of `part` and of `row`.
            let mut j = 0;
            while j + 4 <= n {
                let d = _mm256_loadu_si256(row.as_ptr().add(j) as *const __m256i);
                let q = _mm256_mul_epu32(d, mxv);
                let r = _mm256_sub_epi64(_mm256_and_si256(_mm256_srli_epi64(d, 32), field), offv);
                let q = _mm256_srlv_epi64(q, r);
                let neg = _mm256_xor_si256(_mm256_cmpgt_epi64(zero, d), sxv);
                let t = _mm256_sub_epi64(_mm256_xor_si256(q, neg), neg);
                let acc = part.as_mut_ptr().add(j) as *mut __m256i;
                _mm256_storeu_si256(acc, _mm256_add_epi64(_mm256_loadu_si256(acc), t));
                j += 4;
            }
            for (p, &d) in part[j..].iter_mut().zip(&row[j..]) {
                *p = p.wrapping_add(super::fx_term(mx, off, sx, d));
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_f32(x: &mut [f32], alpha: f32) {
        // SAFETY (loads and stores below): `i + 8 <= n = x.len()`.
        let n = x.len();
        let a = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(x.as_mut_ptr().add(i), _mm256_mul_ps(xv, a));
            i += 8;
        }
        scalar::scale_f32(&mut x[i..], alpha);
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_i8(alpha: f32, x: &[i8], y: &mut [f32]) {
        // SAFETY (loads and stores below): `i + 8 <= n` and `n` bounds
        // both slices, whatever lengths the caller passed.
        let n = x.len().min(y.len());
        let a = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            // 8 × i8 → sign-extend to i32 → exact convert to f32.
            let q = _mm_loadl_epi64(x.as_ptr().add(i) as *const __m128i);
            let xi = _mm256_cvtepi8_epi32(q);
            let xv = _mm256_cvtepi32_ps(xi);
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            let r = _mm256_add_ps(yv, _mm256_mul_ps(a, xv));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), r);
            i += 8;
        }
        scalar::axpy_i8(alpha, &x[i..], &mut y[i..]);
    }

    /// # Safety
    /// The CPU must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn axpy_f16(alpha: f32, x: &[u16], y: &mut [f32]) {
        // SAFETY (loads and stores below): `i + 8 <= n` and `n` bounds
        // both slices, whatever lengths the caller passed.
        let n = x.len().min(y.len());
        let a = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let h = _mm_loadu_si128(x.as_ptr().add(i) as *const __m128i);
            let xv = _mm256_cvtph_ps(h); // exact f16 → f32
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            let r = _mm256_add_ps(yv, _mm256_mul_ps(a, xv));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), r);
            i += 8;
        }
        scalar::axpy_f16(alpha, &x[i..], &mut y[i..]);
    }

    /// Register-tiled gather: the column window lives in YMM accumulators
    /// across the whole edge loop. Windows wider than 64 are processed in
    /// 64/32/16/8-column register tiles (each tile re-walks the row's
    /// edge slice, which is L1-resident); the sub-8 tail is scalar.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_gather(
        out: &mut [f32],
        xd: &[f32],
        d: usize,
        col_off: usize,
        idx: &[u32],
        ws: Option<&[f32]>,
    ) {
        let tw = out.len();
        let mut j = 0;
        while tw - j >= 64 {
            gather_tile::<8>(&mut out[j..j + 64], xd, d, col_off + j, idx, ws);
            j += 64;
        }
        while tw - j >= 32 {
            gather_tile::<4>(&mut out[j..j + 32], xd, d, col_off + j, idx, ws);
            j += 32;
        }
        while tw - j >= 16 {
            gather_tile::<2>(&mut out[j..j + 16], xd, d, col_off + j, idx, ws);
            j += 16;
        }
        while tw - j >= 8 {
            gather_tile::<1>(&mut out[j..j + 8], xd, d, col_off + j, idx, ws);
            j += 8;
        }
        if j < tw {
            let tail = &mut out[j..];
            match ws {
                None => scalar::row_gather_unweighted(tail, xd, d, col_off + j, idx),
                Some(ws) => scalar::row_gather_weighted(tail, xd, d, col_off + j, idx, ws),
            }
        }
    }

    /// One register tile of `N` YMM accumulators (8·N columns).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn gather_tile<const N: usize>(
        out: &mut [f32],
        xd: &[f32],
        d: usize,
        col: usize,
        idx: &[u32],
        ws: Option<&[f32]>,
    ) {
        // SAFETY (loads and stores below): every source window and `out`
        // are sliced to exactly 8·N values first, so each access is
        // bounds-checked once per edge, outside the lane loop.
        let out = &mut out[..8 * N];
        let mut acc = [_mm256_setzero_ps(); N];
        let base0 = xd[idx[0] as usize * d + col..][..8 * N].as_ptr();
        match ws {
            None => {
                for (k, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_loadu_ps(base0.add(8 * k));
                }
                for &v in &idx[1..] {
                    let base = xd[v as usize * d + col..][..8 * N].as_ptr();
                    for (k, a) in acc.iter_mut().enumerate() {
                        *a = _mm256_add_ps(*a, _mm256_loadu_ps(base.add(8 * k)));
                    }
                }
            }
            Some(ws) => {
                let w0 = _mm256_set1_ps(ws[0]);
                for (k, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_mul_ps(w0, _mm256_loadu_ps(base0.add(8 * k)));
                }
                for (&v, &w) in idx[1..].iter().zip(&ws[1..]) {
                    let w = _mm256_set1_ps(w);
                    let base = xd[v as usize * d + col..][..8 * N].as_ptr();
                    for (k, a) in acc.iter_mut().enumerate() {
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(w, _mm256_loadu_ps(base.add(8 * k))));
                    }
                }
            }
        }
        for (k, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.as_mut_ptr().add(8 * k), *a);
        }
    }
}

// ---------------------------------------------------------------------------
// aarch64 NEON backend (element-wise kernels only; gathers use scalar)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::scalar;
    use std::arch::aarch64::*;

    #[inline]
    pub(super) fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let mut i = 0;
        // SAFETY: NEON is baseline on aarch64, and `i + lanes <= n` with
        // `n` bounding both slices.
        unsafe {
            let a = vdupq_n_f32(alpha);
            while i + 4 <= n {
                let xv = vld1q_f32(x.as_ptr().add(i));
                let yv = vld1q_f32(y.as_ptr().add(i));
                // vmulq + vaddq, NOT vfmaq: two roundings, same as scalar.
                vst1q_f32(y.as_mut_ptr().add(i), vaddq_f32(yv, vmulq_f32(a, xv)));
                i += 4;
            }
        }
        scalar::axpy_f32(alpha, &x[i..], &mut y[i..]);
    }

    #[inline]
    pub(super) fn add_f32(x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let mut i = 0;
        // SAFETY: NEON is baseline on aarch64, and `i + lanes <= n` with
        // `n` bounding both slices.
        unsafe {
            while i + 4 <= n {
                let xv = vld1q_f32(x.as_ptr().add(i));
                let yv = vld1q_f32(y.as_ptr().add(i));
                vst1q_f32(y.as_mut_ptr().add(i), vaddq_f32(yv, xv));
                i += 4;
            }
        }
        scalar::add_f32(&x[i..], &mut y[i..]);
    }

    #[inline]
    pub(super) fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let mut i = 0;
        // SAFETY: NEON is baseline on aarch64, and `i + lanes <= n` with
        // `n` bounding both slices.
        unsafe {
            let a = vdupq_n_f64(alpha);
            while i + 2 <= n {
                let xv = vld1q_f64(x.as_ptr().add(i));
                let yv = vld1q_f64(y.as_ptr().add(i));
                vst1q_f64(y.as_mut_ptr().add(i), vaddq_f64(yv, vmulq_f64(a, xv)));
                i += 2;
            }
        }
        scalar::axpy_f64(alpha, &x[i..], &mut y[i..]);
    }

    #[inline]
    pub(super) fn scale_f32(x: &mut [f32], alpha: f32) {
        let n = x.len();
        let mut i = 0;
        // SAFETY: NEON is baseline on aarch64, and `i + 4 <= n = x.len()`.
        unsafe {
            let a = vdupq_n_f32(alpha);
            while i + 4 <= n {
                let xv = vld1q_f32(x.as_ptr().add(i));
                vst1q_f32(x.as_mut_ptr().add(i), vmulq_f32(xv, a));
                i += 4;
            }
        }
        scalar::scale_f32(&mut x[i..], alpha);
    }
}
