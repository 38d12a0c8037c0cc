//! Quantized matrices (int8 / f16) with f32 accumulation.
//!
//! A [`QuantMatrix`] stores each row as int8 (per-row scale =
//! `max|row|/127`) or IEEE binary16 payloads. It has two users: the
//! serving head's [`qmatmul_into`] (weights quantized once per engine)
//! and the compressed halo wire ([`ef_compress_rows`]), whose 4× / 2×
//! smaller payload is what is sent. There is no quantized aggregation
//! kernel: an int8/f16 SpMM gather measured slower than the f32 one and
//! was removed (DESIGN.md §9). Every kernel accumulates in f32, so the
//! error stays a per-element rounding term: int8 dequantization error is
//! at most `max|row|/254` per element, f16 error at most `2^-11 · |v|`
//! (one half-precision ulp), pinned by tests.
//!
//! The default everywhere is [`QuantMode::F32`] — quantization never
//! turns itself on, and gradient kernels stay f32-bitwise (DESIGN.md
//! §4–§8).

use crate::dense::DenseMatrix;
use crate::{par, simd, LinalgError, Result};

static QMATMUL_FLOPS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.qmatmul.flops");
static QMATMUL_BYTES: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.qmatmul.bytes_moved");
static QUANTIZE_CALLS: sgnn_obs::Counter = sgnn_obs::Counter::new("linalg.quantize.calls");

/// Numeric mode for inference kernels. `F32` (the default) is the exact
/// production path; the other two are opt-in quantized approximations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Full precision — bitwise-identical to training-time forward math.
    #[default]
    F32,
    /// IEEE binary16 payloads, f32 accumulate (≤ 1 half ulp per element).
    F16,
    /// Per-row-scaled int8 payloads, f32 accumulate.
    Int8,
}

impl QuantMode {
    /// Parses a CLI spelling (`f32` / `f16` / `int8` | `i8`).
    pub fn parse(s: &str) -> Option<QuantMode> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(QuantMode::F32),
            "f16" => Some(QuantMode::F16),
            "int8" | "i8" => Some(QuantMode::Int8),
            _ => None,
        }
    }

    /// Stable label (used in bench output and reports).
    pub fn label(self) -> &'static str {
        match self {
            QuantMode::F32 => "f32",
            QuantMode::F16 => "f16",
            QuantMode::Int8 => "int8",
        }
    }

    /// Payload bytes per element (4 for f32).
    pub fn elem_bytes(self) -> usize {
        match self {
            QuantMode::F32 => 4,
            QuantMode::F16 => 2,
            QuantMode::Int8 => 1,
        }
    }
}

/// Quantized payload storage.
#[derive(Debug, Clone)]
enum QuantPayload {
    /// Signed 8-bit values; element `= q · row_scale`.
    I8(Vec<i8>),
    /// IEEE binary16 bit patterns; element `= f16_to_f32(h)` (scales are 1).
    F16(Vec<u16>),
}

/// A row-major quantized matrix with one scale per row.
///
/// int8 rows store `q = round(v / s)` with `s = max|row| / 127` (an
/// all-zero row gets `s = 0`); f16 rows store round-to-nearest-even
/// binary16 bits with a unit scale, kept so both payloads share one
/// kernel shape.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    scales: Vec<f32>,
    payload: QuantPayload,
}

impl QuantMatrix {
    /// Quantizes `m` under `mode`; `None` for [`QuantMode::F32`] (callers
    /// keep the dense matrix and the exact kernels).
    pub fn quantize(m: &DenseMatrix, mode: QuantMode) -> Option<QuantMatrix> {
        match mode {
            QuantMode::F32 => None,
            QuantMode::Int8 => Some(Self::quantize_i8(m)),
            QuantMode::F16 => Some(Self::quantize_f16(m)),
        }
    }

    /// Per-row-scaled int8 quantization.
    pub fn quantize_i8(m: &DenseMatrix) -> QuantMatrix {
        QUANTIZE_CALLS.incr();
        let (rows, cols) = m.shape();
        let mut scales = vec![0f32; rows];
        let mut q = vec![0i8; rows * cols];
        for r in 0..rows {
            let row = m.row(r);
            let max_abs = row.iter().fold(0f32, |acc, v| acc.max(v.abs()));
            if max_abs == 0.0 {
                continue;
            }
            let s = max_abs / 127.0;
            scales[r] = s;
            let inv = 1.0 / s;
            for (qv, &v) in q[r * cols..(r + 1) * cols].iter_mut().zip(row) {
                *qv = (v * inv).round().clamp(-127.0, 127.0) as i8;
            }
        }
        QuantMatrix { rows, cols, scales, payload: QuantPayload::I8(q) }
    }

    /// Binary16 quantization (unit scales).
    pub fn quantize_f16(m: &DenseMatrix) -> QuantMatrix {
        QUANTIZE_CALLS.incr();
        let (rows, cols) = m.shape();
        let h: Vec<u16> = m.data().iter().map(|&v| f32_to_f16(v)).collect();
        QuantMatrix { rows, cols, scales: vec![1.0; rows], payload: QuantPayload::F16(h) }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The mode this matrix was quantized under.
    pub fn mode(&self) -> QuantMode {
        match self.payload {
            QuantPayload::I8(_) => QuantMode::Int8,
            QuantPayload::F16(_) => QuantMode::F16,
        }
    }

    /// Resident payload + scale bytes.
    pub fn nbytes(&self) -> usize {
        let payload = self.rows * self.cols * self.mode().elem_bytes();
        payload + self.scales.len() * 4
    }

    /// Dequantized element.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let i = r * self.cols + c;
        match &self.payload {
            QuantPayload::I8(q) => self.scales[r] * q[i] as f32,
            QuantPayload::F16(h) => f16_to_f32(h[i]),
        }
    }

    /// Full dequantization (tests, error measurement).
    pub fn dequantize(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(r, c, self.get(r, c));
            }
        }
        out
    }
}

/// `out = x · w` with quantized operands and f32 accumulation.
///
/// Mirrors the dense `matmul_into` i-k-j loop: for each output row the
/// inner op is an axpy over `w`'s row `k` with `alpha = x[i][k]·s_w[k]`,
/// so per-row weight scales fold into the scalar for free and the payload
/// stream stays contiguous (and 2–4× smaller than f32). Both operands
/// must share a payload width.
pub fn qmatmul_into(x: &QuantMatrix, w: &QuantMatrix, out: &mut DenseMatrix) -> Result<()> {
    let (m, k) = x.shape();
    let (wk, n) = w.shape();
    if k != wk || out.shape() != (m, n) {
        return Err(LinalgError::ShapeMismatch {
            context: format!("qmatmul {m}x{k} · {wk}x{n} -> {:?}", out.shape()),
        });
    }
    let _span = sgnn_obs::span!("linalg.qmatmul");
    QMATMUL_FLOPS.add(2 * (m * k * n) as u64 + (m * k) as u64);
    QMATMUL_BYTES.add(qmatmul_bytes(x, w) as u64);
    let out_data = out.data_mut();
    par::par_rows_mut(out_data, n.max(1), 16, |first_row, chunk| {
        for (local, out_row) in chunk.chunks_mut(n.max(1)).enumerate() {
            let i = first_row + local;
            out_row.fill(0.0);
            for kk in 0..k {
                let a = x.get(i, kk) * w.scales[kk];
                if a == 0.0 {
                    continue;
                }
                match &w.payload {
                    QuantPayload::I8(q) => {
                        simd::axpy_i8(a, &q[kk * n..(kk + 1) * n], out_row);
                    }
                    QuantPayload::F16(h) => {
                        simd::axpy_f16(a, &h[kk * n..(kk + 1) * n], out_row);
                    }
                }
            }
        }
    });
    Ok(())
}

/// Analytic compulsory traffic for [`qmatmul_into`]: each payload read
/// once, output written once (the roofline denominator).
pub fn qmatmul_bytes(x: &QuantMatrix, w: &QuantMatrix) -> usize {
    x.nbytes() + w.nbytes() + x.rows() * w.cols() * 4
}

// ---------------------------------------------------------------------------
// Error-feedback row compression (communication path)
// ---------------------------------------------------------------------------

/// Wire bytes of one compressed `d`-vector: f32 sends the raw row, f16
/// halves it (unit scale, nothing else to send), int8 quarters the
/// payload plus one f32 per-row scale.
pub fn wire_bytes_per_vector(mode: QuantMode, d: usize) -> u64 {
    match mode {
        QuantMode::F32 => 4 * d as u64,
        QuantMode::F16 => 2 * d as u64,
        QuantMode::Int8 => d as u64 + 4,
    }
}

/// One **error-feedback** compression step over a block of row vectors
/// (the sender side of a compressed halo exchange).
///
/// Compresses `vals + residual` under `mode`, returns the dequantized
/// rows the receivers will see, and leaves the fresh compression error
/// `(vals + residual) − dequantized` in `residual` — so the error a row
/// accumulates is *re-injected* into the next transmission instead of
/// compounding across supersteps (EF-SGD / 1-bit-Adam lineage; Vatter
/// et al. §5.2). The residual is a fixed point of
/// `|r| ≤ q(max|v| + |r|)` with per-element quantization error factor
/// `q` (`1/254` for int8, `2⁻¹¹` for f16), so it stays bounded by
/// `q/(1−q) · max|v|` for any superstep count — pinned by proptest in
/// `tests/comm_regime.rs`.
///
/// [`QuantMode::F32`] is the identity: `vals` is returned bit-for-bit
/// and `residual` is untouched (stays zero) — the degenerate case that
/// makes the compressed trainer path reproduce the exact path bitwise.
pub fn ef_compress_rows(
    vals: &DenseMatrix,
    residual: &mut DenseMatrix,
    mode: QuantMode,
) -> DenseMatrix {
    assert_eq!(vals.shape(), residual.shape(), "residual tracks the transmitted block");
    if mode == QuantMode::F32 {
        return vals.clone();
    }
    let mut carry = vals.clone();
    for (c, &r) in carry.data_mut().iter_mut().zip(residual.data()) {
        *c += r;
    }
    let q = QuantMatrix::quantize(&carry, mode).expect("lossy mode");
    let sent = q.dequantize();
    for ((r, &c), &s) in residual.data_mut().iter_mut().zip(carry.data()).zip(sent.data()) {
        *r = c - s;
    }
    sent
}

// ---------------------------------------------------------------------------
// Exact scalar f16 <-> f32 conversion
// ---------------------------------------------------------------------------

/// IEEE binary16 bits → f32, exact (every f16 value is representable).
/// Matches the F16C `vcvtph2ps` result bit-for-bit, including the
/// quiet-bit behavior on NaNs.
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x3ff) as u32;
    let bits = match (exp, man) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: renormalize. MSB of m lands at f32 bit 23.
            let shift = m.leading_zeros() - 8;
            let mant = (m << shift) & 0x007f_ffff;
            sign | ((126 - shift) << 23) | mant
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, m) => sign | 0x7fc0_0000 | (m << 13), // NaN: payload kept, quieted
        (e, m) => sign | ((e + 112) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// f32 → IEEE binary16 bits, round-to-nearest-even (the hardware
/// `vcvtps2ph` rounding); overflow saturates to ±Inf, NaN stays NaN.
pub fn f32_to_f16(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) & 0x8000) as u16;
    let exp8 = (b >> 23) & 0xff;
    let man = b & 0x007f_ffff;
    if exp8 == 0xff {
        return if man == 0 { sign | 0x7c00 } else { sign | 0x7e00 | ((man >> 13) as u16 & 0x1ff) };
    }
    let exp = exp8 as i32 - 127 + 15;
    if exp >= 0x1f {
        return sign | 0x7c00;
    }
    let (mant, shift) = if exp <= 0 {
        if exp < -10 {
            return sign; // underflows past the smallest subnormal
        }
        (man | 0x0080_0000, (14 - exp) as u32)
    } else {
        (man, 13)
    };
    let shifted = mant >> shift;
    let rem = mant & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    let rounded =
        if rem > half || (rem == half && shifted & 1 == 1) { shifted + 1 } else { shifted };
    let base = if exp <= 0 { 0u32 } else { (exp as u32) << 10 };
    // A mantissa carry from rounding flows into the exponent field, which
    // is exactly the IEEE behavior (can reach the Inf encoding).
    sign | (base + rounded) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrip_is_identity_on_all_finite_bit_patterns() {
        // f16 -> f32 is exact, so converting back must reproduce the bits.
        for h in 0..=u16::MAX {
            let exp = (h >> 10) & 0x1f;
            let man = h & 0x3ff;
            if exp == 0x1f && man != 0 {
                continue; // NaNs don't round-trip payloads canonically
            }
            let f = f16_to_f32(h);
            assert_eq!(f32_to_f16(f), h, "h={h:#06x} f={f}");
        }
    }

    #[test]
    fn f16_conversion_hits_known_values() {
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert_eq!(f16_to_f32(0xc000), -2.0);
        assert_eq!(f16_to_f32(0x7bff), 65504.0); // largest finite f16
        assert_eq!(f16_to_f32(0x0001), 5.960_464_5e-8); // smallest subnormal
        assert_eq!(f16_to_f32(0x7c00), f32::INFINITY);
        assert!(f16_to_f32(0x7e00).is_nan());
        assert_eq!(f32_to_f16(1.0), 0x3c00);
        assert_eq!(f32_to_f16(65504.0), 0x7bff);
        assert_eq!(f32_to_f16(100_000.0), 0x7c00); // saturates
        assert_eq!(f32_to_f16(-0.0), 0x8000);
        // Ties round to even: 1.0009765625 is exactly between 0x3c00/0x3c01.
        assert_eq!(f32_to_f16(1.000_488_3), 0x3c00);
    }

    #[test]
    fn i8_error_stays_under_half_scale() {
        let m = DenseMatrix::gaussian(17, 33, 1.3, 42);
        let q = QuantMatrix::quantize_i8(&m);
        for r in 0..m.rows() {
            let bound = q.scales[r] * 0.5 + 1e-7;
            for c in 0..m.cols() {
                let err = (q.get(r, c) - m.get(r, c)).abs();
                assert!(err <= bound, "({r},{c}): err {err} > {bound}");
            }
        }
    }

    #[test]
    fn i8_zero_row_quantizes_cleanly() {
        let mut m = DenseMatrix::zeros(2, 4);
        m.set(1, 2, 3.0);
        let q = QuantMatrix::quantize_i8(&m);
        assert_eq!(q.scales[0], 0.0);
        assert_eq!(q.get(0, 1), 0.0);
        assert_eq!(q.get(1, 2), 3.0); // row max quantizes exactly
    }

    #[test]
    fn f16_error_is_one_ulp() {
        let m = DenseMatrix::gaussian(9, 21, 1.0, 7);
        let q = QuantMatrix::quantize_f16(&m);
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = m.get(r, c);
                let err = (q.get(r, c) - v).abs();
                assert!(err <= v.abs() * 4.9e-4, "({r},{c}): err {err} vs {v}");
            }
        }
    }

    #[test]
    fn qmatmul_tracks_dense_matmul() {
        let x = DenseMatrix::gaussian(12, 24, 1.0, 1);
        let w = DenseMatrix::gaussian(24, 8, 0.5, 2);
        let exact = x.matmul(&w).unwrap();
        for mode in [QuantMode::Int8, QuantMode::F16] {
            let xq = QuantMatrix::quantize(&x, mode).unwrap();
            let wq = QuantMatrix::quantize(&w, mode).unwrap();
            let mut out = DenseMatrix::zeros(12, 8);
            qmatmul_into(&xq, &wq, &mut out).unwrap();
            let mut max_err = 0f32;
            for (a, b) in out.data().iter().zip(exact.data()) {
                max_err = max_err.max((a - b).abs());
            }
            // k=24 accumulated element errors; generous analytic headroom.
            let tol = if mode == QuantMode::Int8 { 0.15 } else { 0.02 };
            assert!(max_err < tol, "{}: max_err {max_err}", mode.label());
            assert!(max_err > 0.0, "quantization should not be exact here");
        }
    }

    #[test]
    fn qmatmul_rejects_shape_mismatch() {
        let x = QuantMatrix::quantize_i8(&DenseMatrix::zeros(3, 4));
        let w = QuantMatrix::quantize_i8(&DenseMatrix::zeros(5, 2));
        let mut out = DenseMatrix::zeros(3, 2);
        assert!(qmatmul_into(&x, &w, &mut out).is_err());
    }

    #[test]
    fn ef_f32_is_the_bitwise_identity() {
        let m = DenseMatrix::gaussian(6, 9, 1.0, 5);
        let mut resid = DenseMatrix::zeros(6, 9);
        let sent = ef_compress_rows(&m, &mut resid, QuantMode::F32);
        assert!(sent.data().iter().map(|v| v.to_bits()).eq(m.data().iter().map(|v| v.to_bits())));
        assert!(resid.data().iter().all(|&r| r == 0.0));
    }

    #[test]
    fn ef_residual_carries_the_compression_error() {
        let m = DenseMatrix::gaussian(4, 16, 1.0, 11);
        let mut resid = DenseMatrix::zeros(4, 16);
        let sent = ef_compress_rows(&m, &mut resid, QuantMode::Int8);
        // First step: residual is exactly vals − sent.
        for ((&v, &s), &r) in m.data().iter().zip(sent.data()).zip(resid.data()) {
            assert_eq!(r, v - s);
        }
        // Second step re-injects it: sent₂ tracks vals + r, not vals.
        let sent2 = ef_compress_rows(&m, &mut resid, QuantMode::Int8);
        let mut reinjected = false;
        // Cumulative transmitted value over 2 steps ≈ 2·vals within one
        // quantization step (the EF telescoping property).
        for (i, (&v, (&s1, &s2))) in
            m.data().iter().zip(sent.data().iter().zip(sent2.data())).enumerate()
        {
            let row = i / 16;
            let bound = m.row(row).iter().fold(0f32, |a, x| a.max(x.abs())) / 127.0 + 1e-6;
            assert!(
                ((s1 + s2) - 2.0 * v).abs() <= bound + resid.data()[i].abs() + 1e-6,
                "telescoping violated at {i}"
            );
            reinjected |= s1.to_bits() != s2.to_bits();
        }
        assert!(reinjected, "feedback should perturb the second transmission");
    }

    #[test]
    fn ef_residual_stays_bounded_over_many_supersteps() {
        // 80 supersteps of fresh gaussian values: |r|∞ must stay under the
        // fixed-point bound q/(1−q)·max|v| with q = 1/254 (int8), and the
        // analogous one-ulp bound for f16.
        for (mode, q) in [(QuantMode::Int8, 1.0 / 254.0), (QuantMode::F16, 4.9e-4)] {
            let mut resid = DenseMatrix::zeros(5, 24);
            let mut max_abs = 0f32;
            for step in 0..80 {
                let vals = DenseMatrix::gaussian(5, 24, 1.5, 1000 + step);
                max_abs = max_abs.max(vals.data().iter().fold(0f32, |a, v| a.max(v.abs())));
                ef_compress_rows(&vals, &mut resid, mode);
                let bound = q / (1.0 - q) * max_abs + 1e-6;
                let worst = resid.data().iter().fold(0f32, |a, r| a.max(r.abs()));
                assert!(worst <= bound, "{}: step {step}: |r|∞ {worst} > {bound}", mode.label());
            }
        }
    }

    #[test]
    fn wire_bytes_model() {
        assert_eq!(wire_bytes_per_vector(QuantMode::F32, 32), 128);
        assert_eq!(wire_bytes_per_vector(QuantMode::F16, 32), 64);
        assert_eq!(wire_bytes_per_vector(QuantMode::Int8, 32), 36);
    }

    #[test]
    fn mode_parsing_and_sizes() {
        assert_eq!(QuantMode::parse("Int8"), Some(QuantMode::Int8));
        assert_eq!(QuantMode::parse("f16"), Some(QuantMode::F16));
        assert_eq!(QuantMode::parse("f32"), Some(QuantMode::F32));
        assert_eq!(QuantMode::parse("bf16"), None);
        assert_eq!(QuantMode::default(), QuantMode::F32);
        let m = DenseMatrix::gaussian(10, 10, 1.0, 3);
        let q8 = QuantMatrix::quantize_i8(&m);
        let q16 = QuantMatrix::quantize_f16(&m);
        assert_eq!(q8.nbytes(), 100 + 40);
        assert_eq!(q16.nbytes(), 200 + 40);
        assert!(QuantMatrix::quantize(&m, QuantMode::F32).is_none());
    }
}
