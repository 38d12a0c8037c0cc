//! Equivalence properties for the cache-blocked and explicit-SIMD kernels
//! (DESIGN.md §9): `spmm_blocked_into` must be *bitwise* identical to
//! `spmm_into` for every block shape, thread count, and row order — the
//! blocked kernel only re-tiles the iteration space, it never reassociates
//! a per-column accumulation chain — and the element-wise SIMD primitives
//! must match the plain mul-then-add scalar loop bit for bit (no FMA).
//!
//! The vector kernels are part of every build, so these assertions pin
//! whichever backend the host dispatches to (AVX2, NEON or scalar) to the
//! `simd::scalar` reference kernels, and `spmm_into` to a plain CSR loop
//! written here that shares no code with it.

use proptest::prelude::*;
use sgnn::graph::blocked::{spmm_blocked_into, BlockSpec};
use sgnn::graph::generate;
use sgnn::graph::normalize::{normalized_adjacency, NormKind};
use sgnn::graph::reorder::{compute_order, relabel, Reordering};
use sgnn::graph::spmm::spmm_into;
use sgnn::graph::CsrView;
use sgnn::linalg::par::set_threads;
use sgnn::linalg::simd::{self, scalar};
use sgnn::linalg::DenseMatrix;
use sgnn::sample::{labor::labor_blocks, layer_wise::ladies_blocks, node_wise::sample_blocks};
use std::sync::Mutex;

/// Serializes tests that toggle the global thread count (the test harness
/// runs #[test] functions concurrently and `set_threads` is process-wide).
static THREADS: Mutex<()> = Mutex::new(());

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Blocked SpMM is bitwise-equal to `spmm_into` for arbitrary block
    /// shapes and feature widths (including the d ≤ 4 delegation range and
    /// widths straddling the SIMD register-tile sizes), at one thread and
    /// with the pool enabled, on raw and weighted operators — and stays so
    /// after an RCM relabel, the order the tiling is designed to compose
    /// with.
    #[test]
    fn blocked_spmm_bitwise_equals_balanced(
        n in 200usize..1500,
        m in 1usize..5,
        d in 1usize..96,
        row_block in 1usize..300,
        col_block in 1usize..96,
        seed in 0u64..1000,
    ) {
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let g = generate::barabasi_albert(n, m, seed);
        let a = normalized_adjacency(&g, NormKind::Sym, true).unwrap();
        let order = compute_order(&g, Reordering::Rcm);
        let (rg, _) = relabel(&g, &order);
        let x = DenseMatrix::gaussian(n, d, 1.0, seed + 1);
        let spec = BlockSpec { row_block, col_block };
        for op in [&g, &a, &rg] {
            for threads in [1usize, 0] {
                set_threads(threads);
                let mut reference = DenseMatrix::zeros(n, d);
                reference.data_mut().fill(f32::NAN);
                spmm_into(op, &x, &mut reference);
                let mut tiled = DenseMatrix::zeros(n, d);
                tiled.data_mut().fill(f32::NAN); // stale scratch must not leak
                spmm_blocked_into(op, &x, &mut tiled, spec);
                prop_assert_eq!(
                    bits(&reference),
                    bits(&tiled),
                    "blocked != balanced (d={}, spec={}x{}, threads={})",
                    d, row_block, col_block, threads
                );
            }
        }
        set_threads(0);
    }

    /// Element-wise SIMD primitives match the scalar mul-then-add loop
    /// bitwise on awkward (non-multiple-of-lane) lengths. axpy64 is the
    /// f64 eigensolver/optimizer path.
    #[test]
    fn simd_axpy_bitwise_matches_scalar_loop(
        len in 1usize..200,
        alpha in -4.0f32..4.0,
        seed in 0u64..1000,
    ) {
        let x = DenseMatrix::gaussian(1, len, 1.0, seed);
        let mut y = DenseMatrix::gaussian(1, len, 1.0, seed + 1);
        let mut expected: Vec<f32> = y.data().to_vec();
        for (e, &v) in expected.iter_mut().zip(x.data()) {
            *e += alpha * v;
        }
        simd::axpy_f32(alpha, x.data(), y.data_mut());
        prop_assert_eq!(
            y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let a64 = alpha as f64;
        let x64: Vec<f64> = x.data().iter().map(|&v| v as f64).collect();
        let mut y64: Vec<f64> = expected.iter().map(|&v| v as f64).collect();
        let mut exp64 = y64.clone();
        for (e, &v) in exp64.iter_mut().zip(&x64) {
            *e += a64 * v;
        }
        simd::axpy_f64(a64, &x64, &mut y64);
        prop_assert_eq!(
            y64.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            exp64.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

/// The SIMD backend reports a coherent identity: lane width is a power of
/// two and matches the advertised backend family.
#[test]
fn simd_backend_reports_coherent_identity() {
    let backend = simd::active_backend();
    let lanes = simd::f32_lanes();
    assert!(lanes.is_power_of_two(), "lane count {lanes} not a power of two");
    match backend {
        "avx2" | "neon" => assert!(lanes > 1, "{backend} backend must report vector lanes"),
        _ => assert_eq!(lanes, 1, "scalar backend must report 1 lane"),
    }
}

/// Maps a draw to an adversarial value: tags 0–5 give ±0, a positive and
/// a negative subnormal, and ±inf; every other tag keeps `v`.
fn special(tag: u8, v: f32) -> f32 {
    match tag {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(1),
        3 => -f32::from_bits(0x007f_ffff),
        4 => f32::INFINITY,
        5 => f32::NEG_INFINITY,
        _ => v,
    }
}

/// Bitwise equality, except that a NaN in `want` only asks for a NaN in
/// `got` (payloads are not part of the contract). Widening f32 to f64 is
/// exact and injective, so f32 slices are compared through it.
fn assert_same(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if w.is_nan() {
            assert!(g.is_nan(), "{what}: [{i}] is {g}, the reference has NaN");
        } else {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: [{i}] is {g}, the reference has {w}");
        }
    }
}

fn widen(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

/// `Y = A · X` the plain way: each row starts from its first edge's term
/// and adds the later edges' `w·x` in CSR order; rows without edges are
/// zero.
fn csr_loop(a: CsrView<'_>, x: &DenseMatrix) -> DenseMatrix {
    let d = x.cols();
    let mut y = DenseMatrix::zeros(a.num_rows(), d);
    for u in 0..a.num_rows() {
        let (lo, hi) = (a.indptr[u], a.indptr[u + 1]);
        for e in lo..hi {
            let src = x.row(a.cols[e] as usize);
            let out = y.row_mut(u);
            for k in 0..d {
                let term = a.weights.map_or(src[k], |ws| ws[e] * src[k]);
                out[k] = if e == lo { term } else { out[k] + term };
            }
        }
    }
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every dispatched element-wise kernel equals its `simd::scalar`
    /// reference bit for bit on lengths 0–67 (vector bodies plus every
    /// tail length), with ±0, subnormals and ±inf in the inputs and the
    /// scalar factor.
    #[test]
    fn dispatched_kernels_equal_their_scalar_reference(
        elems in proptest::collection::vec(
            ((0u8..24, -4.0f32..4.0), (0u8..24, -4.0f32..4.0), -128i8..=127, 0u16..=u16::MAX),
            0..68,
        ),
        alpha_tag in 0u8..12,
        alpha in -4.0f32..4.0,
    ) {
        let x: Vec<f32> = elems.iter().map(|e| special(e.0 .0, e.0 .1)).collect();
        let y: Vec<f32> = elems.iter().map(|e| special(e.1 .0, e.1 .1)).collect();
        let q: Vec<i8> = elems.iter().map(|e| e.2).collect();
        let h: Vec<u16> = elems.iter().map(|e| e.3).collect();
        let alpha = special(alpha_tag, alpha);

        let run = |what: &str, kernel: &dyn Fn(&mut [f32]), reference: &dyn Fn(&mut [f32])| {
            let mut got = y.clone();
            let mut want = y.clone();
            kernel(&mut got);
            reference(&mut want);
            assert_same(&widen(&got), &widen(&want), what);
        };
        run("axpy_f32", &|o| simd::axpy_f32(alpha, &x, o), &|o| scalar::axpy_f32(alpha, &x, o));
        run("add_f32", &|o| simd::add_f32(&x, o), &|o| scalar::add_f32(&x, o));
        run("scale_f32", &|o| simd::scale_f32(o, alpha), &|o| scalar::scale_f32(o, alpha));
        run("axpy_i8", &|o| simd::axpy_i8(alpha, &q, o), &|o| scalar::axpy_i8(alpha, &q, o));
        run("axpy_f16", &|o| simd::axpy_f16(alpha, &h, o), &|o| scalar::axpy_f16(alpha, &h, o));

        let x64 = widen(&x);
        let mut got = widen(&y);
        let mut want = got.clone();
        simd::axpy_f64(alpha as f64, &x64, &mut got);
        scalar::axpy_f64(alpha as f64, &x64, &mut want);
        assert_same(&got, &want, "axpy_f64");
    }

    /// The dispatched row gathers equal their `simd::scalar` references
    /// bit for bit for feature widths 1–67, at column offsets and window
    /// widths that are mostly not lane multiples, with adversarial
    /// features and edge weights.
    #[test]
    fn dispatched_row_gathers_equal_their_scalar_reference(
        d in 1usize..68,
        col_pick in 0usize..10_000,
        width_pick in 0usize..10_000,
        edges in proptest::collection::vec((0u32..12, 0u8..24, -2.0f32..2.0), 1..20),
        feats in proptest::collection::vec((0u8..32, -4.0f32..4.0), 804..805),
    ) {
        let col_off = col_pick % d;
        let tw = 1 + width_pick % (d - col_off);
        let xd: Vec<f32> = feats[..12 * d].iter().map(|&(t, v)| special(t, v)).collect();
        let idx: Vec<u32> = edges.iter().map(|e| e.0).collect();
        let ws: Vec<f32> = edges.iter().map(|e| special(e.1, e.2)).collect();
        // Every edge-list prefix, so short chains (where a signed zero
        // from the first edge survives to the output) are always covered.
        for k in 1..=idx.len() {
            let (idx, ws) = (&idx[..k], &ws[..k]);
            let what = format!("d={d} col_off={col_off} tw={tw} edges={k}");
            let mut got = vec![f32::NAN; tw];
            let mut want = vec![f32::NAN; tw];
            simd::row_gather_unweighted(&mut got, &xd, d, col_off, idx);
            scalar::row_gather_unweighted(&mut want, &xd, d, col_off, idx);
            assert_same(&widen(&got), &widen(&want), &format!("unweighted {what}"));

            simd::row_gather_weighted(&mut got, &xd, d, col_off, idx, ws);
            scalar::row_gather_weighted(&mut want, &xd, d, col_off, idx, ws);
            assert_same(&widen(&got), &widen(&want), &format!("weighted {what}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `spmm_into` is bitwise equal to [`csr_loop`], a reference that
    /// shares no kernel with it, for every width the tiled body serves,
    /// on raw, sym-normalized and RCM-relabeled operators, inline and
    /// pooled.
    #[test]
    fn spmm_into_equals_a_plain_csr_loop(
        n in 200usize..1200,
        m in 1usize..5,
        d in 5usize..96,
        seed in 0u64..1000,
    ) {
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let g = generate::barabasi_albert(n, m, seed);
        let a = normalized_adjacency(&g, NormKind::Sym, true).unwrap();
        let (rg, _) = relabel(&a, &compute_order(&a, Reordering::Rcm));
        let x = DenseMatrix::gaussian(n, d, 1.0, seed + 1);
        for op in [&g, &a, &rg] {
            let want = csr_loop(op.view(), &x);
            for threads in [1usize, 0] {
                set_threads(threads);
                let mut got = DenseMatrix::from_vec(n, d, vec![f32::NAN; n * d]);
                spmm_into(op, &x, &mut got);
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "spmm_into != CSR loop (d={}, threads={})",
                    d, threads
                );
            }
        }
        set_threads(0);
    }
}

/// `Block::aggregate_into` is bitwise equal to [`csr_loop`] over the
/// block's view for node-wise, LADIES and LABOR blocks, narrow and wide
/// feature widths, inline and pooled, starting from a NaN-filled output:
/// sampled blocks run the same row-parallel gather as `spmm_into`.
#[test]
fn block_aggregation_equals_a_plain_csr_loop() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let g = generate::barabasi_albert(3_000, 4, 5);
    let targets: Vec<u32> = (0..3_000).step_by(7).collect();
    let stacks = [
        ("node-wise", sample_blocks(&g, &targets, &[10, 10], 1)),
        ("LADIES", ladies_blocks(&g, &targets, &[600, 600], 2)),
        ("LABOR", labor_blocks(&g, &targets, &[10, 10], 3)),
    ];
    for (name, blocks) in &stacks {
        for (l, b) in blocks.iter().enumerate() {
            for d in [1usize, 3, 5, 64, 70] {
                let x = DenseMatrix::gaussian(b.num_src(), d, 1.0, d as u64 + l as u64);
                let want = csr_loop(b.view(), &x);
                for threads in [1usize, 0] {
                    set_threads(threads);
                    let mut got =
                        DenseMatrix::from_vec(b.num_dst(), d, vec![f32::NAN; b.num_dst() * d]);
                    b.aggregate_into(&x, &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{name} block {l} (d={d}, threads={threads})"
                    );
                }
            }
        }
    }
    set_threads(0);
}
