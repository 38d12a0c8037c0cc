//! `benchkernels` — machine-readable kernel perf snapshot with roofline
//! attribution.
//!
//! ```text
//! cargo run --release -p sgnn-bench --bin benchkernels                 # bench_out/BENCH_kernels.json
//! cargo run --release -p sgnn-bench --bin benchkernels -- --quick      # small workload (CI smoke)
//! cargo run --release -p sgnn-bench --bin benchkernels -- --json      # + ObsReport line on stdout
//! cargo run --release -p sgnn-bench --bin benchkernels -- out.json
//! ```
//!
//! Each kernel variant is reported with its timing *and* its analytic
//! flop/byte counts read back from the `linalg.*.flops` /
//! `linalg.*.bytes_moved` roofline counters (DESIGN.md §9), so the JSON
//! attributes every speedup: arithmetic intensity says whether a variant
//! is bandwidth- or compute-bound, the `simd_backend` field says which
//! lane width produced the numbers, and the `qmatmul_*` rows time the
//! serving head's quantized GEMM. Before timing, the bitwise contract
//! (`spmm_into` ≡ `spmm_blocked_into` at a fixed non-auto tile) and the
//! quantized GEMM's tolerance against `matmul_f32` on the same operands
//! are asserted on the bench workload itself.
//! The `grad_fx` row (the exact fixed-point `Xᵀ·dY` fold of training's
//! backward pass) carries analytic counts, and its gradient-scale inputs
//! are asserted to keep every block on the fold's `i64` fast path.
//!
//! With `--json`, observability stays enabled for the timed phase and a
//! final line with the single-line [`sgnn_obs::ObsReport`] snapshot is
//! printed to stdout. Kernel timings then include the (small)
//! enabled-path overhead; leave the flag off when recording baselines.

use sgnn_bench::kernel_baseline::scoped_chunks;
use sgnn_graph::blocked::{spmm_blocked_into, BlockSpec};
use sgnn_graph::normalize::{normalized_adjacency, NormKind};
use sgnn_graph::spmm::{spmm_into, spmv};
use sgnn_graph::{generate, CsrGraph};
use sgnn_linalg::par::{num_threads, par_chunks, set_threads};
use sgnn_linalg::quant::{qmatmul_bytes, qmatmul_into, QuantMatrix};
use sgnn_linalg::{reduce, simd, DenseMatrix};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Median seconds per call over `reps` timed calls (after one warm-up).
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Times two competing kernels back-to-back per round so host-load drift
/// hits both equally, returning their median per-call seconds. Shared-box
/// noise makes separate-phase timing of slow kernels unreliable.
fn time_interleaved(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let mut ta: Vec<f64> = Vec::with_capacity(rounds);
    let mut tb: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        a();
        ta.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        b();
        tb.push(t.elapsed().as_secs_f64());
    }
    ta.sort_by(|x, y| x.total_cmp(y));
    tb.sort_by(|x, y| x.total_cmp(y));
    (ta[rounds / 2], tb[rounds / 2])
}

/// One kernel variant's roofline row.
struct Kernel {
    name: &'static str,
    seconds: f64,
    flops: u64,
    bytes: u64,
}

impl Kernel {
    fn json(&self) -> String {
        let intensity = self.flops as f64 / self.bytes.max(1) as f64;
        let gflops = self.flops as f64 / self.seconds / 1e9;
        let gbps = self.bytes as f64 / self.seconds / 1e9;
        format!(
            "{{\"seconds\": {:.9}, \"flops\": {}, \"bytes_moved\": {}, \
             \"intensity_flops_per_byte\": {:.4}, \"gflops\": {:.3}, \"gbytes_per_sec\": {:.3}}}",
            self.seconds, self.flops, self.bytes, intensity, gflops, gbps
        )
    }
}

/// Runs `f` once with observability on and returns the roofline counter
/// pair `(<prefix>.flops, <prefix>.bytes_moved)` it recorded. `keep_on`
/// leaves observability enabled afterwards (`--json` mode).
fn attribute(prefix: &str, keep_on: bool, f: impl FnOnce()) -> (u64, u64) {
    sgnn_obs::enable();
    sgnn_obs::reset();
    f();
    let report = sgnn_obs::report();
    if !keep_on {
        sgnn_obs::disable();
    }
    let get = |name: String| report.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value);
    (get(format!("{prefix}.flops")), get(format!("{prefix}.bytes_moved")))
}

/// Largest `|got − exact|` element in units of `max(1, max|exact|)` — the
/// scale of the quantized MLP logit bound (DESIGN.md §9).
fn max_scaled_err(got: &DenseMatrix, exact: &DenseMatrix) -> f32 {
    let scale = exact.data().iter().fold(1f32, |m, v| m.max(v.abs()));
    got.data().iter().zip(exact.data()).fold(0f32, |m, (x, y)| m.max((x - y).abs())) / scale
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs_json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--json" && a != "--quick");
    let out_path =
        args.into_iter().next().unwrap_or_else(|| "bench_out/BENCH_kernels.json".to_string());
    let threads = num_threads();

    // --- Dispatch overhead: tiny input, cost is the handoff itself. ---
    let sink = AtomicU64::new(0);
    let dispatch_reps = if quick { 200usize } else { 2_000 };
    let rounds = if quick { 5 } else { 9 };
    let (pooled, scoped) = time_interleaved(
        rounds,
        || {
            for _ in 0..dispatch_reps {
                par_chunks(black_box(4096), 64, |s, e| {
                    sink.fetch_add((e - s) as u64, Ordering::Relaxed);
                });
            }
        },
        || {
            for _ in 0..dispatch_reps {
                scoped_chunks(black_box(4096), 64, |s, e| {
                    sink.fetch_add((e - s) as u64, Ordering::Relaxed);
                });
            }
        },
    );
    let (pooled, scoped) = (pooled / dispatch_reps as f64, scoped / dispatch_reps as f64);

    // Same microbench with 2 threads requested: the seed spawns OS threads
    // per call, the pool hands work to already-running workers.
    set_threads(2);
    let reps2 = if quick { 50usize } else { 200 };
    let (pooled2, scoped2) = time_interleaved(
        rounds,
        || {
            for _ in 0..reps2 {
                par_chunks(black_box(4096), 64, |s, e| {
                    sink.fetch_add((e - s) as u64, Ordering::Relaxed);
                });
            }
        },
        || {
            for _ in 0..reps2 {
                scoped_chunks(black_box(4096), 64, |s, e| {
                    sink.fetch_add((e - s) as u64, Ordering::Relaxed);
                });
            }
        },
    );
    set_threads(0);
    let (pooled2, scoped2) = (pooled2 / reps2 as f64, scoped2 / reps2 as f64);

    // --- SpMM variants: BA power-law graph, sym-normalized, d = 64. ---
    let n = if quick { 20_000usize } else { 100_000 };
    let d = 64usize;
    let a: CsrGraph =
        normalized_adjacency(&generate::barabasi_albert(n, 8, 7), NormKind::Sym, true).unwrap();
    let x = DenseMatrix::gaussian(n, d, 1.0, 8);
    let spec = BlockSpec::auto(a.view(), d);
    let mut y = DenseMatrix::zeros(n, d);
    let mut yb = DenseMatrix::zeros(n, d);

    // Contract check 1: spmm_into (auto tiles) must be bitwise-identical
    // to the same body at a fixed non-auto tile.
    spmm_into(&a, &x, &mut y);
    spmm_blocked_into(&a, &x, &mut yb, BlockSpec { row_block: 32, col_block: 8 });
    assert_eq!(
        y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        yb.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "spmm_into diverged from spmm_blocked_into — bitwise contract broken"
    );

    // Roofline attribution: counters from one observed call.
    let (fl_spmm, by_spmm) = attribute("linalg.spmm", obs_json, || spmm_into(&a, &x, &mut y));
    let spmm_rounds = if quick { 7 } else { 15 };
    let balanced = time_median(spmm_rounds, || spmm_into(black_box(&a), black_box(&x), &mut y));
    let mut kernels: Vec<Kernel> =
        vec![Kernel { name: "spmm_balanced", seconds: balanced, flops: fl_spmm, bytes: by_spmm }];

    // --- spmv on the same operator. ---
    let xv: Vec<f32> = x.data()[..n].to_vec();
    let mut yv = vec![0.0f32; n];
    let (fl_spmv, by_spmv) = attribute("linalg.spmv", obs_json, || spmv(&a, &xv, &mut yv));
    let spmv_t = time_median(rounds, || spmv(black_box(&a), black_box(&xv), &mut yv));
    kernels.push(Kernel { name: "spmv", seconds: spmv_t, flops: fl_spmv, bytes: by_spmv });

    // --- Dense GEMM (the GCN combination step) and its quantized twin. ---
    let w = DenseMatrix::gaussian(d, d, 0.5, 9);
    let mut h = DenseMatrix::zeros(n, d);
    let (fl_mm, by_mm) =
        attribute("linalg.matmul", obs_json, || x.matmul_into(&w, &mut h).unwrap());
    let matmul_t =
        time_median(rounds, || black_box(&x).matmul_into(black_box(&w), &mut h).unwrap());
    kernels.push(Kernel { name: "matmul_f32", seconds: matmul_t, flops: fl_mm, bytes: by_mm });

    // Contract check 2: the quantized GEMM stays inside the head's logit
    // tolerance of the f32 one on the same operands (DESIGN.md §9).
    let xq8 = QuantMatrix::quantize_i8(&x);
    let xq16 = QuantMatrix::quantize_f16(&x);
    let wq8 = QuantMatrix::quantize_i8(&w);
    let wq16 = QuantMatrix::quantize_f16(&w);
    let mut h2 = DenseMatrix::zeros(n, d);
    qmatmul_into(&xq8, &wq8, &mut h2).unwrap();
    let err_i8 = max_scaled_err(&h2, &h);
    qmatmul_into(&xq16, &wq16, &mut h2).unwrap();
    let err_f16 = max_scaled_err(&h2, &h);
    assert!(err_i8 < 0.05, "int8 GEMM error {err_i8} out of tolerance");
    assert!(err_f16 < 0.01, "f16 GEMM error {err_f16} out of tolerance");
    let (qmm_i8, qmm_f16) = time_interleaved(
        rounds,
        || qmatmul_into(black_box(&xq8), black_box(&wq8), &mut h).unwrap(),
        || qmatmul_into(black_box(&xq16), black_box(&wq16), &mut h2).unwrap(),
    );
    let qmm_flops = (2 * n * d * d + n * d) as u64;
    kernels.push(Kernel {
        name: "qmatmul_int8",
        seconds: qmm_i8,
        flops: qmm_flops,
        bytes: qmatmul_bytes(&xq8, &wq8) as u64,
    });
    kernels.push(Kernel {
        name: "qmatmul_f16",
        seconds: qmm_f16,
        flops: qmm_flops,
        bytes: qmatmul_bytes(&xq16, &wq16) as u64,
    });

    // --- Exact weight-gradient fold `gW = Xᵀ·dY` (`reduce::grad_fx`) at
    // training magnitudes: dense `x`, `dy` at gradient scale, so every
    // block takes the i64 fast path (asserted through its counters).
    let dy = DenseMatrix::gaussian(n, d, 1e-3, 10);
    let mut gw = vec![0i128; d * d];
    sgnn_obs::enable();
    sgnn_obs::reset();
    reduce::grad_fx(&x, &dy, &mut gw);
    let fallback = sgnn_obs::report()
        .counters
        .iter()
        .find(|c| c.name == "linalg.grad_fx.fallback_blocks")
        .map_or(0, |c| c.value);
    if !obs_json {
        sgnn_obs::disable();
    }
    assert_eq!(fallback, 0, "grad_fx bench input left the fast-path bound");
    let grad_t = time_median(rounds, || {
        gw.fill(0);
        reduce::grad_fx(black_box(&x), black_box(&dy), &mut gw);
    });
    kernels.push(Kernel {
        name: "grad_fx",
        seconds: grad_t,
        // One multiply and one add per term; both operands read once, the
        // i128 accumulator read and written once.
        flops: (2 * n * d * d) as u64,
        bytes: (4 * 2 * n * d + 32 * d * d) as u64,
    });

    // --- Report. ---
    let dispatch_speedup = scoped2 / pooled2;
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"workload\": \"barabasi_albert({n}, 8, seed 7), sym-normalized, d={d}\",\n"
    ));
    json.push_str(&format!("  \"simd_backend\": \"{}\",\n", simd::active_backend()));
    json.push_str(&format!("  \"simd_f32_lanes\": {},\n", simd::f32_lanes()));
    json.push_str(&format!(
        "  \"block_spec\": {{\"row_block\": {}, \"col_block\": {}}},\n",
        spec.row_block, spec.col_block
    ));
    json.push_str("  \"timings_sec\": {\n");
    json.push_str(&format!("    \"dispatch_pooled_tiny\": {pooled:.9},\n"));
    json.push_str(&format!("    \"dispatch_scoped_tiny\": {scoped:.9},\n"));
    json.push_str(&format!("    \"dispatch_pooled_tiny_t2\": {pooled2:.9},\n"));
    json.push_str(&format!("    \"dispatch_scoped_tiny_t2\": {scoped2:.9}\n"));
    json.push_str("  },\n");
    json.push_str("  \"kernels\": {\n");
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        json.push_str(&format!("    \"{}\": {}{comma}\n", k.name, k.json()));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"qmatmul_max_abs_err_int8\": {err_i8:.6},\n"));
    json.push_str(&format!("  \"qmatmul_max_abs_err_f16\": {err_f16:.6},\n"));
    json.push_str(&format!("  \"dispatch_speedup_vs_scoped\": {dispatch_speedup:.3}\n"));
    json.push_str("}\n");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create bench output dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
    if obs_json {
        println!("{}", serde::json::to_string(&sgnn_obs::report()));
        sgnn_obs::flush();
    }
}
