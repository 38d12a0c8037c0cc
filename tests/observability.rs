//! Observability must be *observation only*: enabling span aggregation or
//! the JSONL trace sink must not change a single bit of numeric output,
//! and the trace it writes must be well-formed and contain the span names
//! the conventions in DESIGN.md §5 promise.

use proptest::prelude::*;
use sgnn::graph::generate;
use sgnn::graph::normalize::{normalized_adjacency, NormKind};
use sgnn::graph::spmm::spmm;
use sgnn::linalg::DenseMatrix;
use std::sync::Mutex;

/// Serializes tests that toggle the process-wide observability state (the
/// test harness runs #[test] functions concurrently).
static OBS: Mutex<()> = Mutex::new(());

fn trace_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sgnn_obs_test_{}.jsonl", std::process::id()))
}

/// Routes this test binary's trace sink to a temp file. The sink binds
/// its path on first event, so every tracing test calls this first (the
/// call is a no-op once the sink is open — all tests share the path).
fn route_trace_to_temp() {
    sgnn::obs::trace::set_trace_path(trace_path().to_str().unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pooled spmm output is bitwise identical with tracing on and off:
    /// instrumentation sits outside the arithmetic.
    #[test]
    fn tracing_does_not_change_spmm_output(
        n in 500usize..3000,
        m in 1usize..5,
        d in 1usize..9,
        seed in 0u64..1000,
    ) {
        let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
        route_trace_to_temp();
        let g = generate::barabasi_albert(n, m, seed);
        let a = normalized_adjacency(&g, NormKind::Sym, true).unwrap();
        let x = DenseMatrix::gaussian(n, d, 1.0, seed + 1);
        sgnn::obs::disable();
        let y_off = spmm(&a, &x);
        sgnn::obs::enable_trace();
        let y_trace = spmm(&a, &x);
        sgnn::obs::disable();
        prop_assert_eq!(y_off.data(), y_trace.data(), "tracing changed spmm output bits");
    }
}

/// A traced mini training run writes parseable JSONL whose events include
/// the `trainer.epoch` and `linalg.spmm` spans, and the aggregated report
/// sees the same names.
#[test]
fn trace_file_is_wellformed_jsonl_with_expected_spans() {
    let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    route_trace_to_temp();
    sgnn::obs::enable_trace();
    sgnn::obs::reset();
    let ds = sgnn::data::sbm_dataset(400, 3, 8.0, 0.85, 8, 0.6, 0, 0.5, 0.25, 5);
    let cfg = sgnn::core::trainer::TrainConfig { epochs: 3, hidden: vec![8], ..Default::default() };
    let (_, report) = sgnn::core::trainer::train_full_gcn(&ds, &cfg).unwrap();
    assert!(report.phases.total_secs() > 0.0);
    sgnn::obs::disable(); // flushes the sink
    let text = std::fs::read_to_string(trace_path()).expect("trace file exists");
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(
            line.starts_with("{\"ph\":\"") && line.ends_with('}'),
            "malformed trace line: {line}"
        );
    }
    for name in ["\"name\":\"trainer.epoch\"", "\"name\":\"linalg.spmm\""] {
        assert!(text.contains(name), "trace missing {name}");
    }
    let obs = sgnn::obs::report();
    let names: Vec<&str> = obs.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"trainer.epoch"), "aggregated spans: {names:?}");
}

/// The final val/test evaluation runs after the last epoch under one
/// root `trainer.eval` span: a traced sampled run has exactly one, with
/// nonzero time, while the early-stopping evals stay inside
/// `trainer.epoch`.
#[test]
fn final_eval_is_one_root_trainer_eval_span() {
    let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    route_trace_to_temp();
    sgnn::obs::enable_trace();
    sgnn::obs::reset();
    let ds = sgnn::data::sbm_dataset(400, 3, 8.0, 0.85, 8, 0.6, 0, 0.5, 0.25, 5);
    let cfg = sgnn::core::trainer::TrainConfig {
        epochs: 2,
        hidden: vec![8],
        patience: Some(100),
        ..Default::default()
    };
    let sampler = sgnn::core::trainer::SamplerKind::NodeWise(vec![4, 4]);
    sgnn::core::trainer::train_sampled(&ds, &sampler, &cfg).unwrap();
    let obs = sgnn::obs::report();
    sgnn::obs::disable();
    let roots: Vec<_> = obs.spans.iter().filter(|s| s.name == "trainer.eval").collect();
    assert_eq!(roots.len(), 1, "root spans: {:?}", obs.spans);
    assert_eq!(roots[0].count, 1, "final eval closes once");
    assert!(roots[0].total_ns > 0);
    let epoch = obs.spans.iter().find(|s| s.name == "trainer.epoch").expect("epoch span");
    let in_loop = epoch.children.iter().find(|s| s.name == "trainer.eval").expect("in-loop eval");
    assert_eq!(in_loop.count, 2, "one early-stopping eval per epoch");
}

/// The ObsReport snapshot after an instrumented run carries the kernel
/// counters the kernels promise (spmm calls/nnz), serialized with the
/// documented stable field order.
#[test]
fn obs_report_counts_kernel_work() {
    let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    route_trace_to_temp();
    sgnn::obs::enable();
    sgnn::obs::reset();
    let g = generate::barabasi_albert(2_000, 4, 9);
    let a = normalized_adjacency(&g, NormKind::Sym, true).unwrap();
    let x = DenseMatrix::gaussian(2_000, 8, 1.0, 10);
    let _ = spmm(&a, &x);
    let obs = sgnn::obs::report();
    sgnn::obs::disable();
    let calls = obs.counters.iter().find(|c| c.name == "linalg.spmm.calls").expect("spmm counter");
    assert_eq!(calls.value, 1);
    let nnz = obs.counters.iter().find(|c| c.name == "linalg.spmm.nnz").expect("nnz counter");
    assert_eq!(nnz.value, a.num_edges() as u64);
    let json = serde::json::to_string(&obs);
    assert!(json.starts_with("{\"enabled\":true,"));
}

// ---------------------------------------------------------------------------
// Histograms, exporters, and the export-mode bitwise contract (DESIGN.md §10).
// ---------------------------------------------------------------------------

static HIST: sgnn::obs::Histogram = sgnn::obs::Histogram::new("test.obs_it.latency_ns");
static CTR: sgnn::obs::Counter = sgnn::obs::Counter::new("test.obs_it.events");
static GAUGE: sgnn::obs::Gauge = sgnn::obs::Gauge::new("test.obs_it.level");

/// `layer.op.metric` → `sgnn_layer_op_metric`, mirroring the exporter's
/// documented naming rule so the round-trip test stays self-contained.
fn prom_family(name: &str) -> String {
    let mut out = String::from("sgnn_");
    out.extend(name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Histogram quantiles agree with exact sorted-sample quantiles to
    /// within the documented bucket bound: the estimate never
    /// undershoots, and overshoots by at most 1/16 relative (values < 16
    /// are exact).
    #[test]
    fn histogram_quantiles_match_exact_sample_quantiles(
        samples in proptest::collection::vec(0u64..2_000_000_000, 1..600),
    ) {
        let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
        route_trace_to_temp();
        sgnn::obs::enable();
        sgnn::obs::reset();
        for &v in &samples {
            HIST.record(v);
        }
        let snap = HIST.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5f64, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = snap.quantile(q);
            prop_assert!(est >= exact, "q{q}: estimate {est} undershoots exact {exact}");
            let bound = exact + exact / 16 + 1;
            prop_assert!(est <= bound, "q{q}: estimate {est} beyond bound {bound} (exact {exact})");
        }
        sgnn::obs::disable();
    }

    /// Every registered metric name round-trips into the Prometheus
    /// exposition as exactly one `# TYPE` family, whatever subset of
    /// metrics saw traffic. Naming is a compatibility surface — a
    /// duplicate or missing family is a scrape-breaking bug.
    #[test]
    fn prom_exposition_has_every_registered_metric_exactly_once(
        events in 0u64..50,
        level in 0u64..1000,
        lat in proptest::collection::vec(1u64..100_000, 0..32),
    ) {
        let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
        route_trace_to_temp();
        sgnn::obs::enable();
        sgnn::obs::reset();
        CTR.add(events);
        GAUGE.set(level);
        for &v in &lat {
            HIST.record(v);
        }
        let report = sgnn::obs::report();
        let text = sgnn::obs::prometheus_text();
        let names = report
            .counters
            .iter()
            .map(|c| c.name.as_str())
            .chain(report.gauges.iter().map(|g| g.name.as_str()))
            .chain(report.histograms.iter().map(|h| h.name.as_str()));
        for name in names {
            let family = format!("# TYPE {} ", prom_family(name));
            let hits = text.matches(&family).count();
            prop_assert_eq!(hits, 1, "metric {} has {} TYPE families", name, hits);
        }
        sgnn::obs::disable();
    }
}

/// The disabled path of every instrument — span, counter, gauge,
/// histogram — is one relaxed load plus a predicted branch. Budget is
/// 2 ns/call; the assert allows 10x for shared-CI noise. CI also runs
/// this in a release build.
#[test]
fn disabled_instruments_cost_nanoseconds() {
    let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    sgnn::obs::disable();
    const REPS: u64 = 2_000_000;
    let per_call = |f: &mut dyn FnMut()| {
        let t = std::time::Instant::now();
        for _ in 0..REPS {
            f();
        }
        t.elapsed().as_nanos() as f64 / REPS as f64
    };
    let span = per_call(&mut || drop(std::hint::black_box(sgnn::obs::SpanGuard::enter("x.y"))));
    let ctr = per_call(&mut || CTR.add(std::hint::black_box(1)));
    let hist = per_call(&mut || HIST.record(std::hint::black_box(42)));
    for (what, ns) in [("span", span), ("counter", ctr), ("histogram", hist)] {
        assert!(ns < 20.0, "disabled {what} record costs {ns:.1} ns/call (budget 2 ns, 10x slack)");
    }
}

/// Arming the Prometheus exporter must not change one bit of training
/// output: same dataset, same config, same seeds — identical final loss,
/// accuracies, and weight bits, with the exposition written as a side
/// effect only.
#[test]
fn prom_export_changes_no_trained_bits() {
    let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    route_trace_to_temp();
    let prom_path = std::env::temp_dir().join(format!("sgnn_obs_test_{}.prom", std::process::id()));
    std::env::set_var("SGNN_OBS_FILE", &prom_path);
    let ds = sgnn::data::sbm_dataset(300, 3, 8.0, 0.85, 8, 0.6, 1, 0.5, 0.25, 5);
    let cfg = sgnn::core::trainer::TrainConfig { epochs: 4, hidden: vec![8], ..Default::default() };
    let weight_bits = |model: &mut sgnn::core::models::gcn::Gcn| {
        let mut bits: Vec<u32> = Vec::new();
        model.visit_params_mut(&mut |m| bits.extend(m.data().iter().map(|w| w.to_bits())));
        bits
    };

    sgnn::obs::disable();
    let (mut model_off, report_off) = sgnn::core::trainer::train_full_gcn(&ds, &cfg).unwrap();

    sgnn::obs::enable_export_prom();
    sgnn::obs::reset();
    let (mut model_prom, report_prom) = sgnn::core::trainer::train_full_gcn(&ds, &cfg).unwrap();
    sgnn::obs::disable();
    std::env::remove_var("SGNN_OBS_FILE");

    assert_eq!(
        report_off.final_loss.to_bits(),
        report_prom.final_loss.to_bits(),
        "prom export changed the final loss"
    );
    assert_eq!(report_off.test_acc.to_bits(), report_prom.test_acc.to_bits());
    assert_eq!(report_off.val_acc.to_bits(), report_prom.val_acc.to_bits());
    assert_eq!(
        weight_bits(&mut model_off),
        weight_bits(&mut model_prom),
        "prom export changed trained weight bits"
    );
    let text = std::fs::read_to_string(&prom_path).expect("trainer exit wrote the exposition");
    assert!(text.contains("# TYPE sgnn_linalg_spmm_ns summary"), "missing spmm histogram family");
    assert!(text.contains("sgnn_linalg_spmm_ns_count"), "missing summary count row");
    let _ = std::fs::remove_file(&prom_path);
}

/// Exporters on a freshly reset registry produce valid output: the
/// exposition contains only well-formed families (no partially emitted
/// rows for zeroed metrics) and the JSON snapshot keeps its stable
/// report-then-series field order.
#[test]
fn empty_report_exports_are_wellformed() {
    let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    route_trace_to_temp();
    sgnn::obs::enable();
    sgnn::obs::reset();
    let text = sgnn::obs::prometheus_text();
    for line in text.lines() {
        assert!(
            line.starts_with("# TYPE sgnn_") || line.starts_with("sgnn_"),
            "malformed exposition line on empty registry: {line}"
        );
    }
    let json = sgnn::obs::json_snapshot();
    assert!(
        json.starts_with("{\"report\":{\"enabled\":true,"),
        "json: {}",
        &json[..60.min(json.len())]
    );
    assert!(json.ends_with('}'));
    let report_pos = json.find("\"report\":").unwrap();
    let series_pos = json.find("\"series\":").unwrap();
    assert!(report_pos < series_pos, "field order is a compatibility surface");
    sgnn::obs::disable();
}

/// Many threads emitting spans into the single shared JSONL sink
/// concurrently must not interleave bytes mid-line: every line in the
/// file stays a complete, well-formed event.
#[test]
fn concurrent_trace_writers_keep_jsonl_wellformed() {
    let _g = OBS.lock().unwrap_or_else(|e| e.into_inner());
    route_trace_to_temp();
    sgnn::obs::enable_trace();
    sgnn::obs::reset();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..50 {
                    let _s = sgnn::obs::SpanGuard::enter("test.concurrent.span");
                    std::hint::black_box(());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    sgnn::obs::disable(); // flush
    let text = std::fs::read_to_string(trace_path()).expect("trace file exists");
    let mut ours = 0;
    for line in text.lines() {
        assert!(
            line.starts_with("{\"ph\":\"") && line.ends_with('}'),
            "interleaved/malformed trace line: {line}"
        );
        if line.contains("\"name\":\"test.concurrent.span\"") {
            ours += 1;
        }
    }
    assert!(ours >= 400, "expected 8x50 span events, saw {ours}");
}
