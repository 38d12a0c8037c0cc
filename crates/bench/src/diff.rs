//! Bench-regression gate: compares a fresh `BENCH_*.json` against a
//! committed baseline with per-metric-class tolerance bands.
//!
//! Both documents are flattened to dotted-path → number (arrays by
//! index — the bench bins emit deterministic order), then every numeric
//! path in the *baseline* is checked against the fresh value under the
//! band its metric class earns:
//!
//! | class | matched by | band |
//! |---|---|---|
//! | analytic counts | `flops`, `bytes_moved`, `*bytes*` (except rates), `*vectors*`, `*_slots`, `*stale*`, `cache_hits/misses/evictions`, `store_hits`, `plan_*`, `requests`, `shed`, `degraded`, `deadline_miss`, `breaker_*`, `store_repairs`, `edge_touches_mean`, `pushes_mean` | exact (bit-deterministic work/comm/replay models) |
//! | derived ratios | `intensity_*`, `*skew*`, `*_ratio` | relative 1e-6 |
//! | wall time (lower better) | `*seconds*`, `*_secs*`, `*_sec*`, `*_ns`, `*_us` | fresh ≤ base × `time_ratio`, values under `time_floor` always pass |
//! | throughput (higher better) | `gflops`, `*_per_sec`, `*speedup*` | fresh ≥ base ÷ `time_ratio` |
//! | quantization error | `*_err_*`, `*_err`, `*loss*` | fresh ≤ base × 1.5 + 1e-6 |
//! | config echo | `threads`, `quick`, `k`, `lanes`, `row_block`, `col_block`, `epochs` | ignored |
//! | live overload numbers | `*_live*` | ignored (queue-depth-dependent shed/degrade counts and budget, and the shedding-off goodput, which is legitimately 0 when every request misses its budget; replay-exact twins are gated) |
//!
//! A baseline metric missing from the fresh run is always a regression
//! (coverage must not silently shrink); fresh-only metrics are reported
//! as informational. The wide default `time_ratio` (10×) absorbs
//! cross-host noise on CI-sized `--quick` runs while still catching
//! order-of-magnitude regressions; tighten it for same-host trending.

use crate::jsonv::Value;
use std::collections::BTreeMap;

/// Tolerance knobs for one comparison run.
#[derive(Debug, Clone)]
pub struct Tolerance {
    /// Allowed slowdown (and inverse throughput loss) ratio.
    pub time_ratio: f64,
    /// Absolute seconds under which time metrics always pass (too small
    /// to measure reliably on shared CI).
    pub time_floor: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance { time_ratio: 10.0, time_floor: 0.05 }
    }
}

/// One comparison verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Within the band.
    Ok,
    /// Outside the band — fails the gate.
    Regression,
    /// Not gated (config echo, unknown metric, fresh-only metric).
    Info,
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Dotted path into the JSON document.
    pub path: String,
    /// Baseline value (`None` for fresh-only metrics).
    pub base: Option<f64>,
    /// Fresh value (`None` when missing from the fresh run).
    pub fresh: Option<f64>,
    /// Gate outcome.
    pub verdict: Verdict,
    /// Human-readable reason for the verdict.
    pub reason: String,
}

/// Result of one baseline/fresh comparison.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every compared path, sorted.
    pub metrics: Vec<MetricDiff>,
}

impl DiffReport {
    /// All regressions, in path order.
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.metrics.iter().filter(|m| m.verdict == Verdict::Regression).collect()
    }

    /// True when the gate passes.
    pub fn passed(&self) -> bool {
        self.metrics.iter().all(|m| m.verdict != Verdict::Regression)
    }
}

/// Flattens every numeric leaf to `dotted.path → value`. Arrays index
/// numerically (`grid.3.epoch_secs`); strings/bools/nulls are skipped.
pub fn flatten(v: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    flatten_into(v, String::new(), &mut out);
    out
}

fn flatten_into(v: &Value, prefix: String, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Num(n) => {
            out.insert(prefix, *n);
        }
        Value::Obj(fields) => {
            for (k, child) in fields {
                let p = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten_into(child, p, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                let p = if prefix.is_empty() { i.to_string() } else { format!("{prefix}.{i}") };
                flatten_into(child, p, out);
            }
        }
        _ => {}
    }
}

/// Metric classes (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    ExactCount,
    NearExact,
    LowerBetterTime,
    HigherBetterRate,
    ErrorBound,
    Ignored,
    Unknown,
}

fn classify(path: &str) -> Class {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    let ignored = [
        "threads",
        "quick",
        "k",
        "epochs",
        "simd_f32_lanes",
        "row_block",
        "col_block",
        "fault_injected",
        "recovery_retries",
    ];
    if ignored.contains(&leaf) {
        return Class::Ignored;
    }
    // Live overload measurements: which request lands on which ladder
    // rung depends on the queue depth the server observed, so these
    // counts are real but not reproducible. So is the goodput with
    // shedding off, which is legitimately 0 when every request misses
    // its budget. They are exported with a `_live` tag and deliberately
    // left ungated — their replay-exact twins live under
    // `degraded_replay`.
    if leaf.contains("_live") {
        return Class::Unknown;
    }
    if leaf == "flops" || leaf == "bytes_moved" {
        return Class::ExactCount;
    }
    // Before the `bytes` rule: `bytes_saved_ratio` is a derived float,
    // not an analytic count.
    if leaf.ends_with("_ratio") {
        return Class::NearExact;
    }
    // Before the `bytes` rule too: `gbytes_per_sec` is a measured rate,
    // not an analytic count.
    if leaf.contains("gflops") || leaf.ends_with("_per_sec") || leaf.contains("speedup") {
        return Class::HigherBetterRate;
    }
    if leaf.contains("bytes") || leaf.contains("vectors") || leaf.ends_with("_slots") {
        return Class::ExactCount;
    }
    // Stale-hit counts follow the deterministic refresh schedule, so
    // they are exactly reproducible.
    if leaf.contains("stale") {
        return Class::ExactCount;
    }
    // Serving replay counters: cache/store hits, misses, evictions and
    // planner decision counts are pure functions of the request trace
    // (DESIGN.md §12), so the gate holds them exact. (Deliberately not
    // a bare `*hits` rule: `prefetch_hits` is timing-dependent.)
    if leaf == "cache_hits"
        || leaf == "cache_misses"
        || leaf == "cache_evictions"
        || leaf == "store_hits"
        || leaf.starts_with("plan_")
        || leaf == "requests"
    {
        return Class::ExactCount;
    }
    // Overload/degradation replay counters and chaos repair counts are
    // pure functions of the recorded trace and the fault plan
    // (DESIGN.md §13): shed/degrade decisions, deadline-miss feedback,
    // breaker transitions, and CRC-triggered store rebuilds all replay
    // exactly, so the gate holds them to the bit.
    if leaf == "shed"
        || leaf == "degraded"
        || leaf == "deadline_miss"
        || leaf.starts_with("breaker")
        || leaf == "store_repairs"
    {
        return Class::ExactCount;
    }
    // Push-sweep work per query: a pure function of the seeded graph,
    // sources and tolerance, so a changed push loop that does different
    // work fails the gate even when it is faster.
    if leaf == "edge_touches_mean" || leaf == "pushes_mean" {
        return Class::ExactCount;
    }
    // Training losses (and exact-vs-compressed loss deltas) are
    // bit-deterministic on one host but may drift across toolchains;
    // gate them like quantization errors.
    if leaf.contains("loss") {
        return Class::ErrorBound;
    }
    if leaf.starts_with("intensity") || leaf.contains("skew") {
        return Class::NearExact;
    }
    if leaf.contains("err") {
        return Class::ErrorBound;
    }
    if leaf.contains("seconds") || leaf.contains("secs") || leaf.contains("sec") {
        return Class::LowerBetterTime;
    }
    if leaf.ends_with("_ns") || leaf.ends_with("_us") {
        return Class::LowerBetterTime;
    }
    Class::Unknown
}

fn check(class: Class, base: f64, fresh: f64, tol: &Tolerance) -> (Verdict, String) {
    match class {
        Class::Ignored | Class::Unknown => (Verdict::Info, "not gated".into()),
        Class::ExactCount => {
            if base == fresh {
                (Verdict::Ok, "exact match".into())
            } else {
                (Verdict::Regression, format!("analytic count changed: {base} -> {fresh}"))
            }
        }
        Class::NearExact => {
            let rel = (fresh - base).abs() / base.abs().max(1e-12);
            if rel <= 1e-6 {
                (Verdict::Ok, "within 1e-6 relative".into())
            } else {
                (Verdict::Regression, format!("derived ratio moved {rel:.2e}: {base} -> {fresh}"))
            }
        }
        Class::LowerBetterTime => {
            if fresh <= tol.time_floor || fresh <= base * tol.time_ratio {
                (Verdict::Ok, format!("within {}x slowdown band", tol.time_ratio))
            } else {
                (
                    Verdict::Regression,
                    format!(
                        "slowdown {:.2}x exceeds {}x: {base} -> {fresh}",
                        fresh / base.max(1e-12),
                        tol.time_ratio
                    ),
                )
            }
        }
        Class::HigherBetterRate => {
            if base <= 0.0 || fresh >= base / tol.time_ratio {
                (Verdict::Ok, format!("within {}x throughput band", tol.time_ratio))
            } else {
                (
                    Verdict::Regression,
                    format!(
                        "throughput fell {:.2}x beyond {}x: {base} -> {fresh}",
                        base / fresh.max(1e-12),
                        tol.time_ratio
                    ),
                )
            }
        }
        Class::ErrorBound => {
            if fresh <= base * 1.5 + 1e-6 {
                (Verdict::Ok, "within 1.5x error band".into())
            } else {
                (Verdict::Regression, format!("error bound grew: {base} -> {fresh}"))
            }
        }
    }
}

/// Compares `fresh` against `base` under `tol`.
pub fn compare(base: &Value, fresh: &Value, tol: &Tolerance) -> DiffReport {
    let base_flat = flatten(base);
    let fresh_flat = flatten(fresh);
    let mut metrics = Vec::new();
    for (path, &b) in &base_flat {
        match fresh_flat.get(path) {
            None => {
                let verdict = if classify(path) == Class::Ignored {
                    Verdict::Info
                } else {
                    Verdict::Regression
                };
                metrics.push(MetricDiff {
                    path: path.clone(),
                    base: Some(b),
                    fresh: None,
                    verdict,
                    reason: "metric missing from fresh run".into(),
                });
            }
            Some(&f) => {
                let (verdict, reason) = check(classify(path), b, f, tol);
                metrics.push(MetricDiff {
                    path: path.clone(),
                    base: Some(b),
                    fresh: Some(f),
                    verdict,
                    reason,
                });
            }
        }
    }
    for (path, &f) in &fresh_flat {
        if !base_flat.contains_key(path) {
            metrics.push(MetricDiff {
                path: path.clone(),
                base: None,
                fresh: Some(f),
                verdict: Verdict::Info,
                reason: "new metric (not in baseline)".into(),
            });
        }
    }
    metrics.sort_by(|a, b| a.path.cmp(&b.path));
    DiffReport { metrics }
}

/// Loads and parses both files, then compares. `Err` is an I/O or parse
/// problem (exit code 2 territory), distinct from a failing gate.
pub fn compare_files(
    base_path: &str,
    fresh_path: &str,
    tol: &Tolerance,
) -> Result<DiffReport, String> {
    let base_text =
        std::fs::read_to_string(base_path).map_err(|e| format!("read {base_path}: {e}"))?;
    let fresh_text =
        std::fs::read_to_string(fresh_path).map_err(|e| format!("read {fresh_path}: {e}"))?;
    let base = crate::jsonv::parse(&base_text).map_err(|e| format!("parse {base_path}: {e}"))?;
    let fresh = crate::jsonv::parse(&fresh_text).map_err(|e| format!("parse {fresh_path}: {e}"))?;
    Ok(compare(&base, &fresh, tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv::parse;

    const BASE: &str = r#"{
        "threads": 4,
        "quick": true,
        "kernels": {
            "spmm_balanced": {"seconds": 0.1, "flops": 1000, "bytes_moved": 4000,
                              "intensity_flops_per_byte": 0.25, "gflops": 2.0}
        },
        "qmatmul_max_abs_err_int8": 0.01,
        "spmm_speedup_vs_rowcount": 1.4,
        "grid": [{"k": 4, "epoch_secs": 0.2, "halo_bytes_per_epoch": 512}]
    }"#;

    fn tol() -> Tolerance {
        Tolerance::default()
    }

    #[test]
    fn self_comparison_passes() {
        let v = parse(BASE).unwrap();
        let r = compare(&v, &v, &tol());
        assert!(r.passed(), "regressions: {:?}", r.regressions());
        // Gated metrics were actually checked, not all Info.
        assert!(r.metrics.iter().any(|m| m.path.ends_with("flops") && m.verdict == Verdict::Ok));
    }

    #[test]
    fn perturbed_time_fails_only_past_the_band() {
        let v = parse(BASE).unwrap();
        // 5x slower: inside the 10x band.
        let ok = parse(&BASE.replace("\"seconds\": 0.1", "\"seconds\": 0.5")).unwrap();
        assert!(compare(&v, &ok, &tol()).passed());
        // 100x slower: regression.
        let bad = parse(&BASE.replace("\"seconds\": 0.1", "\"seconds\": 10.0")).unwrap();
        let r = compare(&v, &bad, &tol());
        assert!(!r.passed());
        assert_eq!(r.regressions()[0].path, "kernels.spmm_balanced.seconds");
    }

    #[test]
    fn tiny_times_pass_regardless_of_ratio() {
        let base = parse(r#"{"timings_sec": {"dispatch": 0.00001}}"#).unwrap();
        let fresh = parse(r#"{"timings_sec": {"dispatch": 0.01}}"#).unwrap();
        // 1000x ratio but under the 0.05 s floor: noise, not regression.
        assert!(compare(&base, &fresh, &tol()).passed());
    }

    #[test]
    fn analytic_counts_must_match_exactly() {
        let v = parse(BASE).unwrap();
        let bad = parse(&BASE.replace("\"flops\": 1000", "\"flops\": 1001")).unwrap();
        let r = compare(&v, &bad, &tol());
        assert!(!r.passed());
        assert!(r.regressions()[0].path.ends_with(".flops"));
        let bad_halo = parse(&BASE.replace("512", "640")).unwrap();
        assert!(!compare(&v, &bad_halo, &tol()).passed(), "halo bytes are analytic");
    }

    #[test]
    fn missing_metric_is_a_regression_and_new_metric_is_not() {
        let v = parse(BASE).unwrap();
        let missing = parse(&BASE.replace(", \"gflops\": 2.0", "")).unwrap();
        let r = compare(&v, &missing, &tol());
        assert!(!r.passed());
        assert!(r.regressions()[0].reason.contains("missing"));
        let extra = parse(&BASE.replace("\"quick\": true", "\"quick\": true, \"new_metric\": 1.0"))
            .unwrap();
        let r = compare(&v, &extra, &tol());
        assert!(r.passed());
        assert!(r.metrics.iter().any(|m| m.path == "new_metric" && m.verdict == Verdict::Info));
    }

    #[test]
    fn throughput_and_error_bands() {
        let v = parse(BASE).unwrap();
        let slow = parse(&BASE.replace("\"gflops\": 2.0", "\"gflops\": 0.1")).unwrap();
        assert!(!compare(&v, &slow, &tol()).passed(), "20x throughput loss fails");
        let erry = parse(&BASE.replace("0.01", "0.04")).unwrap();
        assert!(!compare(&v, &erry, &tol()).passed(), "4x quant error fails");
        let noisy_err = parse(&BASE.replace("0.01", "0.012")).unwrap();
        assert!(compare(&v, &noisy_err, &tol()).passed(), "1.2x quant error passes");
    }

    #[test]
    fn config_echo_is_not_gated() {
        let v = parse(BASE).unwrap();
        let other = parse(&BASE.replace("\"threads\": 4", "\"threads\": 8")).unwrap();
        assert!(compare(&v, &other, &tol()).passed());
    }

    #[test]
    fn compressed_frontier_bands() {
        let frontier = r#"{"compressed_frontier": [
            {"bytes_saved_ratio": 3.5555, "stale_hits": 120,
             "final_loss": 0.61, "loss_delta": 0.00002, "overlap_ns": 1500}
        ]}"#;
        let v = parse(frontier).unwrap();
        assert!(compare(&v, &v, &tol()).passed());
        // Saved-bytes ratios are derived floats: 1e-6 relative, not exact.
        let drift = parse(&frontier.replace("3.5555", "3.6")).unwrap();
        let r = compare(&v, &drift, &tol());
        assert_eq!(r.regressions()[0].path, "compressed_frontier.0.bytes_saved_ratio");
        // Stale hits follow the deterministic refresh schedule: exact.
        let stale = parse(&frontier.replace("120", "121")).unwrap();
        assert!(!compare(&v, &stale, &tol()).passed(), "stale hits are schedule-exact");
        // Loss deltas gate like errors: 1.5x band, not exact bits.
        let noisy = parse(&frontier.replace("0.00002", "0.000025")).unwrap();
        assert!(compare(&v, &noisy, &tol()).passed(), "1.25x loss delta passes");
        let diverged = parse(&frontier.replace("0.00002", "0.01")).unwrap();
        assert!(!compare(&v, &diverged, &tol()).passed(), "500x loss delta fails");
    }

    #[test]
    fn serving_bands() {
        let serving = r#"{"replay": {"cache_hits": 40, "cache_misses": 24,
             "cache_evictions": 8, "store_hits": 100, "plan_full": 20,
             "plan_sampled": 4, "plan_escalated": 2, "requests": 164},
            "degraded_replay": {"shed": 120, "degraded": 55, "plan_stale": 9,
             "deadline_miss": 30, "breaker_trips": 3, "breaker_state": 1},
            "open_loop": {"p50_ns": 80000, "p99_ns": 900000, "p999_ns": 2000000,
             "queries_per_sec": 52000.0, "prefetch_hits": 7},
            "overload": {"shed_live": 400, "degraded_live": 90,
             "budget_live_ns": 2000000, "goodput_on_per_sec": 30000.0},
            "chaos": {"store_repairs": 2, "fault_injected": 4},
            "push_sweep": [{"n": 20000, "push_us": 60.5, "edge_touches_mean": 20512.250,
             "pushes_mean": 1130.125}]}"#;
        let v = parse(serving).unwrap();
        assert!(compare(&v, &v, &tol()).passed());
        // Replay counters are trace-exact: any drift fails.
        for (from, to) in [
            ("\"cache_hits\": 40", "\"cache_hits\": 41"),
            ("\"plan_full\": 20", "\"plan_full\": 19"),
            ("\"shed\": 120", "\"shed\": 121"),
            ("\"degraded\": 55", "\"degraded\": 54"),
            ("\"deadline_miss\": 30", "\"deadline_miss\": 31"),
            ("\"breaker_trips\": 3", "\"breaker_trips\": 4"),
            ("\"store_repairs\": 2", "\"store_repairs\": 1"),
            ("20512.250", "20512.375"),
            ("1130.125", "1130.250"),
        ] {
            let bad = parse(&serving.replace(from, to)).unwrap();
            assert!(!compare(&v, &bad, &tol()).passed(), "{from} must gate exactly");
        }
        // Live overload counts depend on observed queue depth: ungated.
        for (from, to) in [
            ("\"shed_live\": 400", "\"shed_live\": 250"),
            ("\"degraded_live\": 90", "\"degraded_live\": 310"),
            ("\"budget_live_ns\": 2000000", "\"budget_live_ns\": 19000000"),
            ("\"fault_injected\": 4", "\"fault_injected\": 5"),
        ] {
            let wobble = parse(&serving.replace(from, to)).unwrap();
            assert!(compare(&v, &wobble, &tol()).passed(), "{from} must stay ungated");
        }
        // Latency quantiles get the 10x time band.
        let slow_ok = parse(&serving.replace("900000", "4000000")).unwrap();
        assert!(compare(&v, &slow_ok, &tol()).passed(), "4.4x p99 within band");
        let slow_bad = parse(&serving.replace("900000", "20000000")).unwrap();
        assert!(!compare(&v, &slow_bad, &tol()).passed(), "22x p99 regresses");
        let slow_push = parse(&serving.replace("60.5", "700.0")).unwrap();
        assert!(!compare(&v, &slow_push, &tol()).passed(), "11x per-push time regresses");
        // Throughput gates on the low side.
        let starved = parse(&serving.replace("52000.0", "1000.0")).unwrap();
        assert!(!compare(&v, &starved, &tol()).passed(), "52x qps drop regresses");
        // Timing-dependent prefetch hits stay ungated.
        let jitter =
            parse(&serving.replace("\"prefetch_hits\": 7", "\"prefetch_hits\": 9")).unwrap();
        assert!(compare(&v, &jitter, &tol()).passed(), "prefetch_hits is not trace-exact");
    }

    /// Every leaf of the three committed baselines, with the class it is
    /// meant to have. A leaf added to a baseline must be added here, so
    /// a new metric cannot land in a class by accident of its name.
    #[test]
    fn committed_baseline_leaves_have_their_intended_class() {
        use Class::*;
        let intended: &[(&str, Class)] = &[
            // Roofline rows: analytic work exact, measured time and rates banded.
            ("flops", ExactCount),
            ("bytes_moved", ExactCount),
            ("intensity_flops_per_byte", NearExact),
            ("seconds", LowerBetterTime),
            ("gflops", HigherBetterRate),
            ("gbytes_per_sec", HigherBetterRate),
            ("dispatch_speedup_vs_scoped", HigherBetterRate),
            ("qmatmul_max_abs_err_int8", ErrorBound),
            ("qmatmul_max_abs_err_f16", ErrorBound),
            // Tiny dispatch timings under `timings_sec`: the leaf carries
            // no unit, and the values sit below the time floor anyway.
            ("dispatch_pooled_tiny", Unknown),
            ("dispatch_scoped_tiny", Unknown),
            ("dispatch_pooled_tiny_t2", Unknown),
            ("dispatch_scoped_tiny_t2", Unknown),
            // Config echoes.
            ("threads", Ignored),
            ("simd_f32_lanes", Ignored),
            ("row_block", Ignored),
            ("col_block", Ignored),
            ("k", Ignored),
            ("fault_injected", Ignored),
            // Host and workload echoes: ungated, but must stay present.
            ("threads_hardware", Unknown),
            ("n", Unknown),
            ("offered_requests", Unknown),
            // Serving replay and overload replay: trace-exact.
            ("requests", ExactCount),
            ("cache_hits", ExactCount),
            ("cache_misses", ExactCount),
            ("cache_evictions", ExactCount),
            ("store_hits", ExactCount),
            ("plan_cached", ExactCount),
            ("plan_full", ExactCount),
            ("plan_sampled", ExactCount),
            ("plan_stale", ExactCount),
            ("shed", ExactCount),
            ("degraded", ExactCount),
            ("deadline_miss", ExactCount),
            ("breaker_trips", ExactCount),
            ("breaker_state", ExactCount),
            ("store_repairs", ExactCount),
            ("edge_touches_mean", ExactCount),
            ("pushes_mean", ExactCount),
            // Live, timing- or queue-depth-dependent serving numbers.
            ("shed_live", Unknown),
            ("degraded_live", Unknown),
            ("budget_live_ns", Unknown),
            ("goodput_off_live_per_sec", Unknown),
            ("open_store_hits", Unknown),
            ("mean_batch", Unknown),
            // Serving times and rates.
            ("precompute_secs", LowerBetterTime),
            ("replay_secs", LowerBetterTime),
            ("open_secs", LowerBetterTime),
            ("degraded_secs", LowerBetterTime),
            ("overload_on_secs", LowerBetterTime),
            ("overload_off_secs", LowerBetterTime),
            ("chaos_secs", LowerBetterTime),
            ("push_us", LowerBetterTime),
            ("p50_ns", LowerBetterTime),
            ("p99_ns", LowerBetterTime),
            ("p999_ns", LowerBetterTime),
            ("p99_on_ns", LowerBetterTime),
            ("p99_off_ns", LowerBetterTime),
            ("queries_per_sec", HigherBetterRate),
            ("saturation_per_sec", HigherBetterRate),
            ("offered_per_sec", HigherBetterRate),
            ("goodput_on_per_sec", HigherBetterRate),
            // Sharding: communication volumes are analytic.
            ("halo_bytes_per_epoch", ExactCount),
            ("halo_bytes_saved_per_epoch", ExactCount),
            ("allreduce_bytes_per_epoch", ExactCount),
            ("analytic_bytes_per_epoch", ExactCount),
            ("eval_halo_bytes", ExactCount),
            ("halo_vectors_per_exchange", ExactCount),
            ("analytic_vectors_per_layer", ExactCount),
            ("replication_slots", ExactCount),
            ("stale_hits", ExactCount),
            ("nnz_skew", NearExact),
            ("bytes_saved_ratio", NearExact),
            ("edge_cut", Unknown),
            ("epoch_secs", LowerBetterTime),
            ("single_process_epoch_secs", LowerBetterTime),
            ("overlap_ns", LowerBetterTime),
            ("final_loss", ErrorBound),
            ("loss_delta", ErrorBound),
        ];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");
        let mut seen = 0;
        for file in ["BENCH_kernels.json", "BENCH_serve.json", "BENCH_sharding.json"] {
            let text = std::fs::read_to_string(format!("{dir}/{file}")).expect("read baseline");
            for path in flatten(&parse(&text).expect("parse baseline")).keys() {
                let leaf = path.rsplit('.').next().unwrap_or(path);
                let want = intended
                    .iter()
                    .find(|(name, _)| *name == leaf)
                    .unwrap_or_else(|| panic!("{file}: leaf `{path}` has no intended class"))
                    .1;
                assert_eq!(classify(path), want, "{file}: {path}");
                seen += 1;
            }
        }
        assert!(seen > 100, "baselines were read ({seen} leaves)");
    }

    #[test]
    fn speedup_class_gates_lower_values() {
        let v = parse(BASE).unwrap();
        let bad = parse(
            &BASE
                .replace("\"spmm_speedup_vs_rowcount\": 1.4", "\"spmm_speedup_vs_rowcount\": 0.05"),
        )
        .unwrap();
        assert!(!compare(&v, &bad, &tol()).passed());
    }
}
