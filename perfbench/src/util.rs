//! Shared benchmark plumbing: seeded randomness, order statistics, the
//! span recorder behind the traced run, peak RSS, and the result line.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, so the inputs depend
/// on `--seed` alone and never on the library's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs `f` `n` times and returns each wall time in seconds alongside
/// the last result.
pub fn repeat_timed<T>(n: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (secs, last.expect("at least one repetition"))
}

/// In-memory span recorder for the traced run. Spans are recorded from
/// the benchmark's own calls into the library; the library itself runs
/// unmodified.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<(&'static str, u64, u64)>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `[start_ns, end_ns)` under `name`.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).push((name, start_ns, end_ns));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        self.record(name, start, self.now_ns());
        out
    }

    /// Total seconds recorded under `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans.iter().filter(|s| s.0 == name).map(|s| (s.2 - s.1) as f64).sum::<f64>() / 1e9
    }

    /// Share of `[from_ns, to_ns)` covered by no span at all.
    pub fn unattributed_share(&self, from_ns: u64, to_ns: u64) -> f64 {
        let mut iv: Vec<(u64, u64)> = {
            let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
            spans
                .iter()
                .map(|s| (s.1.max(from_ns), s.2.min(to_ns)))
                .filter(|(a, b)| a < b)
                .collect()
        };
        iv.sort_unstable();
        let (mut covered, mut reach) = (0u64, from_ns);
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let wall = to_ns.saturating_sub(from_ns).max(1);
        1.0 - covered as f64 / wall as f64
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One workload's outcome: the checks and the named metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run's outputs were wrong; empty when correct.
    pub problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome { attempted: 0, failed: 0, problems: Vec::new(), metrics: Vec::new() }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Notes a failed output check; the run is reported incorrect.
    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: check failed: {msg}");
        self.problems.push(msg);
    }

    /// Renders the result line with the metrics of `table` (name, unit),
    /// in that order. A metric this workload did not measure is reported
    /// as 0 when `zero_missing` (a layer that did no work here).
    pub fn to_json(&self, table: &[(&str, &str)], zero_missing: bool) -> String {
        let mut out = String::new();
        let correct = self.problems.is_empty();
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.iter().find(|m| m.0 == name) {
                Some(&(_, value, measured_unit)) => {
                    assert_eq!(measured_unit, unit, "unit of {name}");
                    value
                }
                None if zero_missing => 0.0,
                None => panic!("metric {name} was not measured"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}
