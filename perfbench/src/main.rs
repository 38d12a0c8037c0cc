//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md`.

mod serve;
mod train;
mod util;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("nodes_per_s", "1/s"),
    ("mean_ms", "ms"),
    ("p90_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("graph.spmm_s", "s"),
    ("partition.multilevel_s", "s"),
    ("partition.edge_cut", "ratio"),
    ("sample.blocks_s", "s"),
    ("sample.src_rows", "count"),
    ("sample.edges", "count"),
    ("linalg.gather_s", "s"),
    ("linalg.gather_bytes", "B"),
    ("linalg.grad_fx_s", "s"),
    ("linalg.matmul_s", "s"),
    ("nn.forward_s", "s"),
    ("nn.loss_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.step_s", "s"),
    ("core.pipeline_stall_s", "s"),
    ("core.ledger_peak_mb", "MB"),
    ("train.test_acc", "ratio"),
    ("shard.plan_build_s", "s"),
    ("shard.halo_bytes_per_epoch", "B"),
    ("shard.allreduce_bytes_per_epoch", "B"),
    ("shard.nnz_skew", "ratio"),
    ("shard.overhead_s", "s"),
    ("ckpt.write_s", "s"),
    ("ckpt.bytes", "B"),
    ("serve.precompute_s", "s"),
    ("serve.request_ms_p50", "ms"),
    ("serve.request_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.batch_size", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.store_hit_base", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_hit_base", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.head_us", "us"),
    ("serve.push_calls", "count"),
    ("serve.push_us_p50", "us"),
    ("serve.push_us_p99", "us"),
    ("prop.push_edge_touches", "count"),
    ("prop.push_nnz", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload <serve-zipf|train-sampled|train-sharded> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["serve-zipf", "train-sampled", "train-sharded"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // The worker pool is pinned to at most two threads and never more
    // than the host has, so larger hosts measure the same configuration.
    // Serving leaves one of them to its load generator.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serving = args.workload == "serve-zipf";
    let pool = if serving { (hw - 1).clamp(1, 2) } else { hw.min(2) };
    sgnn_linalg::par::set_threads(pool);
    eprintln!(
        "perfbench: {} seed {}, {hw} hardware threads, pool of {pool}",
        args.workload, args.seed
    );
    let outcome = match args.workload.as_str() {
        "serve-zipf" => serve::run(args.seed, args.seconds, args.trace),
        "train-sampled" => train::run_sampled(args.seed, args.seconds, args.trace),
        "train-sharded" => train::run_sharded(args.seed, args.seconds, args.trace),
        other => unreachable!("workload {other} passed validation"),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.to_json(table, args.trace));
}
