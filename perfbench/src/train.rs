//! `train-sampled` and `train-sharded`: repeated training jobs on one
//! planted-partition dataset.
//!
//! A run repeats one fixed job (same inputs, same epochs) until
//! `--seconds` have passed, so accuracy never depends on speed and every
//! repetition must reproduce the first one bit for bit. The traced run
//! adds one job rebuilt outside-in from public calls, whose final loss
//! must equal the library's, plus replays of the hot kernels on the
//! epoch's shapes.

use crate::util::{mean, median, quantile, repeat_timed, rss_peak_mb, Outcome, Tracer};
use sgnn_core::ckpt::{ckpt_path, save_epoch, ResumeState};
use sgnn_core::models::gcn::{gcn_operator, Gcn, GcnConfig};
use sgnn_core::models::Sage;
use sgnn_core::pipeline::BatchPipeline;
use sgnn_core::shard::train_sharded_gcn;
use sgnn_core::trainer::{train_full_gcn, train_sampled, SamplerKind, TrainConfig};
use sgnn_core::TrainReport;
use sgnn_data::{sbm_dataset, Dataset};
use sgnn_graph::spmm::spmm_into;
use sgnn_graph::{CsrGraph, NodeId};
use sgnn_linalg::{reduce, DenseMatrix};
use sgnn_nn::loss::softmax_cross_entropy;
use sgnn_nn::optim::Adam;
use sgnn_partition::multilevel::{multilevel_partition, MultilevelConfig};
use sgnn_partition::{comm, edge_cut, Partition, ShardPlan};
use std::path::{Path, PathBuf};
use std::time::Instant;

const NODES: usize = 50_000;
const CLASSES: usize = 8;
const DEGREE: f64 = 12.0;
const HOMOPHILY: f64 = 0.9;
const FEATURES: usize = 64;
const NOISE: f32 = 0.5;
const TRAIN_FRAC: f64 = 0.1;
const VAL_FRAC: f64 = 0.05;
const HIDDEN: usize = 64;
const EPOCHS: usize = 4;
const LR: f32 = 0.03;
const BATCH: usize = 1024;
const FANOUTS: [usize; 2] = [10, 10];
const SHARDS: usize = 4;
/// Test-accuracy floors, fixed when the benchmark was defined (observed
/// about 0.96 sampled and 0.999 sharded).
const SAMPLED_ACC_FLOOR: f64 = 0.90;
const SHARDED_ACC_FLOOR: f64 = 0.95;
/// Set-ups timed before the jobs; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
const MIB: f64 = 1024.0 * 1024.0;

fn dataset(seed: u64) -> Dataset {
    sbm_dataset(NODES, CLASSES, DEGREE, HOMOPHILY, FEATURES, NOISE, 0, TRAIN_FRAC, VAL_FRAC, seed)
}

fn config(seed: u64, ckpt_dir: Option<PathBuf>) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        lr: LR,
        batch_size: BATCH,
        hidden: vec![HIDDEN],
        seed,
        prefetch: true,
        ckpt_dir,
        ..Default::default()
    }
}

fn rows_of(nodes: &[NodeId]) -> Vec<usize> {
    nodes.iter().map(|&u| u as usize).collect()
}

fn dims(ds: &Dataset) -> Vec<usize> {
    vec![ds.feature_dim(), HIDDEN, ds.num_classes]
}

/// One `Linear` call of an epoch: its input rows and widths, and whether
/// its input is a ReLU output (about half zero, which `grad_fx` skips)
/// rather than dense features or aggregates.
#[derive(Clone, Copy)]
struct LinearShape {
    rows: usize,
    din: usize,
    dout: usize,
    relu_input: bool,
}

/// Replays `reduce::grad_fx` and the forward/backward matmuls on the
/// recorded `Linear` shapes, with generated inputs. Returns
/// `(grad_fx_s, matmul_s)`.
fn replay_linear(shapes: &[LinearShape], seed: u64) -> (f64, f64) {
    let (mut fx_s, mut mm_s) = (0.0, 0.0);
    for (k, &LinearShape { rows, din, dout, relu_input }) in shapes.iter().enumerate() {
        let mut x = DenseMatrix::gaussian(rows, din, 1.0, seed.wrapping_add(k as u64));
        if relu_input {
            x.map_inplace(|v| v.max(0.0));
        }
        let dy = DenseMatrix::gaussian(rows, dout, 0.01, seed.wrapping_add(k as u64 + 1));
        let w = DenseMatrix::gaussian(din, dout, 0.1, seed.wrapping_add(k as u64 + 2));
        let mut acc = vec![0i128; din * dout];
        let t = Instant::now();
        reduce::grad_fx(&x, &dy, &mut acc);
        fx_s += t.elapsed().as_secs_f64();
        std::hint::black_box(&acc);
        let t = Instant::now();
        std::hint::black_box(x.matmul(&w).expect("shapes"));
        std::hint::black_box(dy.matmul(&w.transpose()).expect("shapes"));
        mm_s += t.elapsed().as_secs_f64();
    }
    (fx_s, mm_s)
}

/// Checks shared by every job: success, finite loss, the accuracy floor,
/// and bitwise agreement with the run's first job.
fn check_job(
    out: &mut Outcome,
    res: &Result<TrainReport, String>,
    floor: f64,
    first: &mut Option<(u32, f64)>,
) -> bool {
    out.attempted += 1;
    let problem = match res {
        Err(e) => Some(format!("training returned an error: {e}")),
        Ok(r) if !r.final_loss.is_finite() => Some(format!("non-finite loss {}", r.final_loss)),
        Ok(r) if r.test_acc < floor => Some(format!("test accuracy {} below {floor}", r.test_acc)),
        Ok(r) => match *first {
            Some((bits, acc)) if bits != r.final_loss.to_bits() || acc != r.test_acc => {
                Some("a repeated job did not reproduce the first one".to_string())
            }
            Some(_) => None,
            None => {
                *first = Some((r.final_loss.to_bits(), r.test_acc));
                None
            }
        },
    };
    match problem {
        Some(p) => {
            out.failed += 1;
            out.problem(p);
            false
        }
        None => true,
    }
}

/// Repeats `job` until `seconds` have passed (at least once) and fills
/// the end-to-end metrics. Returns the last successful report. The
/// traced run passes 0 seconds: one job, whose report the layer metrics
/// are checked against.
fn run_jobs(
    out: &mut Outcome,
    seconds: f64,
    train_nodes: usize,
    floor: f64,
    mut job: impl FnMut() -> Result<TrainReport, String>,
) -> Option<TrainReport> {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (mut job_ms, mut rates) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut last = None;
    loop {
        let t = Instant::now();
        let res = job();
        job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if check_job(out, &res, floor, &mut first) {
            let r = res.expect("checked");
            rates.push((train_nodes * r.epochs_run) as f64 / r.train_secs);
            last = Some(r);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    eprintln!("jobs: {} ms each, {:.0} train nodes/s", fmt_list(&job_ms), median(&rates));
    out.metric("nodes_per_s", median(&rates), "1/s");
    out.metric("mean_ms", mean(&job_ms), "ms");
    // Fewer than ten jobs fit in a run: the nearest-rank p90 is the
    // slowest job.
    out.metric("p90_ms", quantile(&job_ms, 0.9), "ms");
    last
}

fn fmt_list(v: &[f64]) -> String {
    v.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join("/")
}

/// Scratch directory for checkpoints, inside the working directory.
fn scratch_dir(workload: &str) -> PathBuf {
    let dir = Path::new(".perfbench_out").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint directory");
    dir
}

/// Removes a scratch directory and, once empty, its parent.
fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

fn finish(mut out: Outcome, setup_secs: &[f64]) -> Outcome {
    let setup_ms: Vec<f64> = setup_secs.iter().map(|s| s * 1e3).collect();
    eprintln!("set-ups: {} ms each", fmt_list(&setup_ms));
    out.metric("setup_s", median(setup_secs), "s");
    out.metric("rss_peak_mb", rss_peak_mb(), "MB");
    out
}

/// Layer metrics both training workloads read from the library's report.
fn report_layers(out: &mut Outcome, report: &TrainReport, generate_s: f64) {
    out.metric("data.generate_s", generate_s, "s");
    out.metric("core.ledger_peak_mb", report.peak_mem_bytes as f64 / MIB, "MB");
    out.metric("train.test_acc", report.test_acc, "ratio");
}

pub fn run_sampled(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new();
    let mut gen_secs = Vec::new();
    let (setup_secs, ds) = repeat_timed(SETUP_REPEATS, || {
        let t = Instant::now();
        let ds = dataset(seed);
        gen_secs.push(t.elapsed().as_secs_f64());
        ds
    });
    let cfg = config(seed, None);
    let sampler = SamplerKind::NodeWise(FANOUTS.to_vec());
    let train_nodes = ds.splits.train.len();
    let job = || train_sampled(&ds, &sampler, &cfg).map(|(_, r)| r).map_err(|e| e.to_string());
    let secs = if trace { 0.0 } else { seconds };
    let last = run_jobs(&mut out, secs, train_nodes, SAMPLED_ACC_FLOOR, job);
    let Some(report) = last.filter(|_| trace) else {
        return finish(out, &setup_secs);
    };

    // --- Outside-in replica of the job, with spans. -------------------
    let tr = &Tracer::new();
    let dims = dims(&ds);
    let mut sage = Sage::new(&dims, cfg.seed);
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let chunks: Vec<&[NodeId]> = ds.splits.train.chunks(cfg.batch_size).collect();
    let pipe = BatchPipeline::new(cfg.prefetch);
    let mut final_loss = 0f32;
    let mut shapes: Vec<LinearShape> = Vec::new();
    let (mut src_rows, mut edges, mut gather_bytes) = (0usize, 0usize, 0usize);
    let from = tr.now_ns();
    for epoch in 0..EPOCHS {
        let last_epoch = epoch + 1 == EPOCHS;
        let mut idle_from = tr.now_ns();
        pipe.run(
            chunks.len(),
            |bi| {
                let seed =
                    cfg.seed.wrapping_add((epoch * 10_000 + bi) as u64).wrapping_mul(0x9E37_79B9);
                let blocks = tr.span("sample.blocks", || {
                    sgnn_sample::node_wise::sample_blocks(&ds.graph, chunks[bi], &FANOUTS, seed)
                });
                let rows = rows_of(&blocks[0].src);
                let x_in = tr.span("linalg.gather", || ds.features.gather_rows(&rows));
                (blocks, x_in)
            },
            |bi, (blocks, x_in)| {
                tr.record("core.pipeline_stall", idle_from, tr.now_ns());
                if last_epoch {
                    src_rows += blocks[0].src.len();
                    edges += blocks.iter().map(|b| b.num_edges()).sum::<usize>();
                    gather_bytes += x_in.nbytes();
                    // Per layer: `lin_self` reads the destination rows of
                    // the layer input, `lin_neigh` their aggregate.
                    for (l, b) in blocks.iter().enumerate() {
                        let (rows, din, dout) = (b.num_dst(), dims[l], dims[l + 1]);
                        shapes.push(LinearShape { rows, din, dout, relu_input: l > 0 });
                        shapes.push(LinearShape { rows, din, dout, relu_input: false });
                    }
                }
                let logits = tr.span("nn.forward", || sage.forward(&blocks, &x_in));
                let (loss, dl) = tr.span("nn.loss", || {
                    softmax_cross_entropy(&logits, &ds.labels_of(chunks[bi]), None)
                });
                final_loss = loss;
                tr.span("nn.backward", || {
                    sage.zero_grad();
                    sage.backward(&blocks, &dl);
                });
                tr.span("nn.step", || sage.step(&mut opt));
                idle_from = tr.now_ns();
            },
        );
    }
    let to = tr.now_ns();
    if final_loss.to_bits() != report.final_loss.to_bits() {
        out.failed += 1;
        out.problem(format!(
            "outside-in epochs ended at loss {final_loss}, the library at {}",
            report.final_loss
        ));
    }
    let (fx_s, mm_s) = replay_linear(&shapes, seed);
    let e = EPOCHS as f64;
    let outside_in_s = (to - from) as f64 / 1e9;
    let per_epoch = |name: &str| tr.total_s(name) / e;
    for (name, value, unit) in [
        ("sample.blocks_s", per_epoch("sample.blocks"), "s"),
        ("sample.src_rows", src_rows as f64, "count"),
        ("sample.edges", edges as f64, "count"),
        ("linalg.gather_s", per_epoch("linalg.gather"), "s"),
        ("linalg.gather_bytes", gather_bytes as f64, "B"),
        ("linalg.grad_fx_s", fx_s, "s"),
        ("linalg.matmul_s", mm_s, "s"),
        ("nn.forward_s", per_epoch("nn.forward"), "s"),
        ("nn.loss_s", per_epoch("nn.loss"), "s"),
        ("nn.backward_s", per_epoch("nn.backward"), "s"),
        ("nn.step_s", per_epoch("nn.step"), "s"),
        ("core.pipeline_stall_s", report.phases.sample_secs / e, "s"),
        ("trace.overhead", outside_in_s / report.train_secs - 1.0, "ratio"),
        ("trace.unattributed_share", tr.unattributed_share(from, to), "ratio"),
    ] {
        out.metric(name, value, unit);
    }
    report_layers(&mut out, &report, median(&gen_secs));
    finish(out, &setup_secs)
}

/// The sharded workload's set-up products.
struct ShardSetup {
    ds: Dataset,
    part: Partition,
    op: CsrGraph,
    plan: ShardPlan,
    partition_s: f64,
    plan_s: f64,
    generate_s: f64,
}

fn shard_setup(seed: u64) -> ShardSetup {
    let t = Instant::now();
    let ds = dataset(seed);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let part = multilevel_partition(
        &ds.graph,
        SHARDS,
        &MultilevelConfig { seed, ..MultilevelConfig::default() },
    );
    let partition_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let op = gcn_operator(&ds.graph);
    let plan = ShardPlan::build(&op, &part).expect("partition covers the operator");
    let plan_s = t.elapsed().as_secs_f64();
    ShardSetup { ds, part, op, plan, partition_s, plan_s, generate_s }
}

pub fn run_sharded(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new();
    let mut timings = Vec::new();
    let (setup_secs, setup) = repeat_timed(SETUP_REPEATS, || {
        let s = shard_setup(seed);
        timings.push((s.generate_s, s.partition_s, s.plan_s));
        s
    });
    let ShardSetup { ds, part, op, plan, .. } = setup;
    let dir = scratch_dir("train-sharded");
    let cfg = config(seed, Some(dir.clone()));
    let train_nodes = ds.splits.train.len();
    // The analytic halo volume the measured exchange must equal.
    let want_halo = comm::simulate(&ds.graph, &part, 1, HIDDEN).vectors_per_layer;
    if plan.halo_vectors() != want_halo {
        out.problem(format!("plan halo {} != simulated {want_halo}", plan.halo_vectors()));
    }
    let mut stats = None;
    let job = || {
        train_sharded_gcn(&ds, &part, &cfg)
            .map(|(_, r, s)| {
                stats = Some(s);
                r
            })
            .map_err(|e| e.to_string())
    };
    let secs = if trace { 0.0 } else { seconds };
    let last = run_jobs(&mut out, secs, train_nodes, SHARDED_ACC_FLOOR, job);
    let stats = stats.expect("at least one job ran");
    let halo_ok = stats.halo_vectors_per_exchange == want_halo
        && stats.halo_vectors_per_epoch == want_halo * stats.exchanges_per_epoch;
    if !halo_ok {
        out.failed += 1;
        out.problem(format!(
            "measured halo {} vectors/exchange ({} per epoch) != simulated {want_halo}",
            stats.halo_vectors_per_exchange, stats.halo_vectors_per_epoch
        ));
    }
    let Some(report) = last.filter(|_| trace) else {
        remove_scratch(&dir);
        return finish(out, &setup_secs);
    };

    // --- The single-process reference on the same data. --------------
    let full = train_full_gcn(&ds, &cfg).map(|(_, r)| r);
    out.attempted += 1;
    let full = match full {
        Ok(r) if r.final_loss.to_bits() == report.final_loss.to_bits() => r,
        other => {
            out.failed += 1;
            out.problem(format!("train_full_gcn disagrees with the sharded run: {other:?}"));
            remove_scratch(&dir);
            return finish(out, &setup_secs);
        }
    };

    // --- Outside-in replica of the job, with spans. -------------------
    let tr = &Tracer::new();
    let n = ds.num_nodes();
    let mut gcn = Gcn::new(
        ds.feature_dim(),
        ds.num_classes,
        &GcnConfig { hidden: cfg.hidden.clone(), dropout: cfg.dropout, seed: cfg.seed },
    );
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let train_rows = rows_of(&ds.splits.train);
    let train_labels = ds.labels_of(&ds.splits.train);
    let ckpt_file = ckpt_path(&dir, "gcn-outside-in");
    let mut final_loss = 0f32;
    let (mut ckpt_bytes, mut gather_bytes) = (0u64, 0usize);
    let from = tr.now_ns();
    for epoch in 0..EPOCHS {
        let logits = tr.span("nn.forward", || gcn.forward(&op, &ds.features));
        let batch = tr.span("linalg.gather", || logits.gather_rows(&train_rows));
        gather_bytes += batch.nbytes();
        let dl = tr.span("nn.loss", || {
            let (loss, dl_batch) = softmax_cross_entropy(&batch, &train_labels, None);
            final_loss = loss;
            let mut dl = DenseMatrix::zeros(n, ds.num_classes);
            dl.scatter_rows(&train_rows, &dl_batch);
            dl
        });
        tr.span("nn.backward", || {
            gcn.zero_grad();
            gcn.backward(&op, &dl);
        });
        tr.span("nn.step", || gcn.step(&mut opt));
        let state = ResumeState {
            epoch_done: epoch + 1,
            final_loss,
            stopper_best: f64::NEG_INFINITY,
            stopper_bad: 0,
            stopped: false,
        };
        match tr
            .span("ckpt.write", || save_epoch(&ckpt_file, "gcn-full", &state, &opt, &mut gcn, None))
        {
            Ok(bytes) => ckpt_bytes += bytes,
            Err(e) => out.problem(format!("checkpoint write failed: {e}")),
        }
    }
    let to = tr.now_ns();
    remove_scratch(&dir);
    if final_loss.to_bits() != report.final_loss.to_bits() {
        out.failed += 1;
        out.problem(format!(
            "outside-in epochs ended at loss {final_loss}, the library at {}",
            report.final_loss
        ));
    }

    // --- Kernel replays on one epoch's shapes. ------------------------
    let d = dims(&ds);
    let spmm_s = {
        let h = DenseMatrix::gaussian(n, HIDDEN, 1.0, seed);
        let mut y = DenseMatrix::zeros(n, HIDDEN);
        // Forward aggregates each layer's input, backward each layer's
        // input gradient: two SpMMs per layer, all at the hidden width.
        let (secs, _) = repeat_timed(2 * (d.len() - 1), || spmm_into(&op, &h, &mut y));
        secs.iter().sum::<f64>()
    };
    // Every GCN `Linear` reads an aggregate over the whole graph: dense.
    let shapes: Vec<LinearShape> = (0..d.len() - 1)
        .map(|l| LinearShape { rows: n, din: d[l], dout: d[l + 1], relu_input: false })
        .collect();
    let (fx_s, mm_s) = replay_linear(&shapes, seed);

    let e = EPOCHS as f64;
    let outside_in_s = (to - from) as f64 / 1e9;
    let per_epoch = |name: &str| tr.total_s(name) / e;
    let median_of =
        |f: fn(&(f64, f64, f64)) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    for (name, value, unit) in [
        ("graph.spmm_s", spmm_s, "s"),
        ("partition.multilevel_s", median_of(|t| t.1), "s"),
        ("partition.edge_cut", edge_cut(&ds.graph, &part), "ratio"),
        ("shard.plan_build_s", median_of(|t| t.2), "s"),
        ("shard.halo_bytes_per_epoch", stats.halo_bytes_per_epoch as f64, "B"),
        ("shard.allreduce_bytes_per_epoch", stats.allreduce_bytes_per_epoch as f64, "B"),
        ("shard.nnz_skew", stats.nnz_skew, "ratio"),
        ("shard.overhead_s", (report.train_secs - full.train_secs) / e, "s"),
        ("ckpt.write_s", per_epoch("ckpt.write"), "s"),
        ("ckpt.bytes", ckpt_bytes as f64 / e, "B"),
        ("linalg.gather_s", per_epoch("linalg.gather"), "s"),
        ("linalg.gather_bytes", gather_bytes as f64 / e, "B"),
        ("linalg.grad_fx_s", fx_s, "s"),
        ("linalg.matmul_s", mm_s, "s"),
        ("nn.forward_s", per_epoch("nn.forward"), "s"),
        ("nn.loss_s", per_epoch("nn.loss"), "s"),
        ("nn.backward_s", per_epoch("nn.backward"), "s"),
        ("nn.step_s", per_epoch("nn.step"), "s"),
        ("trace.overhead", outside_in_s / full.train_secs - 1.0, "ratio"),
        ("trace.unattributed_share", tr.unattributed_share(from, to), "ratio"),
    ] {
        out.metric(name, value, unit);
    }
    report_layers(&mut out, &report, median_of(|t| t.0));
    finish(out, &setup_secs)
}
