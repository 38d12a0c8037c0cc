//! Experiments E1–E4: the classic scalable-GNN story (§3.1.2).

use sgnn_core::models::decoupled::PrecomputeMethod;
use sgnn_core::trainer::{
    train_cluster_gcn, train_decoupled, train_full_gcn, train_saint, train_sampled, SamplerKind,
    TrainConfig, TrainReport,
};
use sgnn_data::sbm_dataset;
use sgnn_graph::generate;
use std::time::Instant;

/// E1 — neighborhood explosion: receptive-field growth vs depth, and the
/// aggregation-count comparison of full-batch vs sampled vs decoupled.
pub fn e1_neighborhood_explosion() -> bool {
    println!("E1: neighborhood explosion (paper §1/§3.1.3)");
    for (name, g) in [
        ("ba-50k(m=4)", generate::barabasi_albert(50_000, 4, 1)),
        ("grid-224x224", generate::grid2d(224, 224)),
    ] {
        println!("\n  graph {name}: n={} m={}", g.num_nodes(), g.num_edges());
        println!(
            "  {:<3} {:>14} {:>10} {:>16} {:>16} {:>14}",
            "L", "mean |N_L(v)|", "coverage", "full-batch aggs", "sampled aggs", "decoupled aggs"
        );
        let rows = sgnn_prop::receptive::explosion_series(&g, 6, 30, 7);
        for r in &rows {
            let full = sgnn_prop::receptive::full_batch_aggregations(&g, r.layers);
            let sampled =
                sgnn_prop::receptive::sampled_aggregations(1, &vec![10usize; r.layers as usize]);
            let dec = sgnn_prop::receptive::decoupled_aggregations(&g, r.layers);
            println!(
                "  {:<3} {:>14.1} {:>9.1}% {:>16} {:>16} {:>14}",
                r.layers,
                r.mean_receptive,
                r.coverage * 100.0,
                full,
                sampled,
                dec
            );
        }
    }
    println!("\n  shape check: receptive field saturates toward the whole graph on");
    println!("  the power-law graph within ~5 hops; sampled frontier grows 10^L;");
    println!("  decoupled work equals ONE full pass (precompute) total, not per epoch.");
    true
}

/// E2 — partition quality and simulated distributed communication.
pub fn e2_partition() -> bool {
    println!("E2: graph partition (paper §3.1.2 'Graph Partition')");
    let (g, _) = generate::planted_partition(50_000, 16, 12.0, 0.9, 3);
    println!("  graph: planted-partition n={} m={}", g.num_nodes(), g.num_edges() / 2);
    for k in [4usize, 8, 16] {
        println!("\n  k = {k}:");
        println!(
            "  {:<12} {:>9} {:>9} {:>12} {:>12} {:>10}",
            "method", "edge-cut", "balance", "replication", "MB/epoch", "build(s)"
        );
        let row = |name: &str, p: sgnn_partition::Partition, secs: f64| {
            let q = sgnn_partition::metrics::quality(&g, &p);
            let c = sgnn_partition::comm::simulate(&g, &p, 3, 128);
            println!(
                "  {:<12} {:>8.1}% {:>9.3} {:>12.3} {:>12.1} {:>10.2}",
                name,
                q.edge_cut * 100.0,
                q.balance,
                q.replication,
                c.bytes_per_epoch as f64 / 1e6,
                secs
            );
        };
        let t = Instant::now();
        let p = sgnn_partition::hash_partition(g.num_nodes(), k);
        row("hash", p, t.elapsed().as_secs_f64());
        let t = Instant::now();
        let p = sgnn_partition::ldg(&g, k, 1.05);
        row("ldg", p, t.elapsed().as_secs_f64());
        let t = Instant::now();
        let p = sgnn_partition::fennel(&g, k, 1.05);
        row("fennel", p, t.elapsed().as_secs_f64());
        let t = Instant::now();
        let ml_cfg = sgnn_partition::multilevel::MultilevelConfig {
            coarse_target: (40 * k).max(200),
            refine_passes: 8,
            ..Default::default()
        };
        let p = sgnn_partition::multilevel_partition(&g, k, &ml_cfg);
        row("multilevel", p, t.elapsed().as_secs_f64());
    }
    println!("\n  shape check: hash ≫ streaming ≫ multilevel on cut and traffic.");
    true
}

fn print_report_header() {
    println!(
        "  {:<16} {:>7} {:>7} {:>12} {:>10} {:>10}",
        "method", "acc", "val", "precomp(s)", "train(s)", "peak MiB"
    );
}

fn print_report(r: &TrainReport) {
    println!(
        "  {:<16} {:>7.3} {:>7.3} {:>12.2} {:>10.2} {:>10}",
        r.name,
        r.test_acc,
        r.val_acc,
        r.precompute_secs,
        r.train_secs,
        crate::mib(r.peak_mem_bytes)
    );
}

/// E3 — the sampling-family comparison: node-, layer-, and subgraph-level
/// versus the full-batch baseline.
pub fn e3_sampling_families() -> bool {
    println!("E3: sampling taxonomy (paper §3.1.2 'Graph Sampling', [32])");
    let ds = sbm_dataset(20_000, 5, 12.0, 0.85, 32, 1.0, 0, 0.5, 0.25, 4);
    println!(
        "  dataset: n={} m={} classes={}",
        ds.num_nodes(),
        ds.graph.num_edges() / 2,
        ds.num_classes
    );
    print_report_header();
    let cfg = TrainConfig { epochs: 20, hidden: vec![32], ..Default::default() };
    print_report(&train_full_gcn(&ds, &cfg).unwrap().1);
    let cfg_s = TrainConfig { epochs: 6, batch_size: 512, ..cfg.clone() };
    print_report(&train_sampled(&ds, &SamplerKind::NodeWise(vec![5, 5]), &cfg_s).unwrap().1);
    print_report(&train_sampled(&ds, &SamplerKind::LayerWise(vec![512, 512]), &cfg_s).unwrap().1);
    print_report(&train_sampled(&ds, &SamplerKind::Labor(vec![5, 5]), &cfg_s).unwrap().1);
    print_report(
        &train_saint(&ds, sgnn_sample::SaintSampler::RandomWalk { roots: 300, length: 4 }, 8, &cfg)
            .unwrap()
            .1,
    );
    print_report(&train_cluster_gcn(&ds, 20, 2, &cfg).unwrap().1);
    println!("\n  shape check: all samplers within a few points of full-batch accuracy");
    println!("  at a fraction of its peak memory.");
    true
}

/// E4 — decoupled-propagation scaling: time/memory vs graph size against
/// full-batch GCN, at accuracy parity.
pub fn e4_decoupled_scaling() -> bool {
    println!("E4: decoupled propagation scaling (paper §3.1.2, APPNP [18]/SCARA [26])");
    for n in [4_000usize, 16_000, 64_000] {
        let ds = sbm_dataset(n, 5, 10.0, 0.85, 32, 1.0, 0, 0.5, 0.25, 5);
        println!("\n  n = {} (m = {}):", n, ds.graph.num_edges() / 2);
        print_report_header();
        let cfg = TrainConfig { epochs: 15, hidden: vec![32], ..Default::default() };
        print_report(&train_full_gcn(&ds, &cfg).unwrap().1);
        print_report(&train_decoupled(&ds, &PrecomputeMethod::Sgc { k: 2 }, &cfg).unwrap().1);
        print_report(
            &train_decoupled(&ds, &PrecomputeMethod::Appnp { alpha: 0.15, k: 10 }, &cfg).unwrap().1,
        );
        print_report(
            &train_decoupled(&ds, &PrecomputeMethod::Scara { alpha: 0.15, rmax: 1e-5 }, &cfg)
                .unwrap()
                .1,
        );
    }
    println!("\n  shape check: the GCN/decoupled peak-memory gap widens with n;");
    println!("  decoupled training time is size-independent after precompute.");
    true
}
