//! Layer-wise evaluation of sampled GraphSAGE (DESIGN.md §6).
//!
//! `Sage::forward_full` replaced a per-chunk evaluation: every 1024
//! requested nodes, a `[25, 25]` node-wise sample and a block forward. The
//! two agree bit for bit wherever no node of the receptive field has a
//! degree above 25, because the sampler then keeps every neighbour, in
//! CSR order, at weight `1 / deg`. This suite rebuilds the old path from
//! public calls and compares logits bits on an SBM whose maximum degree
//! is at most 25, for a trained `Sage` and for the history trainer's
//! net, at one thread and at the default thread count.

use sgnn::core::models::sage::{Sage, EVAL_TILE};
use sgnn::core::trainer::{train_sampled, SamplerKind, TrainConfig};
use sgnn::core::trainer_ext::train_history;
use sgnn::data::{sbm_dataset, Dataset};
use sgnn::graph::{generate, CsrGraph, NodeId};
use sgnn::linalg::par::set_threads;
use sgnn::linalg::DenseMatrix;
use sgnn::nn::layers::{Linear, ReLU};
use sgnn::nn::loss::{accuracy, softmax_cross_entropy};
use sgnn::nn::optim::{Adam, Optimizer};
use sgnn::sample::node_wise::sample_blocks;
use sgnn::sample::{Block, HistoryCache};
use std::sync::Mutex;

/// Serializes tests that set the process-wide thread count.
static THREADS: Mutex<()> = Mutex::new(());

/// The replaced evaluation's chunk and fanouts.
const CHUNK: usize = 1024;
const WIDE: [usize; 2] = [25, 25];

fn rows_of(nodes: &[NodeId]) -> Vec<usize> {
    nodes.iter().map(|&u| u as usize).collect()
}

/// SBM(3000): 4 classes, 12 features, mean degree 8.
fn dataset() -> Dataset {
    let ds = sbm_dataset(3_000, 4, 8.0, 0.85, 12, 0.6, 0, 0.3, 0.2, 11);
    assert!(ds.graph.max_degree() <= 25, "max degree {} > 25", ds.graph.max_degree());
    ds
}

/// `ds` with every edge at a node that is a multiple of 97 removed, leaving those
/// nodes isolated.
fn with_isolated_nodes(mut ds: Dataset) -> Dataset {
    let g = &ds.graph;
    let cut = |u: NodeId| u.is_multiple_of(97);
    let (mut indptr, mut indices) = (vec![0usize], Vec::new());
    for u in 0..g.num_nodes() as NodeId {
        if !cut(u) {
            indices.extend(g.neighbors(u).iter().copied().filter(|&v| !cut(v)));
        }
        indptr.push(indices.len());
    }
    ds.graph = CsrGraph::from_parts(g.num_nodes(), indptr, indices, None).expect("valid CSR");
    assert_eq!(ds.graph.degree(97), 0);
    ds
}

/// Stacks per-chunk logits into one matrix.
fn chunked(
    nodes: &[NodeId],
    width: usize,
    mut logits_of: impl FnMut(&[NodeId]) -> DenseMatrix,
) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(0, width);
    for chunk in nodes.chunks(CHUNK) {
        out = out.concat_rows(&logits_of(chunk)).expect("widths equal");
    }
    out
}

/// The replaced `train_sampled` evaluation.
fn old_sage_eval(sage: &Sage, ds: &Dataset, nodes: &[NodeId]) -> DenseMatrix {
    chunked(nodes, ds.num_classes, |chunk| {
        let blocks = sample_blocks(&ds.graph, chunk, &WIDE, 123_456);
        sage.forward_inference(&blocks, &ds.features.gather_rows(&rows_of(&blocks[0].src)))
    })
}

/// The history trainer's two layers as it built them before they became
/// a [`Sage`]: `Linear`s seeded `seed`, `seed + 1`, `seed + 2`,
/// `seed + 3`.
struct HistoryLayers {
    self1: Linear,
    neigh1: Linear,
    self2: Linear,
    neigh2: Linear,
}

impl HistoryLayers {
    fn new(d: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        HistoryLayers {
            self1: Linear::new(d, hidden, seed),
            neigh1: Linear::new(d, hidden, seed + 1),
            self2: Linear::new(hidden, classes, seed + 2),
            neigh2: Linear::new(hidden, classes, seed + 3),
        }
    }

    /// The replaced `train_history` evaluation.
    fn old_eval(&self, ds: &Dataset, nodes: &[NodeId]) -> DenseMatrix {
        chunked(nodes, ds.num_classes, |chunk| {
            let blocks = sample_blocks(&ds.graph, chunk, &WIDE, 777);
            let inner: &Block = &blocks[0];
            let agg1 = inner.aggregate(&ds.features.gather_rows(&rows_of(&inner.src)));
            let x_dst = ds.features.gather_rows(&rows_of(&inner.dst));
            let mut z1 = self.self1.forward_inference(&x_dst);
            z1.add_scaled(1.0, &self.neigh1.forward_inference(&agg1)).expect("shapes");
            let h1 = ReLU::new().forward_inference(&z1);
            let outer = &blocks[1];
            let agg2 = outer.aggregate(&h1);
            let h1_batch = h1.gather_rows(&(0..outer.num_dst()).collect::<Vec<_>>());
            let mut logits = self.self2.forward_inference(&h1_batch);
            logits.add_scaled(1.0, &self.neigh2.forward_inference(&agg2)).expect("shapes");
            logits
        })
    }

    /// One Adam step over the four layers in `Sage::step`'s slot order.
    fn step(&mut self, opt: &mut Adam) {
        let mut slot = 0usize;
        for l in [&mut self.self1, &mut self.neigh1, &mut self.self2, &mut self.neigh2] {
            l.visit_params(&mut |p, g| {
                opt.update(slot, p, g);
                slot += 1;
            });
        }
        opt.step_done();
    }
}

/// `train_history`'s training loop replayed from public calls: every
/// node scheduled once per epoch in a seeded shuffle, one sampled hop
/// per layer, out-of-batch layer-2 inputs from a [`HistoryCache`] as
/// constants, and the loss over the batch's train members only. Returns
/// the last training batch's loss, the report's `final_loss`.
fn replayed_history_loss(ds: &Dataset, fanout: usize, cfg: &TrainConfig) -> f32 {
    use rand::RngExt;
    let n = ds.num_nodes();
    let hidden = cfg.hidden[0];
    let mut net = HistoryLayers::new(ds.feature_dim(), hidden, ds.num_classes, cfg.seed);
    let mut relu1 = ReLU::new();
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let cache = HistoryCache::new(n, hidden);
    let mut is_train = vec![false; n];
    for &u in &ds.splits.train {
        is_train[u as usize] = true;
    }
    let mut schedule: Vec<NodeId> = (0..n as NodeId).collect();
    let (mut iter, mut final_loss) = (0u64, 0f32);
    for epoch in 0..cfg.epochs {
        let mut rng = sgnn::linalg::rng::seeded(cfg.seed.wrapping_add(epoch as u64));
        for i in (1..schedule.len()).rev() {
            schedule.swap(i, rng.random_range(0..=i));
        }
        for (bi, chunk) in schedule.chunks(cfg.batch_size).enumerate() {
            iter += 1;
            let seed = cfg.seed.wrapping_add((epoch * 7919 + bi) as u64);
            let block = &sample_blocks(&ds.graph, chunk, &[fanout], seed)[0];
            let inner = &sample_blocks(&ds.graph, chunk, &[fanout], seed ^ 0xABCD)[0];
            let agg1 = inner.aggregate(&ds.features.gather_rows(&rows_of(&inner.src)));
            let mut z1 = net.self1.forward(&ds.features.gather_rows(&rows_of(chunk)));
            z1.add_scaled(1.0, &net.neigh1.forward(&agg1)).expect("shapes");
            let h1_batch = relu1.forward(&z1);
            let (cached, _, _) = cache.fetch_batch(&block.src[chunk.len()..], iter);
            let agg2 = block.aggregate(&h1_batch.concat_rows(&cached).expect("widths"));
            let mut logits = net.self2.forward(&h1_batch);
            logits.add_scaled(1.0, &net.neigh2.forward(&agg2)).expect("shapes");
            let weights: Vec<f32> =
                chunk.iter().map(|&u| if is_train[u as usize] { 1.0 } else { 0.0 }).collect();
            if weights.iter().any(|&w| w != 0.0) {
                let (loss, dl) =
                    softmax_cross_entropy(&logits, &ds.labels_of(chunk), Some(&weights));
                final_loss = loss;
                for l in [&mut net.self1, &mut net.neigh1, &mut net.self2, &mut net.neigh2] {
                    l.zero_grad();
                }
                let mut d_h1 = net.self2.backward(&dl);
                let d_h1_src = block.aggregate_backward(&net.neigh2.backward(&dl));
                for r in 0..chunk.len() {
                    for (g, &s) in d_h1.row_mut(r).iter_mut().zip(d_h1_src.row(r)) {
                        *g += s;
                    }
                }
                let d_z1 = relu1.backward(&d_h1);
                net.self1.backward(&d_z1);
                net.neigh1.backward(&d_z1);
                net.step(&mut opt);
            }
            cache.push_batch(chunk, iter, &h1_batch);
        }
    }
    final_loss
}

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

fn trained_sage(ds: &Dataset) -> Sage {
    let cfg = TrainConfig { epochs: 3, hidden: vec![16], batch_size: 256, ..Default::default() };
    train_sampled(ds, &SamplerKind::NodeWise(vec![5, 5]), &cfg).expect("trains").0
}

/// Request lists: sizes around the tile, every node with some isolated,
/// and the val split alone.
fn requests(ds: &Dataset) -> Vec<(&'static str, Vec<NodeId>)> {
    // Test, then val, then train: a shuffled order, not sorted by id.
    let order: Vec<NodeId> = [&ds.splits.test[..], &ds.splits.val, &ds.splits.train].concat();
    let mut out: Vec<(&'static str, Vec<NodeId>)> = Vec::new();
    for (name, n) in [
        ("n = 1", 1),
        ("n = tile - 1", EVAL_TILE - 1),
        ("n = tile", EVAL_TILE),
        ("n = tile + 1", EVAL_TILE + 1),
    ] {
        out.push((name, order[..n].to_vec()));
    }
    out.push(("val only", ds.splits.val.clone()));
    out
}

#[test]
fn layerwise_eval_equals_chunked_sampled_eval_bitwise() {
    let _g = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let plain = dataset();
    let isolated = with_isolated_nodes(dataset());
    let sage = trained_sage(&plain);
    let (d, classes) = (plain.feature_dim(), plain.num_classes);
    let history = HistoryLayers::new(d, 16, classes, 5);
    let history_sage = Sage::new(&[d, 16, classes], 5);
    for threads in [1, 0] {
        set_threads(threads);
        for ds in [&plain, &isolated] {
            let all: Vec<NodeId> = (0..ds.num_nodes() as NodeId).rev().collect();
            let mut cases = requests(ds);
            cases.push(("every node", all));
            for (name, nodes) in &cases {
                let at =
                    format!("{name}, threads {threads}, isolated {}", ds.graph.degree(97) == 0);
                let new = sage.forward_full(&ds.graph, &ds.features, nodes);
                assert_eq!(new.shape(), (nodes.len(), classes), "{at}");
                assert_eq!(bits(&new), bits(&old_sage_eval(&sage, ds, nodes)), "sage: {at}");
                let new = history_sage.forward_full(&ds.graph, &ds.features, nodes);
                assert_eq!(bits(&new), bits(&history.old_eval(ds, nodes)), "history: {at}");
            }
        }
    }
    set_threads(0);
}

/// Above the old fanout the evaluation is the mean over every neighbour:
/// it equals a block forward whose fanout is the maximum degree, on a
/// Barabási–Albert graph with hubs far above 25.
#[test]
fn high_degree_nodes_average_every_neighbour() {
    let _g = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let mut ds = dataset();
    ds.graph = generate::barabasi_albert(ds.num_nodes(), 4, 3);
    let max = ds.graph.max_degree();
    assert!(max > 25, "max degree {max}");
    let sage = trained_sage(&ds);
    let nodes: Vec<NodeId> = (0..ds.num_nodes() as NodeId).step_by(3).collect();
    let blocks = sample_blocks(&ds.graph, &nodes, &[max, max], 1);
    let full = sage.forward_inference(&blocks, &ds.features.gather_rows(&rows_of(&blocks[0].src)));
    assert_eq!(bits(&sage.forward_full(&ds.graph, &ds.features, &nodes)), bits(&full));
}

/// Every sampler's reported accuracy is the layer-wise evaluation's.
#[test]
fn train_sampled_reports_the_layerwise_accuracy_for_every_sampler() {
    let ds = dataset();
    let cfg = TrainConfig { epochs: 2, hidden: vec![16], batch_size: 256, ..Default::default() };
    for sampler in [
        SamplerKind::NodeWise(vec![5, 5]),
        SamplerKind::LayerWise(vec![256, 256]),
        SamplerKind::Labor(vec![5, 5]),
    ] {
        let (sage, report) = train_sampled(&ds, &sampler, &cfg).expect("trains");
        let acc = |nodes: &[NodeId]| {
            accuracy(&sage.forward_full(&ds.graph, &ds.features, nodes), &ds.labels_of(nodes))
        };
        assert_eq!(report.test_acc, acc(&ds.splits.test), "{sampler:?}");
        assert_eq!(report.val_acc, acc(&ds.splits.val), "{sampler:?}");
    }
}

/// `train_history`'s final loss equals, bit for bit, its loop replayed
/// from public calls over 3 epochs, at one thread and at the default
/// thread count.
#[test]
fn history_trainer_loss_bits_equal_an_outside_in_replay() {
    let _g = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let ds = with_isolated_nodes(dataset());
    let cfg = TrainConfig { epochs: 3, hidden: vec![16], batch_size: 200, ..Default::default() };
    for threads in [1, 0] {
        set_threads(threads);
        let (report, _) = train_history(&ds, 5, &cfg).expect("trains");
        let want = replayed_history_loss(&ds, 5, &cfg);
        assert_eq!(report.final_loss.to_bits(), want.to_bits(), "threads {threads}");
    }
    set_threads(0);
}
