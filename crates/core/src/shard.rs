//! Shard-parallel full-graph GCN training with halo exchange.
//!
//! The execution model every distributed-GNN system in the survey's
//! §3.1.2 lineage converges on: partition the graph, give each worker
//! its shard's rows, and between layers exchange the **halo** — boundary
//! activations that remote shards' aggregations read. Here the "workers"
//! are worker-pool tasks (one per shard) and the "network" is memory,
//! but the dataflow — and the measured communication volume — is the
//! real one, which is what lets `benchsharding` validate the analytic
//! E2 communication model against an actual execution.
//!
//! ## Execution shape
//!
//! Each shard runs the reference model's own layer step
//! (`Gcn::layer_forward` / `Gcn::layer_backward`) on the rows it
//! owns. This module adds only what distribution needs: the shard plan,
//! the halo exchange (exact or compressed), the fixed-order gradient
//! allreduce, fault handling and communication accounting.
//!
//! ## The determinism contract (DESIGN.md §7)
//!
//! [`train_sharded_gcn`] is **bitwise identical** to
//! [`crate::trainer::train_full_gcn`] — same final loss bits, same
//! accuracies, same weight trajectory — at any shard count, for any
//! partition, at any thread count. Three mechanisms carry the proof:
//!
//! 1. **Per-row/per-element ops shard trivially.** SpMM output rows,
//!    `X·W` rows, bias, ReLU, softmax rows, and argmax depend only on
//!    their own input row (and shared weights). The shard-local operator
//!    slice keeps neighbor order and weight bits (monotone relabeling,
//!    [`sgnn_graph::CsrGraph::relabeled_slice`]), and the halo exchange
//!    delivers bit-exact remote rows, so every owned row equals the
//!    full-graph row by induction over layers.
//! 2. **Cross-row reductions are exact integer folds.** Weight/bias
//!    gradients and the loss are accumulated as fixed-point `i128`
//!    ([`sgnn_linalg::reduce`]); `wrapping_add` is associative, so
//!    per-shard partials combined by the fixed-order tree allreduce
//!    equal the single-process fold exactly, with one rounding at the
//!    final `f32` write-back.
//! 3. **Randomness is stateless.** Dropout masks are per-element hashes
//!    of `(layer seed, epoch, global row, column)`, and the layer step
//!    keys them by each owned row's global id, so a shard regenerates
//!    exactly the mask entries of the rows it owns.
//!
//! Identical gradients ⇒ identical Adam updates (slot-keyed, fixed visit
//! order) ⇒ identical weights every epoch; identical validation
//! accuracy ⇒ identical early-stopping decisions.
//!
//! ## Observability and accounting
//!
//! Counters (§5 naming): `comm.halo_bytes` / `comm.halo_vectors` per
//! exchange, `comm.allreduce_bytes` per gradient merge, and the
//! `shard.skew` gauge (max/mean shard nnz, permille). The ledger charges
//! the shard-local operator slices and feature buffers as resident and
//! the per-shard activations + fixed-point accumulators as transient;
//! the *global* operator is released once the plan is built — the
//! sharded trainer's resident set is the plan, not the graph.

use crate::ckpt::{CkptSidecar, SlotParams};
use crate::driver::{layer_dims, new_gcn, Checkpointed, Driver, Epoch};
use crate::error::{TrainError, TrainResult};
use crate::models::gcn::{gcn_operator, Gcn, StepCache, StepRows};
use crate::shard_comm::CommState;
use crate::trainer::{TrainConfig, TrainReport};
use sgnn_data::Dataset;
use sgnn_fault::crc::crc32_f32s;
use sgnn_fault::FaultPlan;
use sgnn_graph::spmm::spmm;
use sgnn_graph::CsrGraph;
use sgnn_linalg::par::par_map_chunks;
use sgnn_linalg::quant::{ef_compress_rows, wire_bytes_per_vector};
use sgnn_linalg::reduce::merge_fx;
use sgnn_linalg::{vecops, DenseMatrix};
use sgnn_nn::loss::{loss_from_fx, loss_row_fx};
use sgnn_obs::Phase;
use sgnn_partition::{Partition, Shard, ShardPlan};
use std::sync::Mutex;
use std::time::Instant;

static HALO_BYTES: sgnn_obs::Counter = sgnn_obs::Counter::new("comm.halo_bytes");
static HALO_VECTORS: sgnn_obs::Counter = sgnn_obs::Counter::new("comm.halo_vectors");
static ALLREDUCE_BYTES: sgnn_obs::Counter = sgnn_obs::Counter::new("comm.allreduce_bytes");
static SKEW: sgnn_obs::Gauge = sgnn_obs::Gauge::new("shard.skew");
/// Per-superstep halo-exchange latency of *training* passes (build +
/// verify + any repair; for the compressed regime, compress + ghost
/// build + verify + assembly of a refresh).
static HALO_EXCHANGE_NS: sgnn_obs::Histogram = sgnn_obs::Histogram::new("comm.halo_exchange.ns");
/// Halo-exchange latency of evaluation passes (early-stopping + final),
/// kept out of the training histogram so training p99s stay honest.
static EVAL_HALO_EXCHANGE_NS: sgnn_obs::Histogram =
    sgnn_obs::Histogram::new("comm.eval_halo_exchange.ns");
/// Ghost bytes *not* moved by the compressed regime versus an exact f32
/// exchange (quantization savings + stale-hit elisions).
static BYTES_SAVED: sgnn_obs::Counter = sgnn_obs::Counter::new("comm.bytes_saved");
/// Ghost vectors served from a stale cache instead of the wire.
static STALE_HITS: sgnn_obs::Counter = sgnn_obs::Counter::new("comm.stale_hits");
/// Interior-aggregation nanoseconds overlapped with in-flight exchanges.
static OVERLAP_NS: sgnn_obs::Counter = sgnn_obs::Counter::new("comm.overlap_ns");
/// Effective halo compression ratio ×1000 (exact-equivalent bytes over
/// bytes actually moved; 1000 = no compression).
static COMPRESSION_RATIO: sgnn_obs::Gauge = sgnn_obs::Gauge::new("comm.compression_ratio");

/// Measured communication/skew profile of one sharded training run —
/// the execution-side numbers the E2 analytic model is checked against.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard count.
    pub k: usize,
    /// Training epochs executed.
    pub epochs: usize,
    /// Ghost vectors moved per halo exchange (= `ShardPlan::halo_vectors`).
    pub halo_vectors_per_exchange: u64,
    /// Halo exchanges per training epoch: `(L−1)` forward + `(L−1)`
    /// backward for an `L`-layer model.
    pub exchanges_per_epoch: u64,
    /// Measured halo traffic per training epoch, bytes.
    pub halo_bytes_per_epoch: u64,
    /// Measured halo traffic per training epoch, vectors.
    pub halo_vectors_per_epoch: u64,
    /// Measured gradient-allreduce traffic per training epoch, bytes.
    pub allreduce_bytes_per_epoch: u64,
    /// Halo traffic of evaluation passes (early-stopping + final), bytes.
    pub eval_halo_bytes: u64,
    /// Max/mean shard-local operator nnz (1.0 = perfectly balanced).
    pub nnz_skew: f64,
    /// Total local slots `Σ_s (owned_s + halo_s)` — replication factor
    /// times `n`.
    pub replication_slots: u64,
    /// Communication regime label (`exact`, `int8,s=4`, …).
    pub regime: String,
    /// Ghost bytes per training epoch not moved versus an exact f32
    /// exchange (0 in the exact regime).
    pub halo_bytes_saved_per_epoch: u64,
    /// Ghost vectors served from a stale cache over the whole run.
    pub stale_hits: u64,
    /// Interior-aggregation nanoseconds overlapped with in-flight
    /// exchanges over the whole run.
    pub overlap_ns: u64,
}

serde::impl_serialize!(ShardStats {
    k,
    epochs,
    halo_vectors_per_exchange,
    exchanges_per_epoch,
    halo_bytes_per_epoch,
    halo_vectors_per_epoch,
    allreduce_bytes_per_epoch,
    eval_halo_bytes,
    nnz_skew,
    replication_slots,
    regime,
    halo_bytes_saved_per_epoch,
    stale_hits,
    overlap_ns
});

/// Per-shard trainer-side context: feature slice, gather indices, and
/// split membership translated to owned-rank space.
struct ShardCtx {
    /// Local row index of each owned rank (for `gather_rows`).
    owned_rows: Vec<usize>,
    /// `n_local × in_dim` feature slice (owned + halo rows) — the layer-0
    /// input, replicated once at setup like ghost features in a real
    /// distributed deployment.
    features: DenseMatrix,
    /// `(owned rank, label)` of train/val/test nodes owned by this shard.
    train: Vec<(usize, usize)>,
    val: Vec<(usize, usize)>,
    test: Vec<(usize, usize)>,
}

/// Running communication tallies (local mirror of the obs counters, kept
/// unconditionally so `ShardStats` works with observability off).
#[derive(Clone, Copy, Default)]
struct Comm {
    halo_bytes: u64,
    halo_vectors: u64,
    allreduce_bytes: u64,
}

impl Comm {
    /// Counts one halo exchange moving `v` vectors in `bytes` bytes.
    fn halo(&mut self, v: u64, bytes: u64) {
        HALO_VECTORS.add(v);
        HALO_BYTES.add(bytes);
        self.halo_vectors += v;
        self.halo_bytes += bytes;
    }
}

/// Fixed-order tree allreduce over per-shard fixed-point partials, held
/// as `k` equal rows of the flat buffer `parts`: stride-doubling
/// pairwise merges (`s ← s + gap`, gap = 1, 2, 4, …), the classic
/// recursive-halving schedule, in place, leaving the total in row 0.
/// Exactness of the `i128` combine means the tree shape cannot affect
/// the result; the fixed order makes the traffic pattern auditable and
/// the byte count, added to `comm`, deterministic.
fn tree_allreduce(parts: &mut [i128], k: usize, comm: &mut Comm) {
    let width = parts.len() / k;
    let (mut gap, mut bytes) = (1, 0u64);
    while gap < k {
        let mut s = 0;
        while s + gap < k {
            let (dst, src) = parts.split_at_mut((s + gap) * width);
            bytes += (width * std::mem::size_of::<i128>()) as u64;
            merge_fx(&mut dst[s * width..(s + 1) * width], &src[..width]);
            s += 2 * gap;
        }
        gap *= 2;
    }
    ALLREDUCE_BYTES.add(bytes);
    comm.allreduce_bytes += bytes;
}

/// Bounded-retry budget for a checksum-failed halo exchange.
const MAX_HALO_RETRIES: u32 = 3;

/// Shard `shard`'s `n_local × d` propagation input: owned row `r` from
/// `owned`, halo slot `t` from `ghost(t)`.
fn assemble<'g>(
    shard: &Shard,
    owned: &DenseMatrix,
    d: usize,
    ghost: impl Fn(usize) -> &'g [f32],
) -> DenseMatrix {
    let mut h = DenseMatrix::zeros(shard.n_local(), d);
    for (r, &lr) in shard.owned_local.iter().enumerate() {
        h.row_mut(lr as usize).copy_from_slice(owned.row(r));
    }
    for (t, &hl) in shard.halo_local.iter().enumerate() {
        h.row_mut(hl as usize).copy_from_slice(ghost(t));
    }
    h
}

/// Builds shard `s`'s ghost matrix (`|halo| × d`) from the senders'
/// dequantized export blocks — the receive side of a compressed
/// exchange. `halo_pos[s][t]` locates halo slot `t`'s row inside its
/// owner's block.
fn build_ghost(
    plan: &ShardPlan,
    halo_pos: &[Vec<u32>],
    deqs: &[DenseMatrix],
    s: usize,
    d: usize,
) -> DenseMatrix {
    let shard = &plan.shards[s];
    let mut gm = DenseMatrix::zeros(shard.halo.len(), d);
    for (j, &(owner, _rank)) in shard.halo_src.iter().enumerate() {
        gm.row_mut(j).copy_from_slice(deqs[owner as usize].row(halo_pos[s][j] as usize));
    }
    gm
}

/// Owned-row propagation from an `interior` part precomputed during the
/// exchange plus boundary rows recomputed over the assembled inputs
/// `full` — row for row the kernel invocations of the unsplit
/// propagation: both sub-operators carry *complete* rows of the local
/// operator, so every row goes through the unsplit SpMM kernel and keeps
/// its exact bit pattern.
fn merge_boundary(
    shard: &Shard,
    op_boundary: &CsrGraph,
    interior: &DenseMatrix,
    full: &DenseMatrix,
) -> DenseMatrix {
    let mut out = interior.clone();
    let boundary = spmm(op_boundary, full);
    for &r in shard.boundary_rows() {
        out.row_mut(r as usize)
            .copy_from_slice(boundary.row(shard.owned_local[r as usize] as usize));
    }
    out
}

/// The checksum-verified-retry policy of DESIGN.md §8 for one exchange's
/// per-shard buffers: sender-side CRC-32s of the pristine `bufs`, one
/// injected in-transit corruption, then up to [`MAX_HALO_RETRIES`]
/// rounds that rebuild every mismatching buffer from its (still
/// pristine) source with `rebuild`. Returns `(exchange, retries)` when a
/// buffer is still corrupt after the budget.
fn verify_with_retry(
    fp: &FaultPlan,
    xid: u64,
    bufs: &mut [DenseMatrix],
    rebuild: impl Fn(usize) -> DenseMatrix,
) -> Option<(u64, u32)> {
    let k = bufs.len();
    let want: Vec<u32> = bufs.iter().map(|h| crc32_f32s(h.data())).collect();
    fp.corrupt_halo_buf(xid, bufs[xid as usize % k].data_mut());
    let mut retries = 0u32;
    loop {
        let bad: Vec<usize> = (0..k).filter(|&s| crc32_f32s(bufs[s].data()) != want[s]).collect();
        if bad.is_empty() {
            return None;
        }
        if retries >= MAX_HALO_RETRIES {
            return Some((xid, retries));
        }
        retries += 1;
        sgnn_fault::record_recovery_retry();
        // Re-exchange only the shards whose buffer failed.
        for &s in &bad {
            bufs[s] = rebuild(s);
        }
    }
}

/// Shared state of one sharded run.
struct Runtime<'a> {
    plan: &'a ShardPlan,
    ctxs: &'a [ShardCtx],
    /// Layer widths `[in_dim, hidden…, classes]`.
    dims: Vec<usize>,
    total_w: f32,
    comm: Comm,
    /// Armed fault injector; `None` also disables the halo checksum
    /// verification below, keeping the fault machinery zero-overhead for
    /// normal runs (the repo-wide "free when off" rule).
    fault: Option<&'a FaultPlan>,
    /// Global BSP superstep counter: every compute barrier and every
    /// exchange barrier across all epochs increments it, which gives
    /// `Fault::KillAtSuperstep` a stable positional address.
    superstep: u64,
    /// Global halo-exchange counter (training and eval passes).
    exchange_idx: u64,
    /// Superstep at which an armed kill fired.
    killed: Option<u64>,
    /// `(exchange, retries)` of a halo exchange still corrupt after the
    /// retry budget.
    halo_fail: Option<(u64, u32)>,
    /// Compressed-regime state (`None` = exact regime). Training passes
    /// route through the compressed forward/backward when set; eval
    /// passes always exchange exact f32.
    comm_state: Option<CommState>,
    /// True while an evaluation pass runs, routing exchange latency to
    /// `comm.eval_halo_exchange.ns` instead of the training histogram.
    in_eval: bool,
    /// Backward scratch per layer, reused every epoch: the fixed-point
    /// `[gW | gb]` partials, `k` rows of `d_in·d_out + d_out` slots, the
    /// allreduced total landing in row 0.
    fx: Vec<Vec<i128>>,
}

impl Runtime<'_> {
    fn num_layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// One BSP barrier: advances the superstep counter, polls the kill
    /// site, and reports whether the epoch should abort (either from a
    /// kill at this barrier or a fault recorded at an earlier one).
    fn poll_superstep(&mut self) -> bool {
        let s = self.superstep;
        self.superstep += 1;
        if let Some(plan) = self.fault {
            if plan.poll_kill_superstep(s) {
                self.killed = Some(s);
            }
        }
        self.faulted()
    }

    fn faulted(&self) -> bool {
        self.killed.is_some() || self.halo_fail.is_some()
    }

    /// The error for a recorded fault, if any (checked by the epoch loop
    /// after each phase so `Err` is returned instead of panicking).
    fn fault_error(&self) -> Option<TrainError> {
        if let Some((exchange, retries)) = self.halo_fail {
            return Some(TrainError::HaloCorrupt { exchange, retries });
        }
        self.killed.map(|s| TrainError::InjectedCrash { site: "superstep", at: s })
    }

    fn state(&self) -> &CommState {
        self.comm_state.as_ref().expect("compressed regime")
    }

    fn state_mut(&mut self) -> &mut CommState {
        self.comm_state.as_mut().expect("compressed regime")
    }

    /// Halo exchange: builds each shard's full `n_local × d` buffer from
    /// the per-shard owned-row matrices `outs` — own rows scattered into
    /// place, ghost rows copied from their owners through the
    /// precomputed `halo_src` map. Double-buffered by construction: the
    /// sources (`outs`) and destinations are distinct allocations, so
    /// every shard reads a consistent snapshot regardless of task
    /// scheduling. With a fault plan armed, the buffers go through
    /// [`verify_with_retry`]; without one no checksums are computed.
    fn exchange(&mut self, outs: &[DenseMatrix], d: usize) -> Vec<DenseMatrix> {
        let t_exch = Instant::now();
        let xid = self.exchange_idx;
        self.exchange_idx += 1;
        let plan = self.plan;
        let build = |s: usize| {
            let shard = &plan.shards[s];
            assemble(shard, &outs[s], d, |t| {
                let (owner, rank) = shard.halo_src[t];
                outs[owner as usize].row(rank as usize)
            })
        };
        let mut built = par_map_chunks(plan.k, build);
        let v = plan.halo_vectors();
        self.comm.halo(v, v * d as u64 * 4);
        if let Some(fail) = self.fault.and_then(|fp| verify_with_retry(fp, xid, &mut built, build))
        {
            self.halo_fail = Some(fail);
        }
        self.record_exchange_ns(t_exch);
        built
    }

    /// Records an exchange's wall time into the training or eval
    /// latency histogram depending on the current pass.
    fn record_exchange_ns(&self, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        if self.in_eval {
            EVAL_HALO_EXCHANGE_NS.record(ns);
        } else {
            HALO_EXCHANGE_NS.record(ns);
        }
    }

    /// One shard's propagation: local SpMM over the shard operator, then
    /// the owned rows gathered out (halo rows of the product are never
    /// read — their local adjacency is empty).
    fn propagate_owned(&self, s: usize, input: &DenseMatrix) -> DenseMatrix {
        spmm(&self.plan.shards[s].op, input).gather_rows(&self.ctxs[s].owned_rows)
    }

    // ---- Compressed regime (DESIGN.md §11) ----------------------------

    /// Sender-side compression superstep at `site`: each shard gathers
    /// its export block, adds its error-feedback residual, quantizes,
    /// and keeps the new residual. Returns the dequantized blocks every
    /// receiver reads — sender and receivers decode identically, so one
    /// quantization per exported row serves all its ghost copies.
    fn compress_blocks(&mut self, site: usize, outs: &[DenseMatrix]) -> Vec<DenseMatrix> {
        let k = self.plan.k;
        let state = self.state_mut();
        let mode = state.mode;
        let (exports, resids) = (&state.exports, &state.residuals[site]);
        let (deqs, resids) = par_map_chunks(k, |s| {
            let block = outs[s].gather_rows(&exports[s]);
            let mut r = resids[s].clone();
            let deq = ef_compress_rows(&block, &mut r, mode);
            (deq, r)
        })
        .into_iter()
        .unzip();
        state.residuals[site] = resids;
        deqs
    }

    /// One overlap superstep: pool tasks `0..k` run `front(s)` (the
    /// exchange side) while tasks `k..2k` run interior aggregation
    /// `op_interior · outs` for the next propagation. Returns both
    /// halves and the interior tasks' nanoseconds — the compute hidden
    /// behind the exchange.
    fn with_interior(
        &self,
        outs: &[DenseMatrix],
        front: impl Fn(usize) -> DenseMatrix + Sync,
    ) -> (Vec<DenseMatrix>, Vec<DenseMatrix>, u64) {
        let k = self.plan.k;
        let op_interior = &self.state().op_interior;
        let (mut fronts, ns): (Vec<DenseMatrix>, Vec<u64>) = par_map_chunks(2 * k, |t| {
            let t0 = Instant::now();
            let m = if t < k { front(t) } else { spmm(&op_interior[t - k], &outs[t - k]) };
            (m, t0.elapsed().as_nanos() as u64)
        })
        .into_iter()
        .unzip();
        let interiors = fronts.split_off(k);
        (fronts, interiors, ns[k..].iter().sum())
    }

    /// One compressed refresh at `site`: compression, the ghost build
    /// overlapped with interior aggregation, checksum verification under
    /// an armed fault plan, and assembly of the propagation inputs.
    /// Settles all byte accounting (`comm.halo_bytes` counts quantized
    /// wire bytes per (ghost, reader) pair; the delta to the exact
    /// regime's `4·d` per pair goes to `comm.bytes_saved`). Returns the
    /// ghosts, the assembled inputs and the interior aggregation.
    #[allow(clippy::type_complexity)]
    fn refresh_compressed(
        &mut self,
        site: usize,
        outs: &[DenseMatrix],
        d: usize,
    ) -> (Vec<DenseMatrix>, Vec<DenseMatrix>, Vec<DenseMatrix>) {
        let xid = self.exchange_idx;
        self.exchange_idx += 1;
        let deqs = self.compress_blocks(site, outs);
        let plan = self.plan;
        let halo_pos = &self.state().halo_pos;
        let ghost = |s: usize| build_ghost(plan, halo_pos, &deqs, s, d);
        let (mut ghosts, interiors, ns) = self.with_interior(outs, ghost);
        OVERLAP_NS.add(ns);
        if let Some(fail) = self.fault.and_then(|fp| verify_with_retry(fp, xid, &mut ghosts, ghost))
        {
            self.halo_fail = Some(fail);
        }
        let v = plan.halo_vectors();
        let wire = v * wire_bytes_per_vector(self.state().mode, d);
        let saved = v * 4 * d as u64 - wire;
        self.comm.halo(v, wire);
        BYTES_SAVED.add(saved);
        let state = self.state_mut();
        state.overlap_ns += ns;
        state.bytes_saved += saved;
        let fulls = par_map_chunks(plan.k, |s| {
            assemble(&plan.shards[s], &outs[s], d, |j| ghosts[s].row(j))
        });
        (ghosts, fulls, interiors)
    }

    /// One compressed forward exchange at `site` — or a stale-hit skip,
    /// which assembles the propagation inputs from the site's ghost
    /// cache with no wire traffic at all while interior aggregation runs
    /// alongside. Returns the assembled propagation inputs and the
    /// interior aggregation for the next layer.
    fn exchange_compressed_fwd(
        &mut self,
        site: usize,
        outs: &[DenseMatrix],
        d: usize,
    ) -> (Vec<DenseMatrix>, Vec<DenseMatrix>) {
        let t_exch = Instant::now();
        if self.state_mut().tick_refresh(site) {
            let (ghosts, fulls, interiors) = self.refresh_compressed(site, outs, d);
            self.state_mut().cache[site] = ghosts;
            self.record_exchange_ns(t_exch);
            return (fulls, interiors);
        }
        let v = self.plan.halo_vectors();
        let exact_bytes = v * 4 * d as u64;
        STALE_HITS.add(v);
        BYTES_SAVED.add(exact_bytes);
        let state = self.state_mut();
        state.stale_hits += v;
        state.bytes_saved += exact_bytes;
        let (plan, cache) = (self.plan, &self.state().cache[site]);
        let (fulls, interiors, _) = self
            .with_interior(outs, |s| assemble(&plan.shards[s], &outs[s], d, |j| cache[s].row(j)));
        (fulls, interiors)
    }

    /// Compressed backward exchange for layer `i > 0`: error-feedback
    /// compressed gradients, always fresh (staleness applies to forward
    /// activations only), overlapped with interior propagation. Returns
    /// the next `g_owned`.
    fn exchange_compressed_bwd(
        &mut self,
        l: usize,
        i: usize,
        d_ahs: &[DenseMatrix],
        d: usize,
    ) -> Vec<DenseMatrix> {
        let t_exch = Instant::now();
        let (_, fulls, interiors) = self.refresh_compressed(CommState::bwd_site(l, i), d_ahs, d);
        self.record_exchange_ns(t_exch);
        let (plan, op_boundary) = (self.plan, &self.state().op_boundary);
        par_map_chunks(plan.k, |s| {
            merge_boundary(&plan.shards[s], &op_boundary[s], &interiors[s], &fulls[s])
        })
    }

    /// Training forward: per layer, a compute superstep (one pool task
    /// per shard running [`Gcn::layer_forward`] on its owned rows)
    /// followed by a halo-exchange superstep; the `par_map_chunks` join
    /// is the BSP barrier. Returns per-shard owned-row logits plus the
    /// per-layer step caches backward needs.
    ///
    /// In the compressed regime (DESIGN.md §11), layers after the first
    /// merge the interior aggregation precomputed during the previous
    /// exchange with boundary rows recomputed over the assembled
    /// (quantized and possibly stale) inputs. The layer step is the same
    /// in both regimes, which is why `F32` quantization with staleness
    /// ≤ 1 reproduces the exact path bitwise.
    fn forward_train(&mut self, gcn: &Gcn, call: u64) -> (Vec<DenseMatrix>, Vec<Vec<StepCache>>) {
        let l = self.num_layers();
        let mut caches: Vec<Vec<StepCache>> = Vec::with_capacity(l);
        let (mut h_locals, mut x_int): (Vec<DenseMatrix>, Vec<DenseMatrix>) = Default::default();
        for i in 0..l {
            if self.poll_superstep() {
                break;
            }
            let (this, h_ref, x_ref) = (&*self, &h_locals, &x_int);
            let results: Vec<(DenseMatrix, StepCache)> = par_map_chunks(this.plan.k, |s| {
                let shard = &this.plan.shards[s];
                let x = match &this.comm_state {
                    Some(st) if i > 0 => {
                        merge_boundary(shard, &st.op_boundary[s], &x_ref[s], &h_ref[s])
                    }
                    _ => this.propagate_owned(
                        s,
                        if i == 0 { &this.ctxs[s].features } else { &h_ref[s] },
                    ),
                };
                let (z, mask) =
                    gcn.layer_forward(i, &x, Some(StepRows { call, ids: Some(&shard.owned) }));
                (z, StepCache { x, mask })
            });
            let (zs, layer_caches): (Vec<_>, Vec<_>) = results.into_iter().unzip();
            caches.push(layer_caches);
            if i + 1 == l {
                return (zs, caches);
            }
            if self.poll_superstep() {
                break;
            }
            let d_out = self.dims[i + 1];
            if self.comm_state.is_some() {
                (h_locals, x_int) = self.exchange_compressed_fwd(i, &zs, d_out);
            } else {
                h_locals = self.exchange(&zs, d_out);
            }
        }
        (Vec::new(), caches)
    }

    /// Loss + logits gradient over each shard's owned train rows. The
    /// scalar loss is a fixed-point partial per shard, tree-allreduced;
    /// gradient rows are per-row given the global weight total.
    fn loss_and_grad(&mut self, logits: &[DenseMatrix]) -> (f32, Vec<DenseMatrix>) {
        if self.poll_superstep() {
            return (0.0, Vec::new());
        }
        let c = self.dims[self.num_layers()];
        let (ctxs, total_w) = (self.ctxs, self.total_w);
        let parts: Vec<(i128, DenseMatrix)> = par_map_chunks(self.plan.k, |s| {
            let mut dl = DenseMatrix::zeros(logits[s].rows(), c);
            let mut acc = 0i128;
            for &(r, label) in &ctxs[s].train {
                let row = dl.row_mut(r);
                row.copy_from_slice(logits[s].row(r));
                acc = acc.wrapping_add(loss_row_fx(row, label, 1.0, total_w));
            }
            (acc, dl)
        });
        let (mut loss_parts, dls): (Vec<i128>, Vec<DenseMatrix>) = parts.into_iter().unzip();
        tree_allreduce(&mut loss_parts, self.plan.k, &mut self.comm);
        (loss_from_fx(loss_parts[0], total_w), dls)
    }

    /// Backward: mirrored supersteps. Each layer's compute step runs
    /// [`Gcn::layer_backward`] on every shard's owned rows, folding the
    /// shard's fixed-point `[gW | gb]` partial and, above layer 0,
    /// forming `dY·Wᵀ`; the exchange step moves halo gradients and
    /// propagates through the local operator. Partials are
    /// tree-allreduced and written into the model's gradient buffers
    /// (one `i128 → f32` rounding, same as the reference).
    fn backward(
        &mut self,
        gcn: &mut Gcn,
        mut g_owned: Vec<DenseMatrix>,
        caches: &[Vec<StepCache>],
        call: u64,
    ) {
        let l = self.num_layers();
        let k = self.plan.k;
        for i in (0..l).rev() {
            if self.poll_superstep() {
                return;
            }
            let (plan, g_ref, model) = (self.plan, &g_owned, &*gcn);
            let fx = &mut self.fx[i];
            fx.fill(0);
            // Shard s owns row s of the layer's partials.
            let width = fx.len() / k;
            let rows: Vec<Mutex<&mut [i128]>> =
                fx.chunks_exact_mut(width).map(Mutex::new).collect();
            let d_ahs: Vec<DenseMatrix> = par_map_chunks(k, |s| {
                let mut row = rows[s].lock().unwrap_or_else(|e| e.into_inner());
                let at = StepRows { call, ids: Some(&plan.shards[s].owned) };
                model.layer_backward(i, &caches[i][s], &g_ref[s], at, &mut row, i > 0)
            })
            .into_iter()
            .flatten()
            .collect();
            drop(rows);
            tree_allreduce(fx, k, &mut self.comm);
            if i > 0 {
                // Layer 0's input gradient is never formed, so there is
                // nothing to propagate below it. One poll covers the
                // exchange and the propagate barrier it feeds.
                if self.poll_superstep() {
                    return;
                }
                let d_in = self.dims[i];
                if self.comm_state.is_some() {
                    g_owned = self.exchange_compressed_bwd(l, i, &d_ahs, d_in);
                } else {
                    let full = self.exchange(&d_ahs, d_in);
                    let this = &*self;
                    g_owned = par_map_chunks(k, |s| this.propagate_owned(s, &full[s]));
                }
            }
        }
        gcn.zero_grad();
        for (i, fx) in self.fx.iter().enumerate() {
            // Row 0 of each layer's partials holds the allreduced total.
            gcn.layer_mut(i).accumulate_fx(&fx[..fx.len() / k]);
        }
    }

    /// Sharded inference forward (no dropout, no caches): per-shard
    /// owned-row logits, bitwise equal to the full-graph
    /// `forward_inference` rows.
    fn inference_logits(&mut self, gcn: &Gcn) -> Vec<DenseMatrix> {
        let l = self.num_layers();
        let mut h_locals: Vec<DenseMatrix> = Vec::new();
        for i in 0..l {
            let (this, h_ref) = (&*self, &h_locals);
            let zs = par_map_chunks(this.plan.k, |s| {
                let input = if i == 0 { &this.ctxs[s].features } else { &h_ref[s] };
                gcn.layer_forward(i, &this.propagate_owned(s, input), None).0
            });
            if i + 1 == l {
                return zs;
            }
            h_locals = self.exchange(&zs, self.dims[i + 1]);
        }
        unreachable!("models have at least one layer")
    }

    /// Split accuracy from per-shard logits: integer hit counts summed
    /// across shards over the global split size — the same division the
    /// reference performs.
    fn accuracy_of<F>(&self, logits: &[DenseMatrix], pick: F, total: usize) -> f64
    where
        F: Fn(&ShardCtx) -> &[(usize, usize)] + Sync,
    {
        if total == 0 {
            return 0.0;
        }
        let ctxs = self.ctxs;
        let hits: usize = par_map_chunks(self.plan.k, |s| {
            pick(&ctxs[s])
                .iter()
                .filter(|&&(r, label)| vecops::argmax(logits[s].row(r)) == label)
                .count()
        })
        .into_iter()
        .sum();
        hits as f64 / total as f64
    }
}

/// The sharded trainer's evolving state: the model, the runtime (whose
/// compressed-regime comm state rides in each checkpoint as a sidecar)
/// and the eval-pass traffic kept out of the training tallies.
struct Sharded<'a> {
    gcn: Gcn,
    rt: Runtime<'a>,
    eval_comm: Comm,
    /// Epochs executed by *this* run (excluding resumed-past ones), so
    /// per-epoch communication stats stay honest after a resume.
    session_epochs: usize,
}

impl Checkpointed for Sharded<'_> {
    fn ckpt_parts(&mut self) -> Option<(&mut dyn SlotParams, Option<&mut dyn CkptSidecar>)> {
        let side = self.rt.comm_state.as_mut().map(|s| s as &mut dyn CkptSidecar);
        Some((&mut self.gcn, side))
    }
}

impl Sharded<'_> {
    fn epoch(&mut self, ep: &mut Epoch<'_>) -> TrainResult<Option<f32>> {
        let (gcn, rt) = (&mut self.gcn, &mut self.rt);
        self.session_epochs += 1;
        let call = ep.index as u64 + 1; // the reference model's dropout call number
        let (loss, dl_owned, caches) = ep.phases.time(Phase::Forward, || {
            let (logits, caches) = rt.forward_train(gcn, call);
            if rt.faulted() {
                return (0.0, Vec::new(), caches);
            }
            let (loss, dl) = rt.loss_and_grad(&logits);
            (loss, dl, caches)
        });
        if let Some(e) = rt.fault_error() {
            return Err(e);
        }
        ep.phases.time(Phase::Backward, || rt.backward(gcn, dl_owned, &caches, call));
        if let Some(e) = rt.fault_error() {
            return Err(e);
        }
        let opt = &mut *ep.opt;
        ep.phases.time(Phase::Step, || gcn.step(opt));
        if let Some(st) = &rt.comm_state {
            // Effective ratio of exact-equivalent ghost bytes to bytes
            // moved (×1000); stale hits count as moved-for-free, so s > 1
            // pushes the ratio beyond pure quantization.
            let moved = rt.comm.halo_bytes.max(1);
            COMPRESSION_RATIO.set((moved + st.bytes_saved).saturating_mul(1000) / moved);
        }
        Ok(Some(loss))
    }

    /// `(val, test)` accuracy from an exact sharded inference pass (test
    /// is 0 unless `test`). The pass's halo traffic is reclassified as
    /// eval traffic so per-epoch training volume stays a clean multiple
    /// of the plan.
    fn eval(&mut self, ds: &Dataset, test: bool) -> TrainResult<(f64, f64)> {
        let rt = &mut self.rt;
        let before = rt.comm;
        rt.in_eval = true;
        let logits = rt.inference_logits(&self.gcn);
        rt.in_eval = false;
        if let Some(e) = rt.fault_error() {
            return Err(e);
        }
        self.eval_comm.halo_bytes += rt.comm.halo_bytes - before.halo_bytes;
        self.eval_comm.halo_vectors += rt.comm.halo_vectors - before.halo_vectors;
        rt.comm = before;
        let val = rt.accuracy_of(&logits, |c| &c.val, ds.splits.val.len());
        Ok((
            val,
            if test { rt.accuracy_of(&logits, |c| &c.test, ds.splits.test.len()) } else { 0.0 },
        ))
    }
}

/// Trains a full-batch GCN shard-parallel over `part`, bitwise
/// reproducing [`crate::trainer::train_full_gcn`] (see the module docs
/// for the contract). Returns the model, the usual report, and the
/// measured communication profile. A partition that does not cover the
/// dataset, or names a part id ≥ `part.k`, is refused.
pub fn train_sharded_gcn(
    ds: &Dataset,
    part: &Partition,
    cfg: &TrainConfig,
) -> TrainResult<(Gcn, TrainReport, ShardStats)> {
    let n = ds.num_nodes();
    if part.parts.len() != n {
        return Err(TrainError::InvalidInput(format!(
            "partition covers {} nodes, the dataset has {n}",
            part.parts.len()
        )));
    }
    if let Some(&p) = part.parts.iter().find(|&&p| p as usize >= part.k) {
        return Err(TrainError::InvalidInput(format!("part id {p} with k = {}", part.k)));
    }
    let mut driver = Driver::new(cfg, ds)?;
    let k = part.k;
    let t0 = Instant::now();
    let op = gcn_operator(&ds.graph);
    let op_bytes = op.nbytes();
    driver.ledger.try_alloc(op_bytes)?;
    let plan = ShardPlan::build(&op, part).expect("operator covered by partition");
    driver.ledger.try_alloc(plan.nbytes())?;
    drop(op);
    driver.ledger.free(op_bytes);

    // Owned-rank lookup for translating split membership.
    let mut rank_of = vec![0u32; n];
    for shard in &plan.shards {
        for (r, &g) in shard.owned.iter().enumerate() {
            rank_of[g as usize] = r as u32;
        }
    }
    let mut ctxs: Vec<ShardCtx> = plan
        .shards
        .iter()
        .map(|shard| {
            let rows: Vec<usize> = shard.locals.iter().map(|&g| g as usize).collect();
            ShardCtx {
                owned_rows: shard.owned_local.iter().map(|&r| r as usize).collect(),
                features: ds.features.gather_rows(&rows),
                train: Vec::new(),
                val: Vec::new(),
                test: Vec::new(),
            }
        })
        .collect();
    for (nodes, pick) in [(&ds.splits.train, 0usize), (&ds.splits.val, 1), (&ds.splits.test, 2)] {
        let labels = ds.labels_of(nodes);
        for (&u, &label) in nodes.iter().zip(&labels) {
            let ctx = &mut ctxs[part.parts[u as usize] as usize];
            let entry = (rank_of[u as usize] as usize, label);
            match pick {
                0 => ctx.train.push(entry),
                1 => ctx.val.push(entry),
                _ => ctx.test.push(entry),
            }
        }
    }
    driver.ledger.try_alloc(ctxs.iter().map(|c| c.features.nbytes()).sum())?;
    let precompute_secs = t0.elapsed().as_secs_f64();

    let gcn = new_gcn(ds, cfg);
    let dims = layer_dims(ds, cfg);
    let l = dims.len() - 1;
    // Transient: two activations per layer per shard, the fixed-point
    // partials (k shard rows per layer, reused every epoch; the charge
    // keeps one more copy than the in-place allreduce needs), and the
    // parameters (`step_bytes(0, ·)` is the parameter-only term).
    let acts: usize = plan
        .shards
        .iter()
        .map(|s| dims.iter().map(|&d| 2 * s.n_local() * d * 4).sum::<usize>())
        .sum();
    let fx_bytes: usize =
        (0..l).map(|i| (dims[i] * dims[i + 1] + dims[i + 1]) * 16).sum::<usize>() * (k + 1);
    driver.ledger.try_transient(acts + fx_bytes + gcn.step_bytes(0, ds.feature_dim()))?;
    SKEW.record((plan.nnz_skew() * 1000.0) as u64);

    // Compressed-regime state: export lists, interior/boundary
    // sub-operators, EF residuals, and ghost caches — charged to the
    // ledger like any other resident structure.
    let comm_state = cfg
        .comm_regime
        .compressed()
        .map(|(mode, staleness)| CommState::build(&plan, &dims, mode, staleness));
    if let Some(st) = &comm_state {
        driver.ledger.try_alloc(st.nbytes(&plan, &dims))?;
    }

    let rt = Runtime {
        plan: &plan,
        ctxs: &ctxs,
        total_w: (ds.splits.train.len() as f32).max(1e-12),
        comm: Comm::default(),
        fault: cfg.fault_plan.as_deref(),
        superstep: 0,
        exchange_idx: 0,
        killed: None,
        halo_fail: None,
        comm_state,
        in_eval: false,
        fx: (0..l).map(|i| vec![0i128; k * (dims[i] * dims[i + 1] + dims[i + 1])]).collect(),
        dims,
    };
    let mut st = Sharded { gcn, rt, eval_comm: Comm::default(), session_epochs: 0 };
    let report = driver.run(
        format!("gcn-shard-k{k}"),
        precompute_secs,
        &mut st,
        |st, ep| st.epoch(ep),
        |st, test| st.eval(ds, test),
    )?;
    let Sharded { gcn, rt, eval_comm, session_epochs } = st;
    let train_comm = rt.comm;
    let epochs_div = session_epochs.max(1) as u64;
    let (bytes_saved, stale_hits, overlap_ns) = rt
        .comm_state
        .as_ref()
        .map(|s| (s.bytes_saved, s.stale_hits, s.overlap_ns))
        .unwrap_or((0, 0, 0));
    let stats = ShardStats {
        k,
        epochs: report.epochs_run,
        halo_vectors_per_exchange: plan.halo_vectors(),
        exchanges_per_epoch: 2 * (l as u64 - 1),
        halo_bytes_per_epoch: train_comm.halo_bytes / epochs_div,
        halo_vectors_per_epoch: train_comm.halo_vectors / epochs_div,
        allreduce_bytes_per_epoch: train_comm.allreduce_bytes / epochs_div,
        eval_halo_bytes: eval_comm.halo_bytes,
        nnz_skew: plan.nnz_skew(),
        replication_slots: plan.shards.iter().map(|s| s.n_local() as u64).sum(),
        regime: cfg.comm_regime.label(),
        halo_bytes_saved_per_epoch: bytes_saved / epochs_div,
        stale_hits,
        overlap_ns,
    };
    Ok((gcn, report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_full_gcn;
    use sgnn_data::sbm_dataset;
    use sgnn_partition::hash_partition;

    fn weights_equal(a: &Gcn, b: &Gcn) -> bool {
        (0..a.num_layers()).all(|i| {
            let (la, lb) = (a.layer(i), b.layer(i));
            la.w.data().iter().map(|v| v.to_bits()).eq(lb.w.data().iter().map(|v| v.to_bits()))
                && la.b.data().iter().map(|v| v.to_bits()).eq(lb
                    .b
                    .data()
                    .iter()
                    .map(|v| v.to_bits()))
        })
    }

    #[test]
    fn sharded_matches_single_process_bitwise_smoke() {
        let ds = sbm_dataset(300, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 7);
        let cfg = TrainConfig { epochs: 5, hidden: vec![8], ..Default::default() };
        let (ref_gcn, ref_report) = train_full_gcn(&ds, &cfg).unwrap();
        for k in [1usize, 3] {
            let part = hash_partition(ds.num_nodes(), k);
            let (gcn, report, stats) = train_sharded_gcn(&ds, &part, &cfg).unwrap();
            assert_eq!(report.final_loss.to_bits(), ref_report.final_loss.to_bits(), "k={k}");
            assert_eq!(report.test_acc, ref_report.test_acc, "k={k}");
            assert_eq!(report.val_acc, ref_report.val_acc, "k={k}");
            assert_eq!(report.epochs_run, ref_report.epochs_run, "k={k}");
            assert!(weights_equal(&ref_gcn, &gcn), "weight trajectory diverged at k={k}");
            assert_eq!(stats.k, k);
            if k == 1 {
                assert_eq!(stats.halo_bytes_per_epoch, 0, "k=1 has no ghosts");
            } else {
                assert!(stats.halo_bytes_per_epoch > 0);
                assert_eq!(
                    stats.halo_vectors_per_epoch,
                    stats.halo_vectors_per_exchange * stats.exchanges_per_epoch
                );
            }
        }
    }

    #[test]
    fn early_stopping_decisions_match_the_reference() {
        let ds = sbm_dataset(240, 3, 8.0, 0.9, 5, 0.7, 0, 0.5, 0.25, 3);
        let cfg =
            TrainConfig { epochs: 40, hidden: vec![8], patience: Some(4), ..Default::default() };
        let (_, ref_report) = train_full_gcn(&ds, &cfg).unwrap();
        let part = hash_partition(ds.num_nodes(), 2);
        let (_, report, _) = train_sharded_gcn(&ds, &part, &cfg).unwrap();
        assert_eq!(report.epochs_run, ref_report.epochs_run);
        assert_eq!(report.val_acc, ref_report.val_acc);
        assert_eq!(report.final_loss.to_bits(), ref_report.final_loss.to_bits());
    }
}
