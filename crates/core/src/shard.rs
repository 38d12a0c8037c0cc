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
//!    ([`sgnn_linalg::reduce`]) by both the reference kernels and the
//!    shards; `wrapping_add` is associative, so per-shard partials
//!    combined by the fixed-order tree allreduce equal the sequential
//!    fold exactly, with one rounding at the final `f32` write-back.
//! 3. **Randomness is stateless.** Dropout masks are per-element hashes
//!    of `(layer seed, epoch, global row, column)`
//!    ([`sgnn_nn::layers::Dropout::element_scale`]), so a shard
//!    regenerates exactly the mask entries of the rows it owns.
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
use crate::models::gcn::{gcn_operator, Gcn};
use crate::shard_comm::CommState;
use crate::trainer::{TrainConfig, TrainReport};
use sgnn_data::Dataset;
use sgnn_fault::crc::crc32_f32s;
use sgnn_fault::FaultPlan;
use sgnn_graph::spmm::spmm_into;
use sgnn_linalg::par::par_map_chunks;
use sgnn_linalg::quant::{ef_compress_rows, wire_bytes_per_vector};
use sgnn_linalg::reduce::{accumulate_fx, colsum_fx, grad_fx, merge_fx};
use sgnn_linalg::{vecops, DenseMatrix};
use sgnn_nn::layers::Dropout;
use sgnn_nn::loss::{loss_from_fx, xent_grad_row, xent_softmaxed_row_fx};
use sgnn_obs::Phase;
use sgnn_partition::{Partition, ShardPlan};
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

/// Fixed-order tree allreduce over per-shard fixed-point partials, held
/// as `k` equal rows of the flat buffer `parts`: stride-doubling
/// pairwise merges (`s ← s + gap`, gap = 1, 2, 4, …), the classic
/// recursive-halving schedule, in place, leaving the total in row 0.
/// Exactness of the `i128` combine means the tree shape cannot affect
/// the result; the fixed order makes the traffic pattern auditable and
/// the byte count deterministic.
fn tree_allreduce(parts: &mut [i128], k: usize, bytes: &mut u64) {
    let width = parts.len() / k;
    let mut gap = 1;
    while gap < k {
        let mut s = 0;
        while s + gap < k {
            let (dst, src) = parts.split_at_mut((s + gap) * width);
            *bytes += (width * std::mem::size_of::<i128>()) as u64;
            merge_fx(&mut dst[s * width..(s + 1) * width], &src[..width]);
            s += 2 * gap;
        }
        gap *= 2;
    }
}

/// Bounded-retry budget for a checksum-failed halo exchange.
const MAX_HALO_RETRIES: u32 = 3;

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

/// Shared state of one sharded run.
struct Runtime<'a> {
    plan: &'a ShardPlan,
    ctxs: &'a [ShardCtx],
    /// Layer widths `[in_dim, hidden…, classes]`.
    dims: Vec<usize>,
    p_drop: f32,
    seed: u64,
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
    /// `gW`/`gb` partials (`k` rows of `d_in·d_out + d_out` slots, the
    /// allreduced total landing in row 0) and `Wᵀ`.
    fx: Vec<Vec<i128>>,
    wt: Vec<DenseMatrix>,
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

    /// Halo exchange: builds each shard's full `n_local × d` buffer from
    /// the per-shard owned-row matrices `outs` — own rows scattered into
    /// place, ghost rows copied from their owners through the
    /// precomputed `halo_src` map. Double-buffered by construction: the
    /// sources (`outs`) and destinations are distinct allocations, so
    /// every shard reads a consistent snapshot regardless of task
    /// scheduling.
    ///
    /// With a fault plan armed, every built buffer is checksummed against
    /// its sender-side CRC-32 and mismatching shards are rebuilt from the
    /// (still pristine) sources, up to [`MAX_HALO_RETRIES`] times — the
    /// checksum-verified-retry recovery policy of DESIGN.md §8. Without a
    /// plan no checksums are computed at all.
    fn exchange(&mut self, outs: &[DenseMatrix], d: usize) -> Vec<DenseMatrix> {
        let t_exch = Instant::now();
        let xid = self.exchange_idx;
        self.exchange_idx += 1;
        let plan = self.plan;
        let build = |s: usize| {
            let shard = &plan.shards[s];
            let mut h = DenseMatrix::zeros(shard.n_local(), d);
            for (r, &lr) in shard.owned_local.iter().enumerate() {
                h.row_mut(lr as usize).copy_from_slice(outs[s].row(r));
            }
            for (t, &(owner, rank)) in shard.halo_src.iter().enumerate() {
                h.row_mut(shard.halo_local[t] as usize)
                    .copy_from_slice(outs[owner as usize].row(rank as usize));
            }
            h
        };
        let mut built = par_map_chunks(plan.k, build);
        let v = plan.halo_vectors();
        let b = v * d as u64 * 4;
        HALO_VECTORS.add(v);
        HALO_BYTES.add(b);
        self.comm.halo_vectors += v;
        self.comm.halo_bytes += b;
        if let Some(fp) = self.fault {
            // Sender-side checksums of the pristine buffers, then the
            // injector corrupts one buffer "in transit".
            let want: Vec<u32> = built.iter().map(|h| crc32_f32s(h.data())).collect();
            fp.corrupt_halo_buf(xid, built[xid as usize % plan.k].data_mut());
            let mut retries = 0u32;
            loop {
                let bad: Vec<usize> =
                    (0..plan.k).filter(|&s| crc32_f32s(built[s].data()) != want[s]).collect();
                if bad.is_empty() {
                    break;
                }
                if retries >= MAX_HALO_RETRIES {
                    self.halo_fail = Some((xid, retries));
                    break;
                }
                retries += 1;
                sgnn_fault::record_recovery_retry();
                // Re-exchange only the shards whose buffer failed.
                for &s in &bad {
                    built[s] = build(s);
                }
            }
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
    fn propagate_owned(&self, s: usize, input: &DenseMatrix, d: usize) -> DenseMatrix {
        let shard = &self.plan.shards[s];
        let mut scratch = DenseMatrix::zeros(shard.n_local(), d);
        spmm_into(&shard.op, input, &mut scratch);
        scratch.gather_rows(&self.ctxs[s].owned_rows)
    }

    // ---- Compressed regime (DESIGN.md §11) ----------------------------

    /// Sender-side compression superstep at `site`: each shard gathers
    /// its export block, adds its error-feedback residual, quantizes,
    /// and keeps the new residual. Returns the dequantized blocks every
    /// receiver reads — sender and receivers decode identically, so one
    /// quantization per exported row serves all its ghost copies.
    fn compress_blocks(&mut self, site: usize, outs: &[DenseMatrix]) -> Vec<DenseMatrix> {
        let k = self.plan.k;
        let state = self.comm_state.as_mut().expect("compressed regime");
        let mode = state.mode;
        let (exports, resids) = (&state.exports, &state.residuals[site]);
        let results: Vec<(DenseMatrix, DenseMatrix)> = par_map_chunks(k, |s| {
            let block = outs[s].gather_rows(&exports[s]);
            let mut r = resids[s].clone();
            let deq = ef_compress_rows(&block, &mut r, mode);
            (deq, r)
        });
        let mut deqs = Vec::with_capacity(k);
        for (s, (deq, r)) in results.into_iter().enumerate() {
            state.residuals[site][s] = r;
            deqs.push(deq);
        }
        deqs
    }

    /// The overlap superstep of a refresh: pool tasks `0..k` materialize
    /// each shard's ghost matrix from the dequantized blocks (the
    /// exchange "in flight") while tasks `k..2k` run interior
    /// aggregation `op_interior · outs` for the next propagation.
    /// Interior task time is recorded as `comm.overlap_ns` — the compute
    /// hidden behind the exchange.
    fn ghosts_with_interior(
        &mut self,
        deqs: &[DenseMatrix],
        outs: &[DenseMatrix],
        d: usize,
    ) -> (Vec<DenseMatrix>, Vec<DenseMatrix>) {
        let k = self.plan.k;
        let plan = self.plan;
        let state = self.comm_state.as_ref().expect("compressed regime");
        let (halo_pos, op_interior) = (&state.halo_pos, &state.op_interior);
        let results: Vec<(DenseMatrix, u64)> = par_map_chunks(2 * k, |t| {
            let t0 = Instant::now();
            let m = if t < k {
                build_ghost(plan, halo_pos, deqs, t, d)
            } else {
                let s = t - k;
                let mut scratch = DenseMatrix::zeros(plan.shards[s].owned.len(), d);
                spmm_into(&op_interior[s], &outs[s], &mut scratch);
                scratch
            };
            (m, t0.elapsed().as_nanos() as u64)
        });
        let mut ghosts = Vec::with_capacity(k);
        let mut interiors = Vec::with_capacity(k);
        let mut ns = 0u64;
        for (t, (m, dt)) in results.into_iter().enumerate() {
            if t < k {
                ghosts.push(m);
            } else {
                interiors.push(m);
                ns += dt;
            }
        }
        OVERLAP_NS.add(ns);
        self.comm_state.as_mut().expect("compressed regime").overlap_ns += ns;
        (ghosts, interiors)
    }

    /// CRC-verifies compressed ghost matrices under an armed fault plan:
    /// sender-side checksums of the pristine builds, one injected
    /// in-transit corruption, and bounded rebuild-from-source retries —
    /// the DESIGN.md §8 policy with the same budget as the exact path.
    fn verify_ghosts(
        &mut self,
        ghosts: &mut [DenseMatrix],
        deqs: &[DenseMatrix],
        xid: u64,
        d: usize,
    ) {
        let Some(fp) = self.fault else { return };
        let k = self.plan.k;
        let mut fail = None;
        {
            let state = self.comm_state.as_ref().expect("compressed regime");
            let want: Vec<u32> = ghosts.iter().map(|g| crc32_f32s(g.data())).collect();
            fp.corrupt_halo_buf(xid, ghosts[xid as usize % k].data_mut());
            let mut retries = 0u32;
            loop {
                let bad: Vec<usize> =
                    (0..k).filter(|&s| crc32_f32s(ghosts[s].data()) != want[s]).collect();
                if bad.is_empty() {
                    break;
                }
                if retries >= MAX_HALO_RETRIES {
                    fail = Some((xid, retries));
                    break;
                }
                retries += 1;
                sgnn_fault::record_recovery_retry();
                for &s in &bad {
                    ghosts[s] = build_ghost(self.plan, &state.halo_pos, deqs, s, d);
                }
            }
        }
        if fail.is_some() {
            self.halo_fail = fail;
        }
    }

    /// Assembles each shard's full `n_local × d` propagation input:
    /// fresh owned rows from `outs`, ghost rows from `ghosts`.
    fn assemble_full(
        &self,
        outs: &[DenseMatrix],
        ghosts: &[DenseMatrix],
        d: usize,
    ) -> Vec<DenseMatrix> {
        let plan = self.plan;
        par_map_chunks(plan.k, |s| {
            let shard = &plan.shards[s];
            let mut h = DenseMatrix::zeros(shard.n_local(), d);
            for (r, &lr) in shard.owned_local.iter().enumerate() {
                h.row_mut(lr as usize).copy_from_slice(outs[s].row(r));
            }
            for (j, &hl) in shard.halo_local.iter().enumerate() {
                h.row_mut(hl as usize).copy_from_slice(ghosts[s].row(j));
            }
            h
        })
    }

    /// Stale superstep: assemble propagation inputs from the site's
    /// ghost cache — no wire traffic at all — while interior aggregation
    /// runs alongside on the same pool.
    fn stale_assemble_with_interior(
        &mut self,
        site: usize,
        outs: &[DenseMatrix],
        d: usize,
    ) -> (Vec<DenseMatrix>, Vec<DenseMatrix>) {
        let k = self.plan.k;
        let plan = self.plan;
        let state = self.comm_state.as_ref().expect("compressed regime");
        let (cache, op_interior) = (&state.cache[site], &state.op_interior);
        let results: Vec<DenseMatrix> = par_map_chunks(2 * k, |t| {
            if t < k {
                let shard = &plan.shards[t];
                let mut h = DenseMatrix::zeros(shard.n_local(), d);
                for (r, &lr) in shard.owned_local.iter().enumerate() {
                    h.row_mut(lr as usize).copy_from_slice(outs[t].row(r));
                }
                for (j, &hl) in shard.halo_local.iter().enumerate() {
                    h.row_mut(hl as usize).copy_from_slice(cache[t].row(j));
                }
                h
            } else {
                let s = t - k;
                let mut scratch = DenseMatrix::zeros(plan.shards[s].owned.len(), d);
                spmm_into(&op_interior[s], &outs[s], &mut scratch);
                scratch
            }
        });
        let mut it = results.into_iter();
        let fulls: Vec<DenseMatrix> = it.by_ref().take(k).collect();
        let interiors: Vec<DenseMatrix> = it.collect();
        (fulls, interiors)
    }

    /// One compressed forward exchange at `site` — or a stale-hit skip.
    /// Returns the assembled propagation inputs and the interior
    /// aggregation for the next layer, and settles all byte accounting
    /// (`comm.halo_bytes` counts quantized wire bytes per (ghost,
    /// reader) pair; the delta to the exact regime's `4·d` per pair goes
    /// to `comm.bytes_saved`).
    fn exchange_compressed_fwd(
        &mut self,
        site: usize,
        outs: &[DenseMatrix],
        d: usize,
    ) -> (Vec<DenseMatrix>, Vec<DenseMatrix>) {
        let t_exch = Instant::now();
        let v = self.plan.halo_vectors();
        let exact_bytes = v * 4 * d as u64;
        let (mode, refresh) = {
            let state = self.comm_state.as_mut().expect("compressed regime");
            (state.mode, state.tick_refresh(site))
        };
        if refresh {
            let xid = self.exchange_idx;
            self.exchange_idx += 1;
            let deqs = self.compress_blocks(site, outs);
            let (mut ghosts, interiors) = self.ghosts_with_interior(&deqs, outs, d);
            self.verify_ghosts(&mut ghosts, &deqs, xid, d);
            let wire = v * wire_bytes_per_vector(mode, d);
            HALO_VECTORS.add(v);
            HALO_BYTES.add(wire);
            BYTES_SAVED.add(exact_bytes - wire);
            self.comm.halo_vectors += v;
            self.comm.halo_bytes += wire;
            let fulls = self.assemble_full(outs, &ghosts, d);
            let state = self.comm_state.as_mut().expect("compressed regime");
            state.bytes_saved += exact_bytes - wire;
            state.cache[site] = ghosts;
            self.record_exchange_ns(t_exch);
            (fulls, interiors)
        } else {
            STALE_HITS.add(v);
            BYTES_SAVED.add(exact_bytes);
            let state = self.comm_state.as_mut().expect("compressed regime");
            state.stale_hits += v;
            state.bytes_saved += exact_bytes;
            self.stale_assemble_with_interior(site, outs, d)
        }
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
        let site = CommState::bwd_site(l, i);
        let v = self.plan.halo_vectors();
        let exact_bytes = v * 4 * d as u64;
        let mode = self.comm_state.as_ref().expect("compressed regime").mode;
        let xid = self.exchange_idx;
        self.exchange_idx += 1;
        let deqs = self.compress_blocks(site, d_ahs);
        let (mut ghosts, interiors) = self.ghosts_with_interior(&deqs, d_ahs, d);
        self.verify_ghosts(&mut ghosts, &deqs, xid, d);
        let wire = v * wire_bytes_per_vector(mode, d);
        HALO_VECTORS.add(v);
        HALO_BYTES.add(wire);
        BYTES_SAVED.add(exact_bytes - wire);
        self.comm.halo_vectors += v;
        self.comm.halo_bytes += wire;
        self.comm_state.as_mut().expect("compressed regime").bytes_saved += exact_bytes - wire;
        let fulls = self.assemble_full(d_ahs, &ghosts, d);
        self.record_exchange_ns(t_exch);
        self.boundary_merge(&interiors, &fulls, d)
    }

    /// Owned-row propagation from a precomputed interior part plus
    /// boundary rows recomputed over the assembled inputs — row-for-row
    /// the same kernel invocations as [`Runtime::propagate_owned`]: both
    /// sub-operators carry *complete* rows of the local operator, so
    /// every row goes through the unsplit SpMM kernel and keeps its
    /// exact bit pattern.
    fn boundary_merge(
        &self,
        interiors: &[DenseMatrix],
        fulls: &[DenseMatrix],
        d: usize,
    ) -> Vec<DenseMatrix> {
        let plan = self.plan;
        let state = self.comm_state.as_ref().expect("compressed regime");
        let op_boundary = &state.op_boundary;
        par_map_chunks(plan.k, |s| {
            let shard = &plan.shards[s];
            let mut out = interiors[s].clone();
            let mut scratch = DenseMatrix::zeros(shard.n_local(), d);
            spmm_into(&op_boundary[s], &fulls[s], &mut scratch);
            for &r in shard.boundary_rows() {
                out.row_mut(r as usize)
                    .copy_from_slice(scratch.row(shard.owned_local[r as usize] as usize));
            }
            out
        })
    }

    /// Training forward: per layer, a compute superstep (one pool task
    /// per shard) followed by a halo-exchange superstep; the
    /// `par_map_chunks` join is the BSP barrier. Returns per-shard
    /// owned-row logits plus the caches backward needs (`Â·H` inputs and
    /// ReLU masks).
    ///
    /// In the compressed regime (DESIGN.md §11), layers after the first
    /// merge the interior aggregation precomputed during the previous
    /// exchange with boundary rows recomputed over the assembled
    /// (quantized and possibly stale) inputs. The dense tail of every
    /// layer — matmul, bias, ReLU, stateless dropout — is the same code in
    /// both regimes, which is why `F32` quantization with staleness ≤ 1
    /// reproduces the exact path bitwise.
    #[allow(clippy::type_complexity)]
    fn forward_train(
        &mut self,
        gcn: &Gcn,
        epoch: u64,
    ) -> (Vec<DenseMatrix>, Vec<Vec<DenseMatrix>>, Vec<Vec<Vec<bool>>>) {
        let l = self.num_layers();
        let k = self.plan.k;
        let mut x_caches: Vec<Vec<DenseMatrix>> = Vec::with_capacity(l);
        let mut relu_masks: Vec<Vec<Vec<bool>>> = Vec::with_capacity(l.saturating_sub(1));
        let mut h_locals: Vec<DenseMatrix> = Vec::new();
        let mut x_int: Vec<DenseMatrix> = Vec::new();
        let mut logits: Vec<DenseMatrix> = Vec::new();
        for i in 0..l {
            if self.poll_superstep() {
                return (logits, x_caches, relu_masks);
            }
            let layer = gcn.layer(i);
            let (w, b) = (&layer.w, &layer.b);
            let (d_in, d_out) = (self.dims[i], self.dims[i + 1]);
            let last = i + 1 == l;
            let cs = Dropout::call_seed(self.seed.wrapping_add(100 + i as u64), epoch);
            let p = self.p_drop;
            let (plan, ctxs) = (self.plan, self.ctxs);
            let op_boundary = self.comm_state.as_ref().map(|st| &st.op_boundary);
            let (h_ref, x_ref) = (&h_locals, &x_int);
            let results: Vec<(DenseMatrix, DenseMatrix, Vec<bool>)> = par_map_chunks(k, |s| {
                let shard = &plan.shards[s];
                let mut scratch = DenseMatrix::zeros(shard.n_local(), d_in);
                let x_owned = match op_boundary {
                    Some(op_boundary) if i > 0 => {
                        let mut x = x_ref[s].clone();
                        spmm_into(&op_boundary[s], &h_ref[s], &mut scratch);
                        for &r in shard.boundary_rows() {
                            x.row_mut(r as usize).copy_from_slice(
                                scratch.row(shard.owned_local[r as usize] as usize),
                            );
                        }
                        x
                    }
                    _ => {
                        let input = if i == 0 { &ctxs[s].features } else { &h_ref[s] };
                        spmm_into(&shard.op, input, &mut scratch);
                        scratch.gather_rows(&ctxs[s].owned_rows)
                    }
                };
                let mut z = x_owned.matmul(w).expect("linear shapes");
                for r in 0..z.rows() {
                    vecops::axpy(1.0, b.row(0), z.row_mut(r));
                }
                let mut mask = Vec::new();
                if !last {
                    // ReLU + stateless dropout, element-for-element the
                    // reference expressions, indexed by *global* row.
                    mask.reserve(z.rows() * d_out);
                    for (r, &g) in shard.owned.iter().enumerate() {
                        let row = z.row_mut(r);
                        for (c, slot) in row.iter_mut().enumerate() {
                            let v = *slot;
                            mask.push(v > 0.0);
                            *slot = v.max(0.0)
                                * Dropout::element_scale(cs, p, g as u64 * d_out as u64 + c as u64);
                        }
                    }
                }
                (z, x_owned, mask)
            });
            let mut zs = Vec::with_capacity(k);
            let mut xs = Vec::with_capacity(k);
            let mut ms = Vec::with_capacity(k);
            for (z, x, m) in results {
                zs.push(z);
                xs.push(x);
                ms.push(m);
            }
            x_caches.push(xs);
            if last {
                logits = zs;
            } else {
                relu_masks.push(ms);
                if self.poll_superstep() {
                    return (logits, x_caches, relu_masks);
                }
                if self.comm_state.is_some() {
                    (h_locals, x_int) = self.exchange_compressed_fwd(i, &zs, d_out);
                } else {
                    h_locals = self.exchange(&zs, d_out);
                }
            }
        }
        (logits, x_caches, relu_masks)
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
            let mut row = vec![0f32; c];
            for &(r, label) in &ctxs[s].train {
                row.copy_from_slice(logits[s].row(r));
                vecops::softmax_row(&mut row);
                acc = acc.wrapping_add(xent_softmaxed_row_fx(&row, label, 1.0));
                xent_grad_row(&mut row, label, 1.0, total_w);
                dl.row_mut(r).copy_from_slice(&row);
            }
            (acc, dl)
        });
        let mut loss_parts = Vec::with_capacity(parts.len());
        let mut dls = Vec::with_capacity(parts.len());
        for (a, d) in parts {
            loss_parts.push(a);
            dls.push(d);
        }
        let mut bytes = 0u64;
        tree_allreduce(&mut loss_parts, self.plan.k, &mut bytes);
        ALLREDUCE_BYTES.add(bytes);
        self.comm.allreduce_bytes += bytes;
        (loss_from_fx(loss_parts[0], total_w), dls)
    }

    /// Backward: mirrored supersteps. Each layer's compute step applies
    /// dropout/ReLU backward, forms fixed-point `gW`/`gb` partials over
    /// owned rows, and computes `dY·Wᵀ`; the exchange step moves halo
    /// gradients and propagates through the local operator. Partials are
    /// tree-allreduced and written into the model's gradient buffers
    /// (one `i128 → f32` rounding, same as the reference kernel).
    fn backward(
        &mut self,
        gcn: &mut Gcn,
        mut g_owned: Vec<DenseMatrix>,
        x_caches: &[Vec<DenseMatrix>],
        relu_masks: &[Vec<Vec<bool>>],
        epoch: u64,
    ) {
        let l = self.num_layers();
        let k = self.plan.k;
        for i in (0..l).rev() {
            if self.poll_superstep() {
                return;
            }
            let (d_in, d_out) = (self.dims[i], self.dims[i + 1]);
            let dw = d_in * d_out;
            let last = i + 1 == l;
            gcn.layer(i).w.transpose_into(&mut self.wt[i]);
            let wt = &self.wt[i];
            let cs = Dropout::call_seed(self.seed.wrapping_add(100 + i as u64), epoch);
            let p = self.p_drop;
            let plan = self.plan;
            let caches = &x_caches[i];
            let masks = if last { None } else { Some(&relu_masks[i]) };
            let g_ref = &g_owned;
            let fx = &mut self.fx[i];
            fx.fill(0);
            // Shard s owns row s (`gW` then `gb`) of the layer's partials.
            let rows: Vec<Mutex<&mut [i128]>> =
                fx.chunks_exact_mut(dw + d_out).map(Mutex::new).collect();
            let d_ahs: Vec<DenseMatrix> = par_map_chunks(k, |s| {
                let shard = &plan.shards[s];
                let mut g = g_ref[s].clone();
                if let Some(masks) = masks {
                    // Same order as the reference: dropout mask multiply,
                    // then ReLU zeroing.
                    for (r, &gid) in shard.owned.iter().enumerate() {
                        let row = g.row_mut(r);
                        for (c, slot) in row.iter_mut().enumerate() {
                            *slot *=
                                Dropout::element_scale(cs, p, gid as u64 * d_out as u64 + c as u64);
                        }
                    }
                    for (v, &m) in g.data_mut().iter_mut().zip(&masks[s]) {
                        if !m {
                            *v = 0.0;
                        }
                    }
                }
                let mut row = rows[s].lock().unwrap_or_else(|e| e.into_inner());
                let (gw, gb) = row.split_at_mut(dw);
                grad_fx(&caches[s], &g, gw);
                colsum_fx(&g, gb);
                g.matmul(wt).expect("linear shapes")
            });
            drop(rows);
            let mut bytes = 0u64;
            tree_allreduce(fx, k, &mut bytes);
            ALLREDUCE_BYTES.add(bytes);
            self.comm.allreduce_bytes += bytes;
            if i > 0 {
                // The layer-0 propagation of the reference is computed
                // and discarded; shards skip it outright. One poll covers
                // the exchange and the propagate barrier it feeds.
                if self.poll_superstep() {
                    return;
                }
                if self.comm_state.is_some() {
                    g_owned = self.exchange_compressed_bwd(l, i, &d_ahs, d_in);
                } else {
                    let full = self.exchange(&d_ahs, d_in);
                    let this = &*self;
                    g_owned = par_map_chunks(k, |s| this.propagate_owned(s, &full[s], d_in));
                }
            }
        }
        gcn.zero_grad();
        for i in 0..l {
            // Row 0 of each layer's partials holds the allreduced total.
            let (dw, d_out) = (self.dims[i] * self.dims[i + 1], self.dims[i + 1]);
            let layer = gcn.layer_mut(i);
            accumulate_fx(layer.gw.data_mut(), &self.fx[i][..dw]);
            accumulate_fx(layer.gb.data_mut(), &self.fx[i][dw..dw + d_out]);
        }
    }

    /// Sharded inference forward (no dropout, no caches): per-shard
    /// owned-row logits, bitwise equal to the full-graph
    /// `forward_inference` rows.
    fn inference_logits(&mut self, gcn: &Gcn) -> Vec<DenseMatrix> {
        let l = self.num_layers();
        let k = self.plan.k;
        let mut h_locals: Vec<DenseMatrix> = Vec::new();
        for i in 0..l {
            let layer = gcn.layer(i);
            let (w, b) = (&layer.w, &layer.b);
            let (d_in, d_out) = (self.dims[i], self.dims[i + 1]);
            let last = i + 1 == l;
            let (plan, ctxs) = (self.plan, self.ctxs);
            let h_ref = &h_locals;
            let results: Vec<DenseMatrix> = par_map_chunks(k, |s| {
                let shard = &plan.shards[s];
                let input = if i == 0 { &ctxs[s].features } else { &h_ref[s] };
                let mut scratch = DenseMatrix::zeros(shard.n_local(), d_in);
                spmm_into(&shard.op, input, &mut scratch);
                let mut z = scratch.gather_rows(&ctxs[s].owned_rows).matmul(w).expect("shapes");
                for r in 0..z.rows() {
                    vecops::axpy(1.0, b.row(0), z.row_mut(r));
                }
                if !last {
                    z.map_inplace(|v| v.max(0.0));
                }
                z
            });
            if last {
                return results;
            }
            h_locals = self.exchange(&results, d_out);
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
        let (loss, dl_owned, x_caches, relu_masks) = ep.phases.time(Phase::Forward, || {
            let (logits, x_caches, relu_masks) = rt.forward_train(gcn, call);
            if rt.faulted() {
                return (0.0, Vec::new(), x_caches, relu_masks);
            }
            let (loss, dl) = rt.loss_and_grad(&logits);
            (loss, dl, x_caches, relu_masks)
        });
        if let Some(e) = rt.fault_error() {
            return Err(e);
        }
        ep.phases.time(Phase::Backward, || {
            rt.backward(gcn, dl_owned, &x_caches, &relu_masks, call);
        });
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
        p_drop: cfg.dropout,
        seed: cfg.seed,
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
        wt: (0..l).map(|i| DenseMatrix::zeros(dims[i + 1], dims[i])).collect(),
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
