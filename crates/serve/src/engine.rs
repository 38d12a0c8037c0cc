//! The serving engine: store + planner + cache + MLP head.
//!
//! `serve_one` and `serve_batch` share one implementation; a batch
//! acquires embedding rows in request order (so cache/planner
//! bookkeeping is a pure function of the request trace), assembles them
//! into one matrix, and applies the head as a single (optionally
//! quantized) matmul. The dense matmul computes each output row
//! independently in a fixed k-order, so batched logits are bitwise
//! identical to one-at-a-time logits — the coalescing contract
//! DESIGN.md §12 documents and `tests/serving_equivalence.rs` pins.
//!
//! Cache admission rule (load-bearing for that contract): only
//! full-quality rows — `FullProp` answers and `Sampled` answers that
//! escalated to full — are admitted to the LRU at zero pressure. A
//! non-escalated `Sampled` row is never cached under `Normal` pressure.
//! Together with escalation being a pure function of the
//! (deterministic) row bits, every answer for node `u` is one of two
//! fixed bit patterns (`head(full_row(u))` or `head(sampled_row(u))`),
//! chosen identically no matter how requests are batched or
//! interleaved.
//!
//! Overload extensions (DESIGN.md §13) are strictly additive:
//! [`ServeEngine::serve_batch_pressured`] annotates each request with a
//! [`Pressure`] level and a deadline-expired flag, runs the planner's
//! degradation ladder, demotes FullProp through the circuit breaker,
//! and sheds requests as zero-logit rows that never touch the head.
//! With `Normal` pressure, no expiry, no breaker, and no fault plan,
//! the pressured path is the PR 9 path — same bits, same counters
//! (`tests/serving_overload.rs` pins this differentially). Under a
//! fault plan, store reads are CRC-verified and a corrupted row is
//! rebuilt with the per-node push. A `Hot` store was built by that push
//! at the same tolerance, so its repairs are bitwise. A `Full` store was
//! built by the column push; its repaired row is the per-node push at
//! `eps = rmax` (residual threshold `eps·deg`): the same operator row
//! within that push's tolerance, not the same bits.
//!
//! Every on-demand push (fresh rows, escalations, store repairs) runs on
//! one [`PushWorkspace`] the engine owns, and acquired rows are written
//! straight into the batch's embedding matrix, so a request allocates
//! nothing proportional to the graph. A node id outside the graph is
//! answered at the `Shed` tier: zero logits, no push, no head row.

use crate::cache::LruCache;
use crate::plan::{PlannerConfig, QueryPlanner, RowState, Strategy};
use crate::pressure::{BreakerConfig, CircuitBreaker, Pressure};
use crate::push::fresh_row_into;
use crate::store::{EmbeddingStore, PrecomputePolicy};
use sgnn_fault::FaultPlan;
use sgnn_graph::{CsrGraph, NodeId};
use sgnn_linalg::{DenseMatrix, QuantMode};
use sgnn_nn::{Mlp, QuantMlp};
use sgnn_prop::PushWorkspace;
use std::sync::Arc;

static REQUEST_NS: sgnn_obs::Histogram = sgnn_obs::Histogram::new("serve.request.ns");
static BATCH_NS: sgnn_obs::Histogram = sgnn_obs::Histogram::new("serve.batch.ns");
static PLAN_ESCALATED: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.plan.escalated");
static STORE_HITS: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.store.hits");
static DEADLINE_MISS: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.deadline.miss");
static STORE_REPAIRS: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.store.repairs");

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// PPR restart probability of the serving operator.
    pub alpha: f64,
    /// What the embedding store precomputes.
    pub policy: PrecomputePolicy,
    /// Planner thresholds and tolerances.
    pub planner: PlannerConfig,
    /// LRU capacity for on-demand rows (0 disables the cache).
    pub cache_capacity: usize,
    /// Head precision: `F32` is bitwise-identical to the training-time
    /// forward; `Int8`/`F16` trade documented tolerance for speed
    /// (DESIGN.md §9).
    pub quant: QuantMode,
    /// `Some` arms the FullProp circuit breaker (DESIGN.md §13). `None`
    /// (default) never demotes.
    pub breaker: Option<BreakerConfig>,
    /// Armed fault plan for chaos testing: per-request latency spikes
    /// and store-row corruption. Store reads are CRC-verified only when
    /// a plan is armed — zero overhead otherwise.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            alpha: 0.15,
            policy: PrecomputePolicy::Full { rmax: 1e-4 },
            planner: PlannerConfig::default(),
            cache_capacity: 1024,
            quant: QuantMode::F32,
            breaker: None,
            fault_plan: None,
        }
    }
}

/// Replay-exact serving counters, kept per engine so tests can assert
/// on them without enabling the global obs registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered (sheds included: a `Shed` response is an
    /// answer).
    pub requests: u64,
    /// Batches served (a `serve_one` call counts as a batch of 1).
    pub batches: u64,
    /// Rows answered straight from the precomputed store.
    pub store_hits: u64,
    /// LRU cache hits.
    pub cache_hits: u64,
    /// LRU cache misses (probes that fell through to a fresh push).
    pub cache_misses: u64,
    /// LRU evictions.
    pub cache_evictions: u64,
    /// Planner `Cached` decisions.
    pub plan_cached: u64,
    /// Planner `FullProp` decisions.
    pub plan_full: u64,
    /// Planner `Sampled` decisions.
    pub plan_sampled: u64,
    /// Planner `Stale` decisions (stale cache rows served under
    /// pressure).
    pub plan_stale: u64,
    /// Sampled answers escalated to full propagation.
    pub plan_escalated: u64,
    /// Requests shed (ladder `Shed` tier; queue rejects are counted by
    /// the `AdmissionQueue`, not here).
    pub shed: u64,
    /// Requests answered below their zero-pressure quality tier.
    pub degraded: u64,
    /// Answered requests that missed their deadline budget.
    pub deadline_miss: u64,
    /// Circuit-breaker trips (including probe-failure re-opens).
    pub breaker_trips: u64,
    /// Store rows rebuilt after a CRC verification failure.
    pub store_repairs: u64,
}

/// One request annotated with the overload context `run_server` (or a
/// recorded trace) observed at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressuredRequest {
    /// The queried node.
    pub node: NodeId,
    /// Ladder position derived from queue depth at batch admission.
    pub pressure: Pressure,
    /// True when the request's deadline budget had already expired at
    /// serve time — it is answered by the cheapest viable tier
    /// (effective pressure is raised to at least `CachedOnly`).
    pub expired: bool,
}

/// The head an engine applies: f32, or quantized once under
/// `ServeConfig::quant` when the engine is built.
enum Head {
    F32(Mlp),
    Quant(QuantMlp),
}

/// Request-driven inference over a fixed `(graph, features, head)`.
pub struct ServeEngine {
    g: CsrGraph,
    x: DenseMatrix,
    head: Head,
    cfg: ServeConfig,
    store: EmbeddingStore,
    planner: QueryPlanner,
    cache: LruCache,
    breaker: Option<CircuitBreaker>,
    ws: PushWorkspace,
    stats: ServeStats,
}

impl ServeEngine {
    /// Builds the store and planner and takes ownership of the serving
    /// state.
    pub fn new(g: CsrGraph, x: DenseMatrix, head: Mlp, cfg: ServeConfig) -> Self {
        let head = head.quantize(cfg.quant).map_or(Head::F32(head), Head::Quant);
        let store = EmbeddingStore::build(&g, &x, cfg.alpha, &cfg.policy);
        let planner = QueryPlanner::new(&g, cfg.planner.clone());
        let cache = LruCache::new(cfg.cache_capacity);
        let breaker = cfg.breaker.clone().map(CircuitBreaker::new);
        let ws = PushWorkspace::new(g.num_nodes());
        ServeEngine {
            g,
            x,
            head,
            cfg,
            store,
            planner,
            cache,
            breaker,
            ws,
            stats: ServeStats::default(),
        }
    }

    /// Answers one request: logits plus the strategy that produced them.
    pub fn serve_one(&mut self, u: NodeId) -> (Vec<f32>, Strategy) {
        let _t = REQUEST_NS.time();
        let (logits, strategies) = self.serve_impl(&[u], None);
        (logits.row(0).to_vec(), strategies[0])
    }

    /// Answers a coalesced batch with one head matmul. Row `i` is
    /// bitwise-equal to `serve_one(nodes[i])` on an engine that saw the
    /// same request prefix.
    pub fn serve_batch(&mut self, nodes: &[NodeId]) -> DenseMatrix {
        self.serve_impl(nodes, None).0
    }

    /// Like [`Self::serve_batch`] but also reports per-row strategies.
    pub fn serve_batch_with_strategies(
        &mut self,
        nodes: &[NodeId],
    ) -> (DenseMatrix, Vec<Strategy>) {
        self.serve_impl(nodes, None)
    }

    /// Answers a batch under explicit overload context. Shed rows come
    /// back as all-zero logits with [`Strategy::Shed`] and never touch
    /// the head matmul. With every request at `Normal` pressure and not
    /// expired, this is bit-for-bit [`Self::serve_batch`].
    pub fn serve_batch_pressured(
        &mut self,
        reqs: &[PressuredRequest],
    ) -> (DenseMatrix, Vec<Strategy>) {
        let nodes: Vec<NodeId> = reqs.iter().map(|r| r.node).collect();
        let ctx: Vec<(Pressure, bool)> = reqs.iter().map(|r| (r.pressure, r.expired)).collect();
        self.serve_impl(&nodes, Some(&ctx))
    }

    /// Feeds one observed request outcome back into the deadline/breaker
    /// machinery: `run_server` calls this per answered request with the
    /// strategy the engine reported and whether the end-to-end latency
    /// missed the deadline budget; replay harnesses feed the recorded
    /// outcome. Sheds are not deadline misses.
    pub fn note_outcome(&mut self, strategy: Strategy, missed: bool) {
        if strategy == Strategy::Shed {
            return;
        }
        if missed {
            self.stats.deadline_miss += 1;
            DEADLINE_MISS.incr();
        }
        if let Some(b) = self.breaker.as_mut() {
            b.observe(strategy == Strategy::FullProp, missed);
            self.stats.breaker_trips = b.trips;
        }
    }

    fn serve_impl(
        &mut self,
        nodes: &[NodeId],
        ctx: Option<&[(Pressure, bool)]>,
    ) -> (DenseMatrix, Vec<Strategy>) {
        let _t = BATCH_NS.time();
        let d = self.x.cols();
        let n = self.g.num_nodes();
        // Live (non-shed) rows are written in order into the first rows
        // of `emb`; `live[r]` is the request index of row `r`.
        let mut emb = DenseMatrix::zeros(nodes.len(), d);
        let mut live = Vec::with_capacity(nodes.len());
        let mut strategies = Vec::with_capacity(nodes.len());
        let mut effective = Vec::with_capacity(nodes.len());
        // Row acquisition in request order: every cache/planner update
        // below is a pure function of the trace served so far.
        for (i, &u) in nodes.iter().enumerate() {
            let (pressure, expired) = ctx.map_or((Pressure::Normal, false), |c| c[i]);
            let eff = if expired { pressure.max(Pressure::CachedOnly) } else { pressure };
            let eff = if (u as usize) < n { eff } else { Pressure::Shed };
            if let Some(plan) = self.cfg.fault_plan.clone() {
                if let Some(delay) = plan.poll_request_spike(self.stats.requests + i as u64) {
                    std::thread::sleep(delay);
                }
            }
            let strategy = self.acquire_row_pressured(
                u,
                eff,
                self.stats.requests + i as u64,
                emb.row_mut(live.len()),
            );
            if strategy != Strategy::Shed {
                live.push(i);
            }
            strategies.push(strategy);
            effective.push(eff);
        }
        // One head matmul over the non-shed rows; shed rows get zero
        // logits without occupying the head. With no sheds this is the
        // identical full-batch matmul of the un-pressured path. A 0-row matmul
        // still reports the head's output width, so an all-shed batch
        // shapes its zero logits correctly.
        let mut logits = if live.len() == nodes.len() {
            self.head_forward(&emb)
        } else {
            let mut data = emb.into_vec();
            data.truncate(live.len() * d);
            let live_logits = self.head_forward(&DenseMatrix::from_vec(live.len(), d, data));
            let mut logits = DenseMatrix::zeros(nodes.len(), live_logits.cols());
            for (r, &i) in live.iter().enumerate() {
                logits.row_mut(i).copy_from_slice(live_logits.row(r));
            }
            logits
        };
        if let Some(tau) = self.cfg.planner.escalate_below {
            for (i, s) in strategies.iter_mut().enumerate() {
                if *s != Strategy::Sampled
                    || effective[i] != Pressure::Normal
                    || max_softmax(logits.row(i)) >= tau
                {
                    continue;
                }
                // Low-confidence sampled answer: recompute at full
                // tolerance, admit the full row, re-run the head on
                // just this row.
                let u = nodes[i];
                let mut one = DenseMatrix::zeros(1, d);
                fresh_row_into(
                    &mut self.ws,
                    &self.g,
                    &self.x,
                    u,
                    self.cfg.alpha,
                    self.cfg.planner.full_eps,
                    one.row_mut(0),
                );
                self.cache.insert(u, one.row(0));
                let fixed = self.head_forward(&one);
                logits.row_mut(i).copy_from_slice(fixed.row(0));
                self.stats.plan_escalated += 1;
                PLAN_ESCALATED.incr();
            }
        }
        self.stats.requests += nodes.len() as u64;
        self.stats.batches += 1;
        self.sync_stats();
        (logits, strategies)
    }

    /// Store → cache → fresh push (or shed), at `eff` ladder pressure,
    /// writing the row into `out` unless the answer is `Shed`.
    /// `req_idx` is the global request index, the positional key for
    /// store-corruption faults. Full-quality-only cache admission at
    /// `Normal`; sampled rows are admitted as *stale* under pressure.
    fn acquire_row_pressured(
        &mut self,
        u: NodeId,
        eff: Pressure,
        req_idx: u64,
        out: &mut [f32],
    ) -> Strategy {
        if eff == Pressure::Shed {
            return self.planner.plan_pressured(u, RowState::Absent, eff);
        }
        if self.store.get(u).is_some() {
            self.verify_store_row(u, req_idx);
            out.copy_from_slice(self.store.get(u).expect("present row"));
            self.stats.store_hits += 1;
            STORE_HITS.incr();
            return self.planner.plan_pressured(u, RowState::Fresh, eff);
        }
        let accept_stale = eff >= Pressure::Degraded;
        if let Some((row, full_quality)) = self.cache.probe(u, accept_stale) {
            out.copy_from_slice(row);
            let state = if full_quality { RowState::Fresh } else { RowState::Stale };
            return self.planner.plan_pressured(u, state, eff);
        }
        // No row anywhere. Consult the breaker only when the ladder
        // would pick FullProp (Normal pressure, non-hub): each consult
        // advances the deterministic probe schedule.
        let would_full = eff == Pressure::Normal && !self.planner.is_hub(u);
        let demote = would_full && self.breaker.as_mut().is_some_and(|b| b.on_full_decision());
        let s = self.planner.plan_pressured_demoted(u, RowState::Absent, eff, demote);
        let eps = match s {
            Strategy::FullProp => self.cfg.planner.full_eps,
            Strategy::Sampled => self.cfg.planner.sampled_eps,
            Strategy::Shed => return s,
            Strategy::Cached | Strategy::Stale => unreachable!("planner saw RowState::Absent"),
        };
        fresh_row_into(&mut self.ws, &self.g, &self.x, u, self.cfg.alpha, eps, out);
        if s == Strategy::FullProp {
            self.cache.insert(u, &*out);
        } else if s == Strategy::Sampled && eff >= Pressure::Degraded {
            // Pressure admission: a coarse row is better than nothing
            // for the next overloaded request, marked stale so it is
            // invisible once pressure drops.
            self.cache.insert_quality(u, &*out, false);
        }
        s
    }

    /// Chaos path, armed only by a fault plan: corrupt the store row if
    /// the plan says so, then CRC-verify and rebuild on mismatch with the
    /// per-node push. That is the kernel and tolerance that built a `Hot`
    /// row, so a `Hot` repair is bitwise; a `Full` row (built by the
    /// column push) is rebuilt at `eps = rmax`, within that push's
    /// `eps·deg` tolerance but not bitwise.
    fn verify_store_row(&mut self, u: NodeId, req_idx: u64) {
        let Some(plan) = self.cfg.fault_plan.clone() else {
            return;
        };
        if let Some(row) = self.store.row_mut(u) {
            plan.corrupt_store_row(req_idx, row);
        }
        if !self.store.verify(u) {
            let eps = match &self.cfg.policy {
                PrecomputePolicy::Hot { eps, .. } => *eps,
                PrecomputePolicy::Full { rmax } => rmax.max(1e-9),
                PrecomputePolicy::None => unreachable!("None store has no rows to verify"),
            };
            let mut rebuilt = vec![0f32; self.x.cols()];
            fresh_row_into(&mut self.ws, &self.g, &self.x, u, self.cfg.alpha, eps, &mut rebuilt);
            self.store.repair(u, &rebuilt);
            self.stats.store_repairs += 1;
            STORE_REPAIRS.incr();
            sgnn_fault::record_recovery_retry();
        }
    }

    fn head_forward(&self, emb: &DenseMatrix) -> DenseMatrix {
        match &self.head {
            Head::F32(mlp) => mlp.forward_inference(emb),
            Head::Quant(q) => q.forward(emb),
        }
    }

    fn sync_stats(&mut self) {
        self.stats.cache_hits = self.cache.hits;
        self.stats.cache_misses = self.cache.misses;
        self.stats.cache_evictions = self.cache.evictions;
        self.stats.plan_cached = self.planner.cached;
        self.stats.plan_full = self.planner.full;
        self.stats.plan_sampled = self.planner.sampled;
        self.stats.plan_stale = self.planner.stale;
        self.stats.shed = self.planner.shed;
        self.stats.degraded = self.planner.degraded;
        if let Some(b) = &self.breaker {
            self.stats.breaker_trips = b.trips;
        }
    }

    /// Replay-exact counters accumulated so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Rows the store materialized at build time.
    pub fn store_rows(&self) -> usize {
        self.store.rows_built()
    }

    /// Current breaker state code (0 closed / 1 open / 2 half-open);
    /// 0 when no breaker is configured.
    pub fn breaker_state(&self) -> u64 {
        self.breaker.as_ref().map_or(0, |b| b.state_code())
    }
}

/// Max softmax probability of one logits row (stable shift-by-max form,
/// fixed summation order).
pub fn max_softmax(logits: &[f32]) -> f32 {
    let m = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let denom: f32 = logits.iter().map(|&l| (l - m).exp()).sum();
    1.0 / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_graph::generate;

    fn engine(policy: PrecomputePolicy, cache: usize) -> ServeEngine {
        let g = generate::barabasi_albert(120, 3, 5);
        let x = DenseMatrix::gaussian(120, 6, 1.0, 2);
        let head = Mlp::new(&[6, 8, 3], 0.0, 7);
        let cfg = ServeConfig {
            policy,
            cache_capacity: cache,
            planner: PlannerConfig { hub_degree: 8, ..Default::default() },
            ..Default::default()
        };
        ServeEngine::new(g, x, head, cfg)
    }

    #[test]
    fn full_store_answers_everything_cached() {
        let mut e = engine(PrecomputePolicy::Full { rmax: 1e-4 }, 16);
        for u in [0u32, 5, 60, 119] {
            let (logits, s) = e.serve_one(u);
            assert_eq!(s, Strategy::Cached);
            assert_eq!(logits.len(), 3);
        }
        assert_eq!(e.stats().store_hits, 4);
        assert_eq!(e.stats().plan_cached, 4);
    }

    #[test]
    fn fullprop_rows_are_cached_and_reused() {
        let mut e = engine(PrecomputePolicy::None, 16);
        // Find a non-hub node: FullProp, admitted to cache.
        let u = (0..120u32).find(|&u| e.planner.degree(u) < 8).unwrap();
        let (first, s1) = e.serve_one(u);
        assert_eq!(s1, Strategy::FullProp);
        let (second, s2) = e.serve_one(u);
        assert_eq!(s2, Strategy::Cached);
        assert_eq!(first, second, "cached answer must equal the fresh one");
        assert_eq!(e.stats().cache_hits, 1);
    }

    #[test]
    fn sampled_rows_are_not_cached() {
        let mut e = engine(PrecomputePolicy::None, 16);
        let hub = (0..120u32).max_by_key(|&u| e.planner.degree(u)).unwrap();
        let (_, s1) = e.serve_one(hub);
        assert_eq!(s1, Strategy::Sampled);
        let (_, s2) = e.serve_one(hub);
        assert_eq!(s2, Strategy::Sampled, "sampled rows must not be admitted");
        assert_eq!(e.stats().cache_hits, 0);
    }

    #[test]
    fn batch_rows_match_serve_one_bitwise() {
        let trace: Vec<NodeId> = vec![3, 50, 3, 100, 7, 50, 119, 0, 3];
        let mut a = engine(PrecomputePolicy::Hot { count: 20, eps: 1e-7 }, 4);
        let mut b = engine(PrecomputePolicy::Hot { count: 20, eps: 1e-7 }, 4);
        let batched = a.serve_batch(&trace);
        for (i, &u) in trace.iter().enumerate() {
            let (one, _) = b.serve_one(u);
            let batch_bits: Vec<u32> = batched.row(i).iter().map(|v| v.to_bits()).collect();
            let one_bits: Vec<u32> = one.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batch_bits, one_bits, "row {i} (node {u}) diverged");
        }
    }

    #[test]
    fn escalation_upgrades_low_confidence_sampled_answers() {
        let g = generate::barabasi_albert(120, 3, 5);
        let x = DenseMatrix::gaussian(120, 6, 1.0, 2);
        let head = Mlp::new(&[6, 8, 3], 0.0, 7);
        let cfg = ServeConfig {
            policy: PrecomputePolicy::None,
            cache_capacity: 16,
            planner: PlannerConfig {
                hub_degree: 1,             // everything is a hub → everything Sampled
                escalate_below: Some(1.1), // τ > 1 → always escalate
                ..Default::default()
            },
            ..Default::default()
        };
        let mut e = ServeEngine::new(g, x, head, cfg);
        let (esc, s) = e.serve_one(42);
        assert_eq!(s, Strategy::Sampled);
        assert_eq!(e.stats().plan_escalated, 1);
        // The escalated answer equals a pure FullProp answer bitwise.
        let g2 = generate::barabasi_albert(120, 3, 5);
        let x2 = DenseMatrix::gaussian(120, 6, 1.0, 2);
        let head2 = Mlp::new(&[6, 8, 3], 0.0, 7);
        let cfg2 = ServeConfig {
            policy: PrecomputePolicy::None,
            cache_capacity: 16,
            planner: PlannerConfig { hub_degree: u32::MAX, ..Default::default() },
            ..Default::default()
        };
        let mut full = ServeEngine::new(g2, x2, head2, cfg2);
        let (want, s2) = full.serve_one(42);
        assert_eq!(s2, Strategy::FullProp);
        let a: Vec<u32> = esc.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn shed_rows_are_zero_and_skip_the_head() {
        let mut e = engine(PrecomputePolicy::None, 16);
        let reqs: Vec<PressuredRequest> = [3u32, 7, 11]
            .iter()
            .map(|&node| PressuredRequest { node, pressure: Pressure::Shed, expired: false })
            .collect();
        let (logits, strategies) = e.serve_batch_pressured(&reqs);
        assert!(strategies.iter().all(|&s| s == Strategy::Shed));
        assert!(logits.data().iter().all(|&v| v == 0.0));
        assert_eq!(logits.rows(), 3);
        assert_eq!(e.stats().shed, 3);
        assert_eq!(e.stats().requests, 3);
    }

    #[test]
    fn out_of_range_ids_are_shed_without_a_push() {
        let mut e = engine(PrecomputePolicy::Hot { count: 20, eps: 1e-7 }, 16);
        let (logits, s) = e.serve_one(120);
        assert_eq!(s, Strategy::Shed);
        assert!(logits.iter().all(|&v| v == 0.0));
        assert_eq!(logits.len(), 3);
        assert_eq!((e.stats().shed, e.stats().plan_full + e.stats().plan_sampled), (1, 0));
        // A bad id inside a batch leaves its neighbors' answers alone.
        let mut clean = engine(PrecomputePolicy::Hot { count: 20, eps: 1e-7 }, 16);
        let mixed = e.serve_batch(&[3, u32::MAX, 50]);
        let want = clean.serve_batch(&[3, 50]);
        assert!(mixed.row(1).iter().all(|&v| v == 0.0));
        assert_eq!(mixed.row(0), want.row(0));
        assert_eq!(mixed.row(2), want.row(1));
        assert_eq!((e.stats().shed, e.stats().requests), (2, 4));
    }

    #[test]
    fn expired_requests_fall_to_cheapest_viable_tier() {
        let mut e = engine(PrecomputePolicy::None, 16);
        let u = (0..120u32).find(|&u| e.planner.degree(u) < 8).unwrap();
        // Warm a full-quality cache row, then expire a request for it:
        // the row is still served (Cached), no push.
        let (_, s0) = e.serve_one(u);
        assert_eq!(s0, Strategy::FullProp);
        let (_, strategies) = e.serve_batch_pressured(&[PressuredRequest {
            node: u,
            pressure: Pressure::Normal,
            expired: true,
        }]);
        assert_eq!(strategies[0], Strategy::Cached);
        // An expired request with no row anywhere is shed.
        let v = (0..120u32).filter(|&v| v != u).find(|&v| e.planner.degree(v) < 8).unwrap();
        let (_, strategies) = e.serve_batch_pressured(&[PressuredRequest {
            node: v,
            pressure: Pressure::Normal,
            expired: true,
        }]);
        assert_eq!(strategies[0], Strategy::Shed);
    }

    #[test]
    fn breaker_demotes_fullprop_after_misses() {
        let g = generate::barabasi_albert(120, 3, 5);
        let x = DenseMatrix::gaussian(120, 6, 1.0, 2);
        let head = Mlp::new(&[6, 8, 3], 0.0, 7);
        let cfg = ServeConfig {
            policy: PrecomputePolicy::None,
            cache_capacity: 0, // no cache: every request replans
            planner: PlannerConfig { hub_degree: 8, ..Default::default() },
            breaker: Some(BreakerConfig { trip_after: 2, probe_after: 1 }),
            ..Default::default()
        };
        let mut e = ServeEngine::new(g, x, head, cfg);
        let u = (0..120u32).find(|&u| e.planner.degree(u) < 8).unwrap();
        let (_, s) = e.serve_one(u);
        assert_eq!(s, Strategy::FullProp);
        e.note_outcome(s, true);
        let (_, s) = e.serve_one(u);
        assert_eq!(s, Strategy::FullProp);
        e.note_outcome(s, true);
        assert_eq!(e.stats().breaker_trips, 1, "two consecutive misses must trip");
        assert_eq!(e.breaker_state(), 1);
        // Open: the next FullProp-eligible request is demoted…
        let (_, s) = e.serve_one(u);
        assert_eq!(s, Strategy::Sampled);
        e.note_outcome(s, false);
        assert_eq!(e.stats().degraded, 1);
        // …then the deterministic probe goes through as FullProp and
        // closes the breaker on success.
        let (_, s) = e.serve_one(u);
        assert_eq!(s, Strategy::FullProp);
        e.note_outcome(s, false);
        assert_eq!(e.breaker_state(), 0);
        assert_eq!(e.stats().deadline_miss, 2);
    }

    #[test]
    fn store_corruption_is_caught_and_repaired_bitwise() {
        let g = generate::barabasi_albert(120, 3, 5);
        let x = DenseMatrix::gaussian(120, 6, 1.0, 2);
        let mk = |plan: Option<Arc<FaultPlan>>| {
            let head = Mlp::new(&[6, 8, 3], 0.0, 7);
            let cfg = ServeConfig {
                policy: PrecomputePolicy::Hot { count: 20, eps: 1e-7 },
                cache_capacity: 8,
                planner: PlannerConfig { hub_degree: 8, ..Default::default() },
                fault_plan: plan,
                ..Default::default()
            };
            ServeEngine::new(g.clone(), x.clone(), head, cfg)
        };
        let hot = (0..120u32).max_by_key(|&u| g.degree(u)).unwrap();
        let trace: Vec<NodeId> = vec![hot, 3, hot, 7, hot];
        // Corrupt the store row read by request index 2 (the second
        // `hot` read).
        let plan = Arc::new(FaultPlan::new(11).corrupt_store_row_at(2, 6));
        let mut chaotic = mk(Some(Arc::clone(&plan)));
        let mut clean = mk(None);
        let a = chaotic.serve_batch(&trace);
        let b = clean.serve_batch(&trace);
        assert!(plan.exhausted(), "corruption must have fired");
        assert_eq!(chaotic.stats().store_repairs, 1);
        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "Hot-store repair must be bitwise invisible");
        let mut s = clean.stats().clone();
        s.store_repairs = chaotic.stats().store_repairs;
        assert_eq!(&s, chaotic.stats(), "all other counters must match the clean run");
    }
}
