//! Node-adaptive query planner.
//!
//! Generalizes the A2 ablation / NAI confidence gating into a runtime
//! policy object: per request the planner picks **cached-embedding**
//! (store or LRU row exists), **full-propagation** (tight-eps per-node
//! push), or **sampled** inference (coarse-eps push) from the node's
//! degree and estimated 2-hop frontier. The intuition is the survey's
//! neighborhood-explosion argument: a hub's push frontier is the
//! expensive part of a request, so hubs get the coarse strategy and —
//! optionally — a confidence-gated escalation back to full propagation
//! (the NAI pattern, applied at serve time).
//!
//! Tie-break order is fixed and documented (DESIGN.md §12):
//! store row ≻ cache row ≻ frontier/degree rule. Decisions are pure in
//! `(node stats, store/cache occupancy)`, which is what makes planner
//! decision counts replay-exact in the differential suite.
//!
//! Under overload the planner additionally runs the graceful-degradation
//! ladder (DESIGN.md §13): [`QueryPlanner::plan_pressured`] maps a
//! [`Pressure`] level to a serving tier — FullProp → Sampled (coarse
//! eps) → store/stale-cache row → explicit [`Strategy::Shed`] — and the
//! decision is a pure function of `(node stats, row state, pressure)`,
//! so a recorded overload trace replays the exact same tier choices and
//! shed/degrade counts.

use crate::pressure::Pressure;
use sgnn_graph::{CsrGraph, NodeId};

static PLAN_CACHED: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.plan.cached");
static PLAN_FULL: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.plan.full");
static PLAN_SAMPLED: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.plan.sampled");
static PLAN_STALE: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.plan.stale");
static SHED_COUNT: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.shed.count");
static DEGRADED_COUNT: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.degraded.count");

/// Counts one load-shed toward `serve.shed.count`. The planner calls
/// this for ladder sheds; the `AdmissionQueue` for capacity rejects —
/// one counter, every shed path.
pub(crate) fn record_shed() {
    SHED_COUNT.incr();
}

/// How one request is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Row served from the embedding store or a full-quality LRU row.
    Cached,
    /// Fresh per-node push at the tight `full_eps` tolerance.
    FullProp,
    /// Fresh per-node push at the coarse `sampled_eps` tolerance.
    Sampled,
    /// Stale (sampled-quality) LRU row served under pressure; entrywise
    /// error bounded by `sampled_eps`, like `Sampled`, but without the
    /// push.
    Stale,
    /// Explicit load-shed: the request is answered with zero logits and
    /// a `Shed` marker instead of occupying the engine.
    Shed,
}

/// What the store/cache holds for a node at planning time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowState {
    /// No precomputed or cached row.
    Absent,
    /// Store row or full-quality cache row (FullProp/escalated bits).
    Fresh,
    /// Sampled-quality cache row admitted under pressure.
    Stale,
}

/// Planner thresholds and tolerances.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Degree at or above which a node is treated as a hub.
    pub hub_degree: u32,
    /// Estimated 2-hop frontier (`deg(u) + Σ_{v∈N(u)} deg(v)`) at or
    /// above which a node is treated as a hub.
    pub hub_frontier: u64,
    /// Push tolerance for `FullProp`.
    pub full_eps: f64,
    /// Push tolerance for `Sampled`.
    pub sampled_eps: f64,
    /// `Some(τ)`: escalate a `Sampled` answer to `FullProp` when its
    /// max softmax confidence falls below `τ`.
    pub escalate_below: Option<f32>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            hub_degree: 64,
            hub_frontier: 4096,
            full_eps: 1e-7,
            sampled_eps: 1e-4,
            escalate_below: None,
        }
    }
}

/// The runtime policy object: precomputed per-node stats + thresholds.
#[derive(Debug, Clone)]
pub struct QueryPlanner {
    cfg: PlannerConfig,
    degree: Vec<u32>,
    frontier: Vec<u64>,
    /// `Cached` decisions made.
    pub cached: u64,
    /// `FullProp` decisions made.
    pub full: u64,
    /// `Sampled` decisions made.
    pub sampled: u64,
    /// `Stale` decisions made (stale cache rows served under pressure).
    pub stale: u64,
    /// `Shed` decisions made.
    pub shed: u64,
    /// Requests answered at a lower tier than the zero-pressure rule
    /// would have picked (Sampled-instead-of-FullProp, stale rows,
    /// breaker demotions counted by the engine).
    pub degraded: u64,
}

impl QueryPlanner {
    /// Precomputes degree/frontier statistics for every node.
    pub fn new(g: &CsrGraph, cfg: PlannerConfig) -> Self {
        let n = g.num_nodes();
        let degree: Vec<u32> = (0..n as NodeId).map(|u| g.degree(u) as u32).collect();
        let frontier: Vec<u64> = (0..n as NodeId)
            .map(|u| {
                g.degree(u) as u64 + g.neighbors(u).iter().map(|&v| g.degree(v) as u64).sum::<u64>()
            })
            .collect();
        QueryPlanner {
            cfg,
            degree,
            frontier,
            cached: 0,
            full: 0,
            sampled: 0,
            stale: 0,
            shed: 0,
            degraded: 0,
        }
    }

    /// Plans one request under zero pressure. `has_row` says whether the
    /// store or cache already holds a full-quality embedding row.
    pub fn plan(&mut self, u: NodeId, has_row: bool) -> Strategy {
        self.plan_pressured(
            u,
            if has_row { RowState::Fresh } else { RowState::Absent },
            Pressure::Normal,
        )
    }

    /// True when `u` trips the degree/frontier hub rule (its
    /// zero-pressure miss tier is `Sampled` rather than `FullProp`). An
    /// id outside the graph is not a hub; the engine sheds such ids
    /// before any tier could push them.
    pub(crate) fn is_hub(&self, u: NodeId) -> bool {
        let u = u as usize;
        self.degree.get(u).is_some_and(|&d| d >= self.cfg.hub_degree)
            || self.frontier.get(u).is_some_and(|&f| f >= self.cfg.hub_frontier)
    }

    /// The graceful-degradation ladder (DESIGN.md §13). Pure in
    /// `(node stats, row, pressure)`:
    ///
    /// - `Normal` — the PR 9 rule: fresh row ≻ hub→Sampled ≻ FullProp.
    ///   A stale row is treated as a miss (the answer is recomputed at
    ///   the node's normal tier, refreshing the cache).
    /// - `Degraded` — fresh row ≻ stale row ≻ Sampled for everyone
    ///   (no FullProp pushes).
    /// - `CachedOnly` — fresh row ≻ stale row ≻ `Shed` (no pushes at
    ///   all).
    /// - `Shed` — everything is shed.
    ///
    /// A decision is counted degraded when its quality tier (full ≻
    /// sampled) is below what the `Normal` rule would have delivered;
    /// sheds are counted separately.
    pub fn plan_pressured(&mut self, u: NodeId, row: RowState, pressure: Pressure) -> Strategy {
        self.plan_pressured_demoted(u, row, pressure, false)
    }

    /// [`plan_pressured`](Self::plan_pressured) with the circuit
    /// breaker's verdict applied: when `demote_full` is set a
    /// `FullProp` decision is served `Sampled` instead (and counted
    /// degraded). The engine only sets it after consulting the breaker
    /// for a request whose ladder tier would be `FullProp`.
    pub(crate) fn plan_pressured_demoted(
        &mut self,
        u: NodeId,
        row: RowState,
        pressure: Pressure,
        demote_full: bool,
    ) -> Strategy {
        let baseline = match row {
            RowState::Fresh => Strategy::Cached,
            _ if self.is_hub(u) => Strategy::Sampled,
            _ => Strategy::FullProp,
        };
        let mut s = match pressure {
            Pressure::Normal => baseline,
            Pressure::Degraded => match row {
                RowState::Fresh => Strategy::Cached,
                RowState::Stale => Strategy::Stale,
                RowState::Absent => Strategy::Sampled,
            },
            Pressure::CachedOnly => match row {
                RowState::Fresh => Strategy::Cached,
                RowState::Stale => Strategy::Stale,
                RowState::Absent => Strategy::Shed,
            },
            Pressure::Shed => Strategy::Shed,
        };
        if demote_full && s == Strategy::FullProp {
            s = Strategy::Sampled;
        }
        let coarse = |t: Strategy| matches!(t, Strategy::Sampled | Strategy::Stale);
        let full_quality = |t: Strategy| matches!(t, Strategy::Cached | Strategy::FullProp);
        if coarse(s) && full_quality(baseline) {
            self.record_degraded();
        }
        match s {
            Strategy::Cached => {
                self.cached += 1;
                PLAN_CACHED.incr();
            }
            Strategy::FullProp => {
                self.full += 1;
                PLAN_FULL.incr();
            }
            Strategy::Sampled => {
                self.sampled += 1;
                PLAN_SAMPLED.incr();
            }
            Strategy::Stale => {
                self.stale += 1;
                PLAN_STALE.incr();
            }
            Strategy::Shed => {
                self.shed += 1;
                record_shed();
            }
        }
        s
    }

    /// Counts one degraded answer (also called by the engine when the
    /// circuit breaker demotes a FullProp decision).
    pub(crate) fn record_degraded(&mut self) {
        self.degraded += 1;
        DEGRADED_COUNT.incr();
    }

    /// The thresholds/tolerances this planner runs with.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Precomputed degree of `u`.
    pub fn degree(&self, u: NodeId) -> u32 {
        self.degree[u as usize]
    }

    /// Precomputed 2-hop frontier estimate of `u`.
    pub fn frontier(&self, u: NodeId) -> u64 {
        self.frontier[u as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_graph::generate;

    #[test]
    fn hubs_get_sampled_and_leaves_get_full() {
        let g = generate::star(50); // node 0 has degree 49, leaves degree 1
        let cfg = PlannerConfig { hub_degree: 10, hub_frontier: u64::MAX, ..Default::default() };
        let mut p = QueryPlanner::new(&g, cfg);
        assert_eq!(p.plan(0, false), Strategy::Sampled);
        assert_eq!(p.plan(1, false), Strategy::FullProp);
        assert_eq!(p.plan(1, true), Strategy::Cached);
        assert_eq!((p.cached, p.full, p.sampled), (1, 1, 1));
    }

    #[test]
    fn ladder_tiers_follow_pressure_and_row_state() {
        let g = generate::star(50);
        let cfg = PlannerConfig { hub_degree: 10, hub_frontier: u64::MAX, ..Default::default() };
        let mut p = QueryPlanner::new(&g, cfg);
        // Normal: the PR 9 rule; a stale row is treated as a miss.
        assert_eq!(p.plan_pressured(1, RowState::Fresh, Pressure::Normal), Strategy::Cached);
        assert_eq!(p.plan_pressured(1, RowState::Stale, Pressure::Normal), Strategy::FullProp);
        assert_eq!(p.plan_pressured(0, RowState::Stale, Pressure::Normal), Strategy::Sampled);
        assert_eq!(p.degraded, 0, "zero pressure must never count degradation");
        // Degraded: no FullProp pushes; stale rows are acceptable.
        assert_eq!(p.plan_pressured(1, RowState::Absent, Pressure::Degraded), Strategy::Sampled);
        assert_eq!(p.degraded, 1, "leaf at Degraded lost full quality");
        assert_eq!(p.plan_pressured(0, RowState::Absent, Pressure::Degraded), Strategy::Sampled);
        assert_eq!(p.degraded, 1, "hub would have been Sampled anyway");
        assert_eq!(p.plan_pressured(1, RowState::Stale, Pressure::Degraded), Strategy::Stale);
        assert_eq!(p.plan_pressured(1, RowState::Fresh, Pressure::Degraded), Strategy::Cached);
        assert_eq!(p.degraded, 2);
        // CachedOnly: rows or sheds, never a push.
        assert_eq!(p.plan_pressured(1, RowState::Fresh, Pressure::CachedOnly), Strategy::Cached);
        assert_eq!(p.plan_pressured(1, RowState::Stale, Pressure::CachedOnly), Strategy::Stale);
        assert_eq!(p.plan_pressured(1, RowState::Absent, Pressure::CachedOnly), Strategy::Shed);
        // Shed: everything sheds, even present rows.
        assert_eq!(p.plan_pressured(1, RowState::Fresh, Pressure::Shed), Strategy::Shed);
        assert_eq!(p.shed, 2);
        assert_eq!(p.stale, 2);
    }

    #[test]
    fn ladder_is_replay_exact() {
        let g = generate::star(50);
        let trace: Vec<(NodeId, RowState, Pressure)> = (0..200)
            .map(|i| {
                let u = (i * 7) % 50;
                let row = match i % 3 {
                    0 => RowState::Absent,
                    1 => RowState::Fresh,
                    _ => RowState::Stale,
                };
                let pr = match (i / 3) % 4 {
                    0 => Pressure::Normal,
                    1 => Pressure::Degraded,
                    2 => Pressure::CachedOnly,
                    _ => Pressure::Shed,
                };
                (u as NodeId, row, pr)
            })
            .collect();
        let run = |trace: &[(NodeId, RowState, Pressure)]| {
            let cfg =
                PlannerConfig { hub_degree: 10, hub_frontier: u64::MAX, ..Default::default() };
            let mut p = QueryPlanner::new(&g, cfg);
            let decisions: Vec<Strategy> =
                trace.iter().map(|&(u, r, pr)| p.plan_pressured(u, r, pr)).collect();
            (decisions, p.cached, p.full, p.sampled, p.stale, p.shed, p.degraded)
        };
        assert_eq!(run(&trace), run(&trace), "ladder must be a pure function of the trace");
    }

    #[test]
    fn frontier_rule_catches_hub_adjacent_nodes() {
        // A star leaf has degree 1 but frontier 1 + 49 = 50: the 2-hop
        // estimate sees through to the hub.
        let g = generate::star(50);
        let cfg = PlannerConfig { hub_degree: u32::MAX, hub_frontier: 40, ..Default::default() };
        let mut p = QueryPlanner::new(&g, cfg);
        assert_eq!(p.frontier(1), 50);
        assert_eq!(p.plan(1, false), Strategy::Sampled);
    }
}
