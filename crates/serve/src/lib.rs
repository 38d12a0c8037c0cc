//! # sgnn-serve — request-driven online inference
//!
//! The survey's decoupled-model taxonomy (§3.1.2) reduces GNN inference
//! to "embedding lookup + cheap MLP" once propagation is precomputed.
//! This crate is that serving layer (ROADMAP item 1, DESIGN.md §12):
//!
//! - [`push`] — per-node rows of the smoothing operator
//!   `S = Σ α(1−α)^i P^i` (row-stochastic `P = D⁻¹A`, dangling rows
//!   self-loop), plus a re-export of `sgnn-prop`'s column kernels, the
//!   one implementation of `S·X` that decoupled training uses too:
//!   SCARA-style feature-oriented push with residual threshold `rmax`
//!   (column-parallel, bitwise thread-invariant) or exact for
//!   `rmax = 0`. The documented approximation contract is an entrywise
//!   bound: `|cached − exact| < rmax`.
//! - [`store`] — the decoupled embedding store the precompute feeds:
//!   all rows (`Full`), only hot high-degree rows (`Hot`), or nothing
//!   (`None` — everything on demand).
//! - [`plan`] — the node-adaptive query planner (ablation A2 / NAI
//!   generalized into a runtime policy): cached-embedding vs
//!   full-propagation vs sampled (coarse-push) inference per request,
//!   decided from degree/frontier statistics, with optional
//!   confidence-gated escalation.
//! - [`cache`] — deterministic LRU embedding cache with
//!   `serve.cache.hits/misses/evictions` counters.
//! - [`engine`] — [`engine::ServeEngine`]: `serve_one`/`serve_batch`
//!   answering logits per node, batched answers bitwise-equal to
//!   one-at-a-time answers.
//! - [`batch`] — admission batching: an arrival queue whose server
//!   coalesces concurrent queries within a deadline window into one
//!   batched head application (the open-loop harness `benchserve`
//!   drives this). Optionally bounded (reject-newest admission
//!   control) with per-request deadline budgets.
//! - [`pressure`] — the overload-robustness layer (DESIGN.md §13):
//!   queue-depth pressure signal driving the planner's
//!   graceful-degradation ladder (FullProp → Sampled → store/stale
//!   row → explicit shed), plus the FullProp circuit breaker with a
//!   deterministic request-counted probe schedule.
//!
//! The determinism contract is pinned by `tests/serving_equivalence.rs`
//! and `tests/ppr_invariants.rs`; the overload/degradation contract by
//! `tests/serving_overload.rs`. DESIGN.md §12–§13 state them in prose.

pub mod batch;
pub mod cache;
pub mod engine;
pub mod plan;
pub mod pressure;
pub mod push;
pub mod store;

pub use batch::{run_server, AdmissionQueue, BatchConfig, ServedQuery};
pub use cache::LruCache;
pub use engine::{PressuredRequest, ServeConfig, ServeEngine, ServeStats};
pub use plan::{PlannerConfig, QueryPlanner, RowState, Strategy};
pub use pressure::{BreakerConfig, CircuitBreaker, OverloadConfig, Pressure, PressureConfig};
pub use push::{
    fresh_row, fresh_row_into, smooth_column, smooth_column_exact, smooth_column_push,
    smooth_matrix, smooth_matrix_seq,
};
pub use store::{EmbeddingStore, PrecomputePolicy};
