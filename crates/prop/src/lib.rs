//! # sgnn-prop
//!
//! Decoupled graph propagation — the survey's §3.1.2 "Decoupled Graph
//! Propagation" pillar and the algorithmic heart of APPNP [18], SGC, SCARA
//! [26] and the PPR-based model family.
//!
//! The decoupling insight: the graph-dependent part of a GNN (`Â^K X` or a
//! personalized-PageRank smoothing of `X`) can be computed **once, outside
//! the training loop**, with dedicated graph algorithms, after which the
//! neural network trains on plain feature rows in mini-batches. This crate
//! provides those graph algorithms:
//!
//! - [`power`] — exact K-step power propagation (SGC) and iterative APPNP
//!   smoothing, plus multi-hop embedding stacks for multi-scale models.
//! - [`push`] — Andersen-style forward push for single-source PPR with an
//!   `ε·deg` residual guarantee, and the one SCARA-style column kernel
//!   ([`smooth_matrix`]) that smooths whole feature columns with the same
//!   row-stochastic PPR operator, within a proved entrywise bound `rmax`.
//!   Decoupled training (`PrecomputeMethod::Scara`) and the serving
//!   store both call it, so a trained head is served rows of the
//!   operator it was trained on.
//! - [`mc`] — Monte-Carlo PPR via α-terminated random walks.
//! - [`heat`] — heat-kernel propagation via truncated Taylor series.
//! - [`receptive`] — receptive-field and aggregation-count measurements
//!   quantifying neighborhood explosion (experiment E1).

// Numeric kernels index several parallel flat buffers at once; iterator
// rewrites obscure them. Config-style constructors take their full
// parameter list deliberately (documented, stable).
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

pub mod fora;
pub mod heat;
pub mod mc;
pub mod power;
pub mod push;
pub mod receptive;

pub use power::{appnp_propagate, hop_embeddings, power_propagate};
pub use push::{
    forward_push, smooth_column, smooth_column_exact, smooth_column_push, smooth_matrix,
    smooth_matrix_seq, Push, PushStats, PushWorkspace,
};
