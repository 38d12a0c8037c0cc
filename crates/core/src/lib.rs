//! # sgnn-core
//!
//! The unified scalable-GNN framework: every technique the survey covers,
//! wired into one training stack over the substrate crates.
//!
//! - [`models`] — the model zoo: full-batch GCN (the baseline every
//!   scalable design is measured against), sampled GraphSAGE, decoupled
//!   pipelines (SGC / APPNP / SCARA / heat / LD2 channels), GAMLP-style
//!   hop attention, and implicit GNNs with three equilibrium solvers.
//! - [`trainer`] / [`trainer_ext`] — training loops for each scalability family: full-batch,
//!   decoupled mini-batch, neighbor-sampled, subgraph-sampled
//!   (GraphSAINT / Cluster-GCN), and coarse-graph training, all run by
//!   one private epoch driver (resume, kill polls, early stopping,
//!   checkpoints, per-batch memory charges) and producing a common
//!   [`trainer::TrainReport`] with time and peak-memory accounting.
//! - [`pipeline`] — double-buffered batch prefetch: mini-batch trainers
//!   sample batch `i+1` on a background thread while batch `i` computes,
//!   with bitwise-identical results to the inline path.
//! - [`shard`] — shard-parallel full-graph training with halo exchange
//!   and fixed-order gradient allreduce, bitwise identical to the
//!   single-process baseline at any shard/thread count (DESIGN.md §7).
//! - [`memory`] — the analytic memory ledger standing in for GPU memory
//!   (DESIGN.md substitutions): every materialized matrix is charged.
//! - [`metrics`] — accuracy / macro-F1 / confusion matrices.
//! - [`taxonomy`] — Figure 1 of the paper as a machine-readable tree, each
//!   leaf mapped to the module implementing it.

// Numeric kernels index several parallel flat buffers at once; iterator
// rewrites obscure them. Config-style constructors take their full
// parameter list deliberately (documented, stable).
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

pub mod ckpt;
mod driver;
pub mod error;
pub mod memory;
pub mod metrics;
pub mod models;
pub mod pipeline;
pub mod shard;
pub mod shard_comm;
pub mod taxonomy;
pub mod trainer;
pub mod trainer_ext;

pub use error::{TrainError, TrainResult};
pub use memory::Ledger;
pub use shard_comm::CommRegime;
pub use trainer::TrainReport;
// Inference numeric mode (F32 default; int8/f16 opt-in, DESIGN.md §9).
pub use sgnn_linalg::QuantMode;
