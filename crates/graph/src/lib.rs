//! # sgnn-graph
//!
//! Graph storage and processing substrate for the `sgnn` workspace.
//!
//! The survey's central thesis is that GNN scalability is a *graph data
//! management* problem: the expensive, irregular part of every scalable GNN
//! is how the graph is stored, traversed, normalized, and multiplied against
//! feature matrices. This crate is that storage/processing layer:
//!
//! - [`CsrGraph`] — compressed sparse row adjacency (optionally weighted),
//!   the canonical format every other crate consumes.
//! - [`GraphBuilder`] — edge-list ingestion with dedup / symmetrization /
//!   self-loop control.
//! - [`generate`] — deterministic synthetic generators (Erdős–Rényi,
//!   Barabási–Albert, R-MAT, stochastic block model with homophily control,
//!   grids, chains) standing in for the paper's industrial datasets.
//! - [`normalize`] — GCN-style symmetric / random-walk normalizations
//!   producing weighted CSR operators.
//! - [`spmm`] — parallel sparse×dense products, plus `f64` operator adapters
//!   ([`CsrOpF64`]) feeding the eigensolvers in `sgnn-linalg`.
//! - [`blocked`] — the tiled register-gather aggregation body over a
//!   [`CsrView`]: `spmm` runs it for d ≥ 5 (with explicit tiles via
//!   `spmm_blocked_into`), sampled blocks and evaluation tiles for every
//!   width (DESIGN.md §9).
//! - [`traverse`] — BFS, connected components, k-hop neighborhoods.
//! - [`io`] — text edge-list and binary (`bytes`-based) persistence.

// Numeric kernels index several parallel flat buffers at once; iterator
// rewrites obscure them. Config-style constructors take their full
// parameter list deliberately (documented, stable).
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

pub mod blocked;
pub mod builder;
pub mod csr;
pub mod generate;
pub mod io;
pub mod normalize;
pub mod reorder;
pub mod spmm;
pub mod stats;
pub mod traverse;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, CsrView, NodeId};
pub use normalize::{normalized_adjacency, NormKind};
pub use spmm::CsrOpF64;

/// Errors produced by graph construction and processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint referenced a node id outside `0..n`.
    NodeOutOfRange {
        /// Offending node id.
        node: u64,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// Parse failure while reading an edge list.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// I/O failure (wraps the `std::io` error text).
    Io(String),
    /// Malformed binary payload.
    Corrupt(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node id {node} out of range for graph with {n} nodes")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::Corrupt(m) => write!(f, "corrupt graph payload: {m}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, GraphError>;
