//! Edge-list ingestion into validated [`CsrGraph`]s.
//!
//! The builder owns all the messy parts of graph loading — duplicate edges,
//! missing reverse edges, self-loops — so that downstream algorithms can
//! assume clean sorted CSR rows. Duplicate parallel edges are *merged*
//! (weights summed), matching how adjacency matrices treat multi-edges.

use crate::csr::{CsrGraph, NodeId};
use crate::{GraphError, Result};

/// # Example
///
/// ```
/// use sgnn_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(4)
///     .symmetric()
///     .edges(&[(0, 1), (1, 2), (2, 3)])
///     .build()
///     .unwrap();
/// assert_eq!(g.num_edges(), 6); // each undirected edge stored twice
/// assert!(g.has_edge(2, 1));
/// ```
/// Builder accumulating `(src, dst, weight)` triples.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
    w: Vec<f32>,
    symmetric: bool,
    drop_self_loops: bool,
    weighted: bool,
}

impl GraphBuilder {
    /// New builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            src: Vec::new(),
            dst: Vec::new(),
            w: Vec::new(),
            symmetric: false,
            drop_self_loops: false,
            weighted: false,
        }
    }

    /// Mirror every added edge (build an undirected graph).
    pub fn symmetric(mut self) -> Self {
        self.symmetric = true;
        self
    }

    /// Silently discard self-loops at build time.
    pub fn drop_self_loops(mut self) -> Self {
        self.drop_self_loops = true;
        self
    }

    /// Adds one directed edge with unit weight.
    pub fn edge(mut self, u: NodeId, v: NodeId) -> Self {
        self.push(u, v, 1.0);
        self
    }

    /// Adds many unit-weight edges.
    pub fn edges(mut self, list: &[(NodeId, NodeId)]) -> Self {
        self.src.reserve(list.len());
        self.dst.reserve(list.len());
        self.w.reserve(list.len());
        for &(u, v) in list {
            self.push(u, v, 1.0);
        }
        self
    }

    /// Adds many weighted edges; marks the output graph as weighted.
    pub fn weighted_edges(mut self, list: &[(NodeId, NodeId, f32)]) -> Self {
        self.weighted = true;
        for &(u, v, w) in list {
            self.push(u, v, w);
        }
        self
    }

    /// Non-consuming edge insertion for loop-heavy generators.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.push(u, v, 1.0);
    }

    /// Non-consuming weighted insertion.
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, w: f32) {
        self.weighted = true;
        self.push(u, v, w);
    }

    fn push(&mut self, u: NodeId, v: NodeId, w: f32) {
        self.src.push(u);
        self.dst.push(v);
        self.w.push(w);
    }

    /// Builds the CSR graph: bounds-check, (optionally) mirror, sort
    /// per-row, merge duplicates by summing weights.
    pub fn build(self) -> Result<CsrGraph> {
        let n = self.n;
        for (&u, &v) in self.src.iter().zip(self.dst.iter()) {
            if (u as usize) >= n {
                return Err(GraphError::NodeOutOfRange { node: u as u64, n });
            }
            if (v as usize) >= n {
                return Err(GraphError::NodeOutOfRange { node: v as u64, n });
            }
        }
        // Count per-source degrees (with mirroring).
        let mut counts = vec![0usize; n + 1];
        let mut total = 0usize;
        for (&u, &v) in self.src.iter().zip(self.dst.iter()) {
            if self.drop_self_loops && u == v {
                continue;
            }
            counts[u as usize + 1] += 1;
            total += 1;
            if self.symmetric && u != v {
                counts[v as usize + 1] += 1;
                total += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let indptr_raw = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0 as NodeId; total];
        let mut weights = vec![0f32; total];
        for ((&u, &v), &w) in self.src.iter().zip(self.dst.iter()).zip(self.w.iter()) {
            if self.drop_self_loops && u == v {
                continue;
            }
            let s = cursor[u as usize];
            cursor[u as usize] += 1;
            indices[s] = v;
            weights[s] = w;
            if self.symmetric && u != v {
                let s = cursor[v as usize];
                cursor[v as usize] += 1;
                indices[s] = u;
                weights[s] = w;
            }
        }
        // Sort each row and merge duplicates (sum weights).
        let mut out_indptr = Vec::with_capacity(n + 1);
        out_indptr.push(0usize);
        let mut out_indices: Vec<NodeId> = Vec::with_capacity(total);
        let mut out_weights: Vec<f32> = Vec::with_capacity(total);
        let mut row: Vec<(NodeId, f32)> = Vec::new();
        for u in 0..n {
            row.clear();
            for e in indptr_raw[u]..indptr_raw[u + 1] {
                row.push((indices[e], weights[e]));
            }
            row.sort_unstable_by_key(|&(v, _)| v);
            let mut i = 0;
            while i < row.len() {
                let v = row[i].0;
                let mut w = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == v {
                    w += row[j].1;
                    j += 1;
                }
                out_indices.push(v);
                out_weights.push(w);
                i = j;
            }
            out_indptr.push(out_indices.len());
        }
        let weights = if self.weighted { Some(out_weights) } else { None };
        CsrGraph::from_parts(n, out_indptr, out_indices, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_merge_and_sum() {
        let g = GraphBuilder::new(2).weighted_edges(&[(0, 1, 1.0), (0, 1, 2.5)]).build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weights_of(0).unwrap(), &[3.5]);
    }

    #[test]
    fn duplicate_unit_edges_collapse() {
        let g = GraphBuilder::new(2).edges(&[(0, 1), (0, 1), (0, 1)]).build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.is_weighted());
    }

    #[test]
    fn symmetric_mirrors_but_not_self_loops() {
        let g = GraphBuilder::new(3).symmetric().edges(&[(0, 1), (2, 2)]).build().unwrap();
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(0, 1));
        // Self-loop stored once, not doubled.
        assert_eq!(g.neighbors(2), &[2]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn drop_self_loops_works() {
        let g = GraphBuilder::new(2).drop_self_loops().edges(&[(0, 0), (0, 1)]).build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn out_of_range_is_reported() {
        let err = GraphBuilder::new(2).edge(0, 9).build();
        assert!(matches!(err, Err(GraphError::NodeOutOfRange { node: 9, .. })));
    }

    #[test]
    fn rows_sorted_after_build() {
        let g = GraphBuilder::new(4).edges(&[(0, 3), (0, 1), (0, 2)]).build().unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        g.validate().unwrap();
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(4).build().unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any edge list over valid ids builds a graph that passes
        /// validation, and symmetric builds are structurally symmetric.
        #[test]
        fn builder_always_produces_valid_csr(
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..300),
            symmetric in proptest::bool::ANY,
        ) {
            let mut b = GraphBuilder::new(40);
            if symmetric { b = b.symmetric(); }
            let g = b.edges(&edges).build().unwrap();
            g.validate().unwrap();
            if symmetric {
                prop_assert!(g.is_symmetric());
            }
            // Every input edge must be present.
            for (u, v) in edges {
                prop_assert!(g.has_edge(u, v));
            }
        }

        /// Merging duplicates preserves total weight mass.
        #[test]
        fn weight_mass_is_conserved(
            edges in proptest::collection::vec((0u32..20, 0u32..20, 0.1f32..2.0), 1..100)
        ) {
            let total: f64 = edges.iter().map(|&(_, _, w)| w as f64).sum();
            let g = GraphBuilder::new(20).weighted_edges(&edges).build().unwrap();
            prop_assert!((g.total_weight() - total).abs() < 1e-3);
        }
    }
}
