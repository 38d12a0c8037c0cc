//! Compressed sparse row adjacency — the workspace's canonical graph format.
//!
//! Layout follows the perf-book guidance for irregular data: three flat
//! buffers (`indptr`, `indices`, optional `weights`), neighbor lists sorted
//! ascending so membership tests are binary searches and merges are linear.
//! Node ids are `u32` to halve index memory on million-edge graphs.

use crate::{GraphError, Result};

/// Node identifier. `u32` keeps CSR index arrays compact; graphs in this
/// workspace stay below `u32::MAX` nodes by construction.
pub type NodeId = u32;

/// A borrowed rectangular CSR matrix: row `i` holds the entries
/// `indptr[i]..indptr[i + 1]` of `cols` (each below `num_cols`) and of
/// `weights` (unit weights when `None`). Graphs ([`CsrGraph::view`]) and
/// sampled blocks produce one, and aggregate through [`crate::blocked`].
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    /// Row offsets, one more than the row count.
    pub indptr: &'a [usize],
    /// Column of each entry.
    pub cols: &'a [u32],
    /// Weight of each entry, parallel to `cols`.
    pub weights: Option<&'a [f32]>,
    /// Column count: the rows of the matrix the view multiplies.
    pub num_cols: usize,
}

impl CsrView<'_> {
    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.indptr.len().saturating_sub(1)
    }
}

/// An immutable graph in CSR form.
///
/// Invariants (enforced by [`GraphBuilder`](crate::GraphBuilder) and
/// checked by [`CsrGraph::validate`]):
/// - `indptr.len() == n + 1`, `indptr[0] == 0`, non-decreasing,
///   `indptr[n] == indices.len()`;
/// - every entry of `indices` is `< n`;
/// - each neighbor list `indices[indptr[u]..indptr[u+1]]` is sorted
///   strictly ascending (no duplicate edges);
/// - `weights`, when present, is parallel to `indices`.
#[derive(Clone, PartialEq)]
pub struct CsrGraph {
    n: usize,
    indptr: Vec<usize>,
    indices: Vec<NodeId>,
    weights: Option<Vec<f32>>,
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsrGraph(n={}, m={}, weighted={})",
            self.n,
            self.num_edges(),
            self.weights.is_some()
        )
    }
}

impl CsrGraph {
    /// Assembles a CSR graph from raw parts, validating every invariant.
    pub fn from_parts(
        n: usize,
        indptr: Vec<usize>,
        indices: Vec<NodeId>,
        weights: Option<Vec<f32>>,
    ) -> Result<Self> {
        let g = CsrGraph { n, indptr, indices, weights };
        g.validate()?;
        Ok(g)
    }

    /// Empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        CsrGraph { n, indptr: vec![0; n + 1], indices: Vec::new(), weights: None }
    }

    /// Checks all structural invariants; used by `from_parts`, tests, and
    /// after deserialization.
    pub fn validate(&self) -> Result<()> {
        if self.indptr.len() != self.n + 1 {
            return Err(GraphError::Corrupt(format!(
                "indptr len {} != n+1 = {}",
                self.indptr.len(),
                self.n + 1
            )));
        }
        if self.indptr[0] != 0 || *self.indptr.last().unwrap() != self.indices.len() {
            return Err(GraphError::Corrupt("indptr endpoints invalid".into()));
        }
        if let Some(w) = &self.weights {
            if w.len() != self.indices.len() {
                return Err(GraphError::Corrupt("weights not parallel to indices".into()));
            }
        }
        for u in 0..self.n {
            if self.indptr[u] > self.indptr[u + 1] {
                return Err(GraphError::Corrupt(format!("indptr decreasing at {u}")));
            }
            let row = &self.indices[self.indptr[u]..self.indptr[u + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(GraphError::Corrupt(format!("row {u} not strictly ascending")));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= self.n {
                    return Err(GraphError::NodeOutOfRange { node: last as u64, n: self.n });
                }
            }
        }
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges (stored adjacency entries).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.indptr[u + 1] - self.indptr[u]
    }

    /// Sorted neighbor slice of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.indices[self.indptr[u]..self.indptr[u + 1]]
    }

    /// Edge weights of `u`'s neighbor slice (`None` for unweighted graphs).
    #[inline]
    pub fn weights_of(&self, u: NodeId) -> Option<&[f32]> {
        let u = u as usize;
        self.weights.as_ref().map(|w| &w[self.indptr[u]..self.indptr[u + 1]])
    }

    /// Raw `indptr` buffer.
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw `indices` buffer.
    #[inline]
    pub fn indices(&self) -> &[NodeId] {
        &self.indices
    }

    /// Raw weight buffer, if weighted.
    #[inline]
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// The adjacency as a square [`CsrView`].
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            indptr: &self.indptr,
            cols: &self.indices,
            weights: self.weights.as_deref(),
            num_cols: self.n,
        }
    }

    /// Whether an explicit weight array is stored.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Weight of the edge-slot `e` (1.0 for unweighted graphs).
    #[inline]
    pub fn weight_at(&self, e: usize) -> f32 {
        match &self.weights {
            Some(w) => w[e],
            None => 1.0,
        }
    }

    /// Binary-search membership test for edge `(u, v)`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all directed edges `(u, v, w)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.n).flat_map(move |u| {
            let (s, e) = (self.indptr[u], self.indptr[u + 1]);
            (s..e).map(move |i| (u as NodeId, self.indices[i], self.weight_at(i)))
        })
    }

    /// All out-degrees as a vector.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.n).map(|u| self.indptr[u + 1] - self.indptr[u]).collect()
    }

    /// Maximum out-degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|u| self.indptr[u + 1] - self.indptr[u]).max().unwrap_or(0)
    }

    /// Approximate resident bytes (for the memory-accounting experiments).
    pub fn nbytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<NodeId>()
            + self.weights.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<f32>())
    }

    /// Transposed (reversed) graph; weights follow their edges.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.n;
        let mut counts = vec![0usize; n + 1];
        for &v in &self.indices {
            counts[v as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0 as NodeId; self.indices.len()];
        let mut weights = self.weights.as_ref().map(|_| vec![0f32; self.indices.len()]);
        for u in 0..n {
            for e in self.indptr[u]..self.indptr[u + 1] {
                let v = self.indices[e] as usize;
                let slot = cursor[v];
                cursor[v] += 1;
                indices[slot] = u as NodeId;
                if let (Some(wout), Some(win)) = (&mut weights, &self.weights) {
                    wout[slot] = win[e];
                }
            }
        }
        // Rows come out sorted because we scan sources in ascending order.
        CsrGraph { n, indptr, indices, weights }
    }

    /// Whether the adjacency structure is symmetric (ignores weights).
    pub fn is_symmetric(&self) -> bool {
        if self.indices.len() != self.transpose().indices.len() {
            return false;
        }
        for u in 0..self.n as NodeId {
            for &v in self.neighbors(u) {
                if !self.has_edge(v, u) {
                    return false;
                }
            }
        }
        true
    }

    /// Induced subgraph on `nodes` (need not be sorted; duplicates ignored).
    ///
    /// Returns the subgraph plus the mapping `local → global`. Edge weights
    /// are carried over.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (CsrGraph, Vec<NodeId>) {
        let mut globals: Vec<NodeId> = nodes.to_vec();
        globals.sort_unstable();
        globals.dedup();
        let mut local_of = vec![u32::MAX; self.n];
        for (i, &g) in globals.iter().enumerate() {
            local_of[g as usize] = i as u32;
        }
        let mut indptr = Vec::with_capacity(globals.len() + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut weights: Option<Vec<f32>> = self.weights.as_ref().map(|_| Vec::new());
        for &g in &globals {
            let (s, e) = (self.indptr[g as usize], self.indptr[g as usize + 1]);
            for i in s..e {
                let v = self.indices[i];
                let lv = local_of[v as usize];
                if lv != u32::MAX {
                    indices.push(lv);
                    if let Some(w) = &mut weights {
                        w.push(self.weight_at(i));
                    }
                }
            }
            indptr.push(indices.len());
        }
        // Local neighbor lists inherit the global sort order because the
        // relabeling is monotone over sorted `globals`.
        let sub = CsrGraph { n: globals.len(), indptr, indices, weights };
        (sub, globals)
    }

    /// Relabeled row slice for shard-local execution.
    ///
    /// `globals` is a strictly-ascending set of global node ids (a
    /// shard's owned ∪ halo set); `keep_row[i]` says whether local row
    /// `i` (global `globals[i]`) keeps its adjacency (owned rows) or
    /// comes out empty (halo rows — their outputs are never read, so
    /// carrying their edges would only waste compute and skew nnz
    /// accounting). Kept rows must have **every** neighbor inside
    /// `globals`; a missing neighbor is a hole in the halo map and is
    /// reported as an error rather than silently dropped.
    ///
    /// Because `globals` is sorted, the relabeling is monotone: local
    /// neighbor lists preserve the global order (and the strictly-
    /// ascending CSR invariant), and weight bits are copied verbatim —
    /// which is what makes per-row kernels over the slice bitwise equal
    /// to the same rows of the full graph (DESIGN.md §7).
    pub fn relabeled_slice(&self, globals: &[NodeId], keep_row: &[bool]) -> Result<CsrGraph> {
        assert_eq!(globals.len(), keep_row.len(), "one keep flag per local row");
        debug_assert!(globals.windows(2).all(|w| w[0] < w[1]), "globals must be sorted unique");
        let mut local_of = vec![u32::MAX; self.n];
        for (i, &g) in globals.iter().enumerate() {
            local_of[g as usize] = i as u32;
        }
        let mut indptr = Vec::with_capacity(globals.len() + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut weights: Option<Vec<f32>> = self.weights.as_ref().map(|_| Vec::new());
        for (i, &g) in globals.iter().enumerate() {
            if keep_row[i] {
                let (s, e) = (self.indptr[g as usize], self.indptr[g as usize + 1]);
                for idx in s..e {
                    let v = self.indices[idx];
                    let lv = local_of[v as usize];
                    if lv == u32::MAX {
                        return Err(GraphError::Corrupt(format!(
                            "kept row {g} has neighbor {v} outside the local set"
                        )));
                    }
                    indices.push(lv);
                    if let Some(w) = &mut weights {
                        w.push(self.weight_at(idx));
                    }
                }
            }
            indptr.push(indices.len());
        }
        CsrGraph::from_parts(globals.len(), indptr, indices, weights)
    }

    /// Returns a copy carrying the given weight buffer (parallel to
    /// `indices`).
    pub fn with_weights(&self, weights: Vec<f32>) -> Result<CsrGraph> {
        if weights.len() != self.indices.len() {
            return Err(GraphError::Corrupt(format!(
                "weight buffer {} != edges {}",
                weights.len(),
                self.indices.len()
            )));
        }
        Ok(CsrGraph {
            n: self.n,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            weights: Some(weights),
        })
    }

    /// Sum of all edge weights (edge count for unweighted graphs).
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.iter().map(|&x| x as f64).sum(),
            None => self.indices.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        // 0-1, 1-2, 0-2 undirected.
        GraphBuilder::new(3).symmetric().edges(&[(0, 1), (1, 2), (0, 2)]).build().unwrap()
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert!(g.is_symmetric());
    }

    #[test]
    fn from_parts_rejects_bad_indptr() {
        let err = CsrGraph::from_parts(2, vec![0, 2], vec![0, 1], None);
        assert!(err.is_err());
        let err = CsrGraph::from_parts(2, vec![0, 1, 1], vec![0, 1], None);
        assert!(err.is_err());
    }

    #[test]
    fn from_parts_rejects_unsorted_rows() {
        let err = CsrGraph::from_parts(2, vec![0, 2, 2], vec![1, 0], None);
        assert!(err.is_err());
    }

    #[test]
    fn from_parts_rejects_out_of_range() {
        let err = CsrGraph::from_parts(2, vec![0, 1, 1], vec![5], None);
        assert!(matches!(err, Err(GraphError::NodeOutOfRange { node: 5, .. })));
    }

    #[test]
    fn transpose_of_directed_edge() {
        let g = GraphBuilder::new(3).edges(&[(0, 1), (0, 2), (1, 2)]).build().unwrap();
        let t = g.transpose();
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(0), &[] as &[NodeId]);
        t.validate().unwrap();
    }

    #[test]
    fn transpose_preserves_weights() {
        let g = GraphBuilder::new(2).weighted_edges(&[(0, 1, 2.5), (1, 0, 0.5)]).build().unwrap();
        let t = g.transpose();
        assert_eq!(t.weights_of(1).unwrap(), &[2.5]);
        assert_eq!(t.weights_of(0).unwrap(), &[0.5]);
    }

    #[test]
    fn transpose_involution_on_random_graph() {
        let g = crate::generate::erdos_renyi(200, 0.05, false, 7);
        let tt = g.transpose().transpose();
        assert_eq!(g.indptr(), tt.indptr());
        assert_eq!(g.indices(), tt.indices());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = triangle();
        let (sub, map) = g.induced_subgraph(&[2, 0]);
        assert_eq!(map, vec![0, 2]);
        assert_eq!(sub.num_nodes(), 2);
        // Only edge 0-2 survives, in both directions.
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 0));
        sub.validate().unwrap();
    }

    #[test]
    fn induced_subgraph_dedups_input() {
        let g = triangle();
        let (sub, map) = g.induced_subgraph(&[1, 1, 1]);
        assert_eq!(map, vec![1]);
        assert_eq!(sub.num_nodes(), 1);
        assert_eq!(sub.num_edges(), 0);
    }

    #[test]
    fn relabeled_slice_preserves_rows_and_weight_bits() {
        // Weighted path 0-1-2-3 plus edge 1-3; slice rows {1,2,3} keeping
        // only row 2's adjacency (as if 2 were owned and 1, 3 its halo).
        let g = GraphBuilder::new(4)
            .symmetric()
            .weighted_edges(&[(0, 1, 0.25), (1, 2, 0.5), (2, 3, 0.125), (1, 3, 2.0)])
            .build()
            .unwrap();
        let sub = g.relabeled_slice(&[1, 2, 3], &[false, true, false]).unwrap();
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.neighbors(0), &[] as &[NodeId]);
        assert_eq!(sub.neighbors(2), &[] as &[NodeId]);
        // Row 2's global neighbors {1, 3} relabel monotonically to {0, 2}.
        assert_eq!(sub.neighbors(1), &[0, 2]);
        let (sw, gw) = (sub.weights_of(1).unwrap(), g.weights_of(2).unwrap());
        assert_eq!(sw.len(), gw.len());
        for (a, b) in sw.iter().zip(gw) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        sub.validate().unwrap();
    }

    #[test]
    fn relabeled_slice_rejects_uncovered_neighbor() {
        let g = triangle();
        // Row 0 kept but neighbor 2 missing from the local set.
        assert!(g.relabeled_slice(&[0, 1], &[true, false]).is_err());
        // With the full set it succeeds.
        assert!(g.relabeled_slice(&[0, 1, 2], &[true, false, false]).is_ok());
    }

    #[test]
    fn edges_iterator_matches_structure() {
        let g = triangle();
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(edges.len(), 6);
        assert!(edges.contains(&(0, 1)) && edges.contains(&(1, 0)));
    }

    #[test]
    fn nbytes_and_total_weight() {
        let g = triangle();
        assert!(g.nbytes() > 0);
        assert_eq!(g.total_weight(), 6.0);
        let w = g.with_weights(vec![0.5; 6]).unwrap();
        assert_eq!(w.total_weight(), 3.0);
        assert!(w.with_weights(vec![1.0]).is_err());
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrGraph::empty(5);
        g.validate().unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }
}
