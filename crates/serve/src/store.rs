//! Decoupled embedding store — the precompute target.
//!
//! `Full` materializes every row of `S·X` with the column-parallel push
//! ([`sgnn_prop::smooth_matrix`], SCARA's feature-oriented layout).
//! `Hot` precomputes only the top-degree rows via the *per-node* path
//! ([`crate::push::fresh_row`]) at the planner's `FullProp` tolerance —
//! deliberately the same function the engine uses on demand, so a
//! store-backed answer and a freshly computed `FullProp` answer for the
//! same node are bitwise identical (DESIGN.md §12). `None` precomputes
//! nothing and leaves every request to the planner/cache.
//!
//! The store holds only its present rows, compacted into one
//! `rows × d` matrix; a per-node slot index maps a node to its row
//! (the identity for `Full`, absent for most nodes under `Hot`).
//!
//! Every present row is CRC-32 checksummed at build time
//! ([`EmbeddingStore::verify`]); the engine verifies reads only when a
//! fault plan is armed and rebuilds a corrupted row with the per-node
//! push. For `Hot` stores that is the kernel that built the row, so the
//! repaired row is bitwise the original; a `Full` row is rebuilt within
//! the per-node push's tolerance, not bitwise (DESIGN.md §13).

use crate::push::fresh_row;
use sgnn_fault::crc::crc32_f32s;
use sgnn_graph::{CsrGraph, NodeId};
use sgnn_linalg::par::par_map_chunks;
use sgnn_linalg::DenseMatrix;
use sgnn_prop::{smooth_matrix, PushStats};

static PRECOMPUTE_NS: sgnn_obs::Histogram = sgnn_obs::Histogram::new("serve.precompute.ns");
static STORE_ROWS: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.store.rows");

/// What the store precomputes at build time.
#[derive(Debug, Clone, PartialEq)]
pub enum PrecomputePolicy {
    /// Every row, by feature-oriented column push at threshold `rmax`
    /// (`rmax = 0` → exact kernel).
    Full {
        /// Residual threshold; entrywise error bound of the store.
        rmax: f64,
    },
    /// The `count` highest-degree rows (ties broken by ascending node
    /// id), each via the per-node push at tolerance `eps`.
    Hot {
        /// Number of rows to precompute.
        count: usize,
        /// Per-node push tolerance — keep equal to the planner's
        /// `full_eps` so store rows match on-demand `FullProp` rows
        /// bitwise.
        eps: f64,
    },
    /// Nothing precomputed; every request is planned on demand.
    None,
}

/// Slot of a node the policy did not precompute.
const ABSENT: u32 = u32::MAX;

/// Precomputed embedding rows, present for a policy-dependent node set.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    /// The present rows only, in slot order.
    emb: DenseMatrix,
    /// Row of `emb` holding node `u`, or [`ABSENT`]; empty for `None`.
    slot: Vec<u32>,
    /// CRC-32 of each row of `emb`.
    crcs: Vec<u32>,
    push_stats: PushStats,
}

impl EmbeddingStore {
    /// Builds the store for `policy` over `(g, x)` with restart `alpha`.
    pub fn build(g: &CsrGraph, x: &DenseMatrix, alpha: f64, policy: &PrecomputePolicy) -> Self {
        let _t = PRECOMPUTE_NS.time();
        let n = g.num_nodes();
        let d = x.cols();
        let (emb, slot, stats) = match policy {
            PrecomputePolicy::Full { rmax } => {
                let (emb, stats) = smooth_matrix(g, x, alpha, *rmax);
                (emb, (0..n as u32).collect(), stats)
            }
            PrecomputePolicy::Hot { count, eps } => {
                let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
                by_degree.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
                by_degree.truncate(*count);
                let rows =
                    par_map_chunks(by_degree.len(), |i| fresh_row(g, x, by_degree[i], alpha, *eps));
                let mut slot = vec![ABSENT; n];
                for (i, &u) in by_degree.iter().enumerate() {
                    slot[u as usize] = i as u32;
                }
                (DenseMatrix::from_vec(rows.len(), d, rows.concat()), slot, PushStats::default())
            }
            PrecomputePolicy::None => (DenseMatrix::zeros(0, d), Vec::new(), PushStats::default()),
        };
        STORE_ROWS.add(emb.rows() as u64);
        let crcs = (0..emb.rows()).map(|s| crc32_f32s(emb.row(s))).collect();
        EmbeddingStore { emb, slot, crcs, push_stats: stats }
    }

    /// Row of `emb` holding `u`, if the policy covered it.
    fn slot_of(&self, u: NodeId) -> Option<usize> {
        match self.slot.get(u as usize) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// The precomputed row for `u`, if the policy covered it.
    pub fn get(&self, u: NodeId) -> Option<&[f32]> {
        self.slot_of(u).map(|s| self.emb.row(s))
    }

    /// True when the stored bits of `u` still match the CRC recorded at
    /// build (or repair) time. Absent rows verify trivially.
    pub fn verify(&self, u: NodeId) -> bool {
        self.slot_of(u).is_none_or(|s| crc32_f32s(self.emb.row(s)) == self.crcs[s])
    }

    /// Mutable access to a present row — the fault-injection surface
    /// the engine uses to corrupt a row "at rest".
    pub(crate) fn row_mut(&mut self, u: NodeId) -> Option<&mut [f32]> {
        self.slot_of(u).map(|s| self.emb.row_mut(s))
    }

    /// Overwrites a present row with freshly rebuilt bits and re-seals
    /// its CRC.
    pub(crate) fn repair(&mut self, u: NodeId, row: &[f32]) {
        let s = self.slot_of(u).expect("only a present row is repaired");
        self.emb.row_mut(s).copy_from_slice(row);
        self.crcs[s] = crc32_f32s(row);
    }

    /// Number of rows materialized at build time.
    pub fn rows_built(&self) -> usize {
        self.emb.rows()
    }

    /// Push work done at build time (zero for `Hot`/`None`, whose work
    /// is per-node and accounted by the prop-push counters).
    pub fn push_stats(&self) -> &PushStats {
        &self.push_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_graph::generate;

    #[test]
    fn full_store_covers_everything() {
        let g = generate::erdos_renyi(60, 0.1, false, 1);
        let x = DenseMatrix::gaussian(60, 3, 1.0, 2);
        let s = EmbeddingStore::build(&g, &x, 0.15, &PrecomputePolicy::Full { rmax: 1e-4 });
        assert_eq!(s.rows_built(), 60);
        assert!((0..60).all(|u| s.get(u).is_some()));
    }

    #[test]
    fn hot_store_selects_top_degree_rows() {
        let g = generate::barabasi_albert(100, 3, 7);
        let x = DenseMatrix::gaussian(100, 3, 1.0, 2);
        let s =
            EmbeddingStore::build(&g, &x, 0.15, &PrecomputePolicy::Hot { count: 10, eps: 1e-6 });
        assert_eq!(s.rows_built(), 10);
        let mut cut = usize::MAX;
        let mut max_absent = 0usize;
        for u in 0..100u32 {
            match s.get(u) {
                Some(row) => {
                    assert_eq!(row, fresh_row(&g, &x, u, 0.15, 1e-6).as_slice());
                    cut = cut.min(g.degree(u));
                }
                None => max_absent = max_absent.max(g.degree(u)),
            }
        }
        assert!(cut >= max_absent, "store must hold the highest-degree rows");
    }

    #[test]
    fn corrupted_row_fails_verify_and_repair_reseals_it() {
        let g = generate::barabasi_albert(100, 3, 7);
        let x = DenseMatrix::gaussian(100, 3, 1.0, 2);
        let mut s =
            EmbeddingStore::build(&g, &x, 0.15, &PrecomputePolicy::Hot { count: 10, eps: 1e-6 });
        let u = (0..100u32).find(|&u| s.get(u).is_some()).unwrap();
        assert!(s.verify(u));
        let original = s.get(u).unwrap().to_vec();
        let row = s.row_mut(u).unwrap();
        row[0] = f32::from_bits(row[0].to_bits() ^ 1);
        assert!(!s.verify(u), "a single flipped bit must break the CRC");
        let rebuilt = fresh_row(&g, &x, u, 0.15, 1e-6);
        s.repair(u, &rebuilt);
        assert!(s.verify(u));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(s.get(u).unwrap()), bits(&original), "Hot repair is bitwise");
        // Absent rows verify trivially and expose no mutable surface.
        let absent = (0..100u32).find(|&u| s.get(u).is_none()).unwrap();
        assert!(s.verify(absent));
        assert!(s.row_mut(absent).is_none());
    }

    #[test]
    fn none_store_is_empty() {
        let g = generate::erdos_renyi(20, 0.2, false, 3);
        let x = DenseMatrix::gaussian(20, 2, 1.0, 4);
        let s = EmbeddingStore::build(&g, &x, 0.15, &PrecomputePolicy::None);
        assert_eq!(s.rows_built(), 0);
        assert!((0..20).all(|u| s.get(u).is_none()));
    }
}
