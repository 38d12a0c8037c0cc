//! Deterministic LRU cache for on-demand embedding rows.
//!
//! Recency is tracked with a monotone use-stamp per entry; eviction
//! removes the minimum stamp, found in O(log capacity) through an ordered
//! `stamp → node` index kept beside the map. Stamps are unique, so
//! eviction order is a pure function of the request trace — no hashing
//! order, timing, or thread interleaving can change which row is
//! dropped. That is what lets the serving suite assert cache
//! hit/miss/eviction counts are reproducible run-to-run and across
//! `SGNN_THREADS` settings.
//!
//! Rows are copied in from slices; once the cache is full an insert
//! reuses the evicted row's buffer, so steady-state serving allocates
//! nothing here.
//!
//! Each entry carries a quality bit: full-quality rows (FullProp or
//! escalated answers) versus *stale* rows — sampled-quality rows
//! admitted only under overload pressure (DESIGN.md §13). A probe
//! states whether stale rows are acceptable; a stale row probed with
//! `accept_stale = false` counts as a miss (the caller recomputes and
//! the fresh insert overwrites it), so the zero-pressure path behaves
//! exactly as if stale rows did not exist.

use sgnn_graph::NodeId;
use std::collections::{BTreeMap, HashMap};

static CACHE_HITS: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.cache.hits");
static CACHE_MISSES: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.cache.misses");
static CACHE_EVICTIONS: sgnn_obs::Counter = sgnn_obs::Counter::new("serve.cache.evictions");

/// LRU map `NodeId → embedding row` with capacity `capacity` (zero
/// disables caching entirely: every probe is a miss, inserts are
/// dropped).
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<NodeId, Entry>,
    /// `stamp → node` for every resident entry; the first key is the LRU.
    by_stamp: BTreeMap<u64, NodeId>,
    /// Probe hits since construction.
    pub hits: u64,
    /// Probe misses since construction.
    pub misses: u64,
    /// Evictions since construction.
    pub evictions: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    stamp: u64,
    full_quality: bool,
    row: Vec<f32>,
}

impl LruCache {
    /// An empty cache holding at most `capacity` rows.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            clock: 0,
            entries: HashMap::new(),
            by_stamp: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `u` expecting a full-quality row (the zero-pressure
    /// path), counting a hit or miss and refreshing recency.
    pub fn get(&mut self, u: NodeId) -> Option<&[f32]> {
        self.probe(u, false).map(|(row, _)| row)
    }

    /// Looks up `u`, counting a hit or miss and refreshing recency on a
    /// hit. When `accept_stale` is false a resident stale row counts as
    /// a miss (and its recency is untouched, so it stays first in line
    /// for eviction). Returns the row and whether it is full quality.
    pub fn probe(&mut self, u: NodeId, accept_stale: bool) -> Option<(&[f32], bool)> {
        match self.entries.get_mut(&u) {
            Some(e) if e.full_quality || accept_stale => {
                self.clock += 1;
                self.by_stamp.remove(&e.stamp);
                self.by_stamp.insert(self.clock, u);
                e.stamp = self.clock;
                self.hits += 1;
                CACHE_HITS.incr();
                Some((&e.row, e.full_quality))
            }
            _ => {
                self.misses += 1;
                CACHE_MISSES.incr();
                None
            }
        }
    }

    /// Inserts (or refreshes) `u` as a full-quality row, evicting the
    /// least-recently-used entry when full.
    pub fn insert(&mut self, u: NodeId, row: impl AsRef<[f32]>) {
        self.insert_quality(u, row, true);
    }

    /// Inserts (or refreshes) `u` with an explicit quality bit. A
    /// full-quality insert overwrites a stale row; a stale insert never
    /// downgrades a resident full-quality row (it only refreshes
    /// recency).
    pub fn insert_quality(&mut self, u: NodeId, row: impl AsRef<[f32]>, full_quality: bool) {
        if self.capacity == 0 {
            return;
        }
        let row = row.as_ref();
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&u) {
            self.by_stamp.remove(&e.stamp);
            self.by_stamp.insert(self.clock, u);
            e.stamp = self.clock;
            if full_quality || !e.full_quality {
                e.full_quality = full_quality;
                e.row.clear();
                e.row.extend_from_slice(row);
            }
            return;
        }
        let mut buf = Vec::new();
        if self.entries.len() >= self.capacity {
            // Stamps are unique, so the minimum is unambiguous.
            let (_, victim) = self.by_stamp.pop_first().expect("non-empty at capacity");
            buf = self.entries.remove(&victim).expect("indexed entry is resident").row;
            buf.clear();
            self.evictions += 1;
            CACHE_EVICTIONS.incr();
        }
        buf.extend_from_slice(row);
        self.by_stamp.insert(self.clock, u);
        self.entries.insert(u, Entry { stamp: self.clock, full_quality, row: buf });
    }

    /// Rows currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.insert(1, vec![1.0]);
        c.insert(2, vec![2.0]);
        assert!(c.get(1).is_some()); // 1 is now most recent
        c.insert(3, vec![3.0]); // evicts 2
        assert_eq!(c.evictions, 1);
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert(7, vec![1.0]);
        assert!(c.get(7).is_none());
        assert_eq!((c.hits, c.misses, c.evictions), (0, 1, 0));
        assert!(c.is_empty());
    }

    #[test]
    fn reinserting_resident_key_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, vec![1.0]);
        c.insert(2, vec![2.0]);
        c.insert(1, vec![1.5]);
        assert_eq!(c.evictions, 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).unwrap(), &[1.5][..]);
    }

    #[test]
    fn stale_rows_are_invisible_to_full_quality_probes() {
        let mut c = LruCache::new(2);
        c.insert_quality(1, vec![0.5], false);
        assert!(c.get(1).is_none(), "stale row must read as a miss at zero pressure");
        assert_eq!((c.hits, c.misses), (0, 1));
        assert_eq!(c.probe(1, true), Some((&[0.5][..], false)));
        assert_eq!(c.hits, 1);
        // A full-quality insert upgrades the slot…
        c.insert(1, vec![1.0]);
        assert_eq!(c.probe(1, true), Some((&[1.0][..], true)));
        // …and a later stale insert must not downgrade it.
        c.insert_quality(1, vec![0.25], false);
        assert_eq!(c.get(1).unwrap(), &[1.0][..]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn rejected_stale_probe_leaves_recency_untouched() {
        let mut c = LruCache::new(2);
        c.insert_quality(1, vec![0.1], false);
        c.insert(2, vec![2.0]);
        assert!(c.get(1).is_none()); // miss: stamp of 1 unchanged
        c.insert(3, vec![3.0]); // must evict the stale row, not node 2
        assert!(c.probe(1, true).is_none());
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());
    }
}
