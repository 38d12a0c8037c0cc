//! The dataset container and split machinery.

use sgnn_graph::{CsrGraph, NodeId};
use sgnn_linalg::DenseMatrix;

/// Train/validation/test node id lists.
#[derive(Debug, Clone, Default)]
pub struct Splits {
    /// Training nodes.
    pub train: Vec<NodeId>,
    /// Validation nodes.
    pub val: Vec<NodeId>,
    /// Test nodes.
    pub test: Vec<NodeId>,
}

/// A node-classification dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short name for reports.
    pub name: String,
    /// The (undirected) graph.
    pub graph: CsrGraph,
    /// Node features (`n × d`).
    pub features: DenseMatrix,
    /// Node labels in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Node splits.
    pub splits: Splits,
}

impl Dataset {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Feature width.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Labels of a node list (helper for loss computation).
    pub fn labels_of(&self, nodes: &[NodeId]) -> Vec<usize> {
        nodes.iter().map(|&u| self.labels[u as usize]).collect()
    }

    /// Approximate resident bytes of graph + features.
    pub fn nbytes(&self) -> usize {
        self.graph.nbytes() + self.features.nbytes() + self.labels.len() * 8
    }

    /// Checks internal consistency (shapes, finite features, label range,
    /// split validity). One O(n·d + n) pass: a NaN or ±inf feature would
    /// otherwise be absorbed by training without any signal (DESIGN.md §8).
    pub fn validate(&self) -> Result<(), String> {
        if self.features.rows() != self.num_nodes() {
            return Err("feature rows != nodes".into());
        }
        if let Some(i) = self.features.data().iter().position(|v| !v.is_finite()) {
            let d = self.feature_dim();
            return Err(format!("non-finite feature at node {}, column {}", i / d, i % d));
        }
        if self.labels.len() != self.num_nodes() {
            return Err("labels != nodes".into());
        }
        if self.labels.iter().any(|&l| l >= self.num_classes) {
            return Err("label out of class range".into());
        }
        let mut seen = vec![false; self.num_nodes()];
        for list in [&self.splits.train, &self.splits.val, &self.splits.test] {
            for &u in list {
                if (u as usize) >= self.num_nodes() {
                    return Err("split node out of range".into());
                }
                if seen[u as usize] {
                    return Err(format!("node {u} appears in two splits"));
                }
                seen[u as usize] = true;
            }
        }
        Ok(())
    }
}

/// Stratified random split: per class, `train_frac`/`val_frac` of nodes go
/// to train/val, the remainder to test. Deterministic under `seed`.
pub fn stratified_split(
    labels: &[usize],
    num_classes: usize,
    train_frac: f64,
    val_frac: f64,
    seed: u64,
) -> Splits {
    assert!(train_frac + val_frac <= 1.0);
    let mut by_class: Vec<Vec<NodeId>> = vec![Vec::new(); num_classes];
    for (u, &l) in labels.iter().enumerate() {
        by_class[l].push(u as NodeId);
    }
    let mut rng = sgnn_linalg::rng::seeded(seed);
    let mut splits = Splits::default();
    for class_nodes in by_class.iter_mut() {
        // Fisher–Yates shuffle.
        for i in (1..class_nodes.len()).rev() {
            use rand::RngExt;
            let j = rng.random_range(0..=i);
            class_nodes.swap(i, j);
        }
        let n = class_nodes.len();
        let n_train = (n as f64 * train_frac).round() as usize;
        let n_val = (n as f64 * val_frac).round() as usize;
        splits.train.extend(&class_nodes[..n_train.min(n)]);
        splits.val.extend(&class_nodes[n_train.min(n)..(n_train + n_val).min(n)]);
        splits.test.extend(&class_nodes[(n_train + n_val).min(n)..]);
    }
    splits.train.sort_unstable();
    splits.val.sort_unstable();
    splits.test.sort_unstable();
    splits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_split_covers_all_nodes_once() {
        let labels: Vec<usize> = (0..100).map(|i| i % 4).collect();
        let s = stratified_split(&labels, 4, 0.5, 0.25, 1);
        assert_eq!(s.train.len() + s.val.len() + s.test.len(), 100);
        let mut all: Vec<NodeId> = Vec::new();
        all.extend(&s.train);
        all.extend(&s.val);
        all.extend(&s.test);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn split_is_stratified_per_class() {
        let labels: Vec<usize> = (0..200).map(|i| i % 2).collect();
        let s = stratified_split(&labels, 2, 0.3, 0.2, 2);
        for c in 0..2usize {
            let train_c = s.train.iter().filter(|&&u| labels[u as usize] == c).count();
            assert_eq!(train_c, 30, "class {c}");
        }
    }

    #[test]
    fn split_is_deterministic() {
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let a = stratified_split(&labels, 3, 0.4, 0.3, 9);
        let b = stratified_split(&labels, 3, 0.4, 0.3, 9);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }
}
