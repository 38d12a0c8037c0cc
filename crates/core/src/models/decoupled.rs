//! Decoupled models: precompute a graph embedding once, train an MLP on
//! rows (§3.1.2 "Decoupled Graph Propagation").
//!
//! "Messages generated through graph propagation can be disentangled from
//! layer-by-layer updates and instead learned in an aggregated fashion" —
//! operationally: the *entire* graph dependence lives in
//! [`precompute_embedding`], after which training is embarrassingly
//! mini-batchable and touches no edges.

use sgnn_data::Dataset;
use sgnn_graph::normalize::{normalized_adjacency, NormKind};
use sgnn_linalg::DenseMatrix;
use sgnn_nn::Mlp;
use sgnn_spectral::Ld2Config;

/// Which precomputation the decoupled pipeline runs.
#[derive(Debug, Clone)]
pub enum PrecomputeMethod {
    /// SGC: `Â^k X`.
    Sgc {
        /// Propagation depth.
        k: usize,
    },
    /// APPNP/PPR smoothing by power iteration.
    Appnp {
        /// Teleport probability.
        alpha: f32,
        /// Iterations.
        k: usize,
    },
    /// SCARA-style feature-oriented push: `S·X` with
    /// `S = Σ α(1−α)^i (D⁻¹A)^i`, the operator the serving layer serves
    /// ([`sgnn_prop::smooth_matrix`]).
    Scara {
        /// Teleport probability.
        alpha: f64,
        /// Residual threshold: every entry is within `rmax` of `S·X`
        /// (`rmax = 0` runs the exact kernel).
        rmax: f64,
    },
    /// Heat-kernel diffusion.
    Heat {
        /// Diffusion time.
        t: f64,
        /// Taylor terms.
        k: usize,
    },
    /// LD2 multi-channel embedding (low ⊕ high ⊕ PPR).
    Ld2(Ld2Config),
    /// Raw features (MLP baseline — no graph at all).
    None,
}

/// Runs the precomputation, returning the embedding matrix the MLP trains
/// on.
pub fn precompute_embedding(ds: &Dataset, method: &PrecomputeMethod) -> DenseMatrix {
    match method {
        PrecomputeMethod::None => ds.features.clone(),
        PrecomputeMethod::Sgc { k } => {
            let adj = normalized_adjacency(&ds.graph, NormKind::Sym, true).expect("valid graph");
            sgnn_prop::power::power_propagate(&adj, &ds.features, *k)
        }
        PrecomputeMethod::Appnp { alpha, k } => {
            let adj = normalized_adjacency(&ds.graph, NormKind::Sym, true).expect("valid graph");
            sgnn_prop::power::appnp_propagate(&adj, &ds.features, *alpha, *k)
        }
        PrecomputeMethod::Scara { alpha, rmax } => {
            sgnn_prop::smooth_matrix(&ds.graph, &ds.features, *alpha, *rmax).0
        }
        PrecomputeMethod::Heat { t, k } => {
            let adj = normalized_adjacency(&ds.graph, NormKind::Rw, true).expect("valid graph");
            sgnn_prop::heat::heat_propagate(&adj, &ds.features, *t, *k)
        }
        PrecomputeMethod::Ld2(cfg) => {
            sgnn_spectral::ld2_embedding(&ds.graph, &ds.features, cfg).features
        }
    }
}

/// A decoupled model: the precomputed embedding plus an MLP head.
pub struct DecoupledModel {
    /// The graph-free training matrix.
    pub embedding: DenseMatrix,
    /// The trainable head.
    pub mlp: Mlp,
}

impl DecoupledModel {
    /// Precomputes and builds the head. `hidden` are MLP hidden widths.
    pub fn new(
        ds: &Dataset,
        method: &PrecomputeMethod,
        hidden: &[usize],
        dropout: f32,
        seed: u64,
    ) -> Self {
        let embedding = precompute_embedding(ds, method);
        let mut dims = vec![embedding.cols()];
        dims.extend_from_slice(hidden);
        dims.push(ds.num_classes);
        DecoupledModel { embedding, mlp: Mlp::new(&dims, dropout, seed) }
    }

    /// Logits for a node batch (gather rows, run the head).
    pub fn logits_for(&self, nodes: &[sgnn_graph::NodeId]) -> DenseMatrix {
        let rows: Vec<usize> = nodes.iter().map(|&u| u as usize).collect();
        self.mlp.forward_inference(&self.embedding.gather_rows(&rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_data::sbm_dataset;

    #[test]
    fn all_methods_produce_finite_embeddings() {
        let ds = sbm_dataset(200, 2, 6.0, 0.8, 4, 0.5, 0, 0.5, 0.25, 1);
        let methods = [
            PrecomputeMethod::None,
            PrecomputeMethod::Sgc { k: 2 },
            PrecomputeMethod::Appnp { alpha: 0.15, k: 8 },
            PrecomputeMethod::Scara { alpha: 0.15, rmax: 1e-6 },
            PrecomputeMethod::Heat { t: 2.0, k: 16 },
            PrecomputeMethod::Ld2(Ld2Config::default()),
        ];
        for m in &methods {
            let e = precompute_embedding(&ds, m);
            assert_eq!(e.rows(), 200, "{m:?}");
            assert!(e.data().iter().all(|v| v.is_finite()), "{m:?}");
        }
    }

    #[test]
    fn scara_matches_exact_ppr_on_the_push_operator() {
        // The push smooths with the row-stochastic D⁻¹A (mean over
        // neighbors), so the reference is the Rw-normalized PPR
        // polynomial — the operator APPNP and the serving layer use —
        // and every entry lands within rmax of it.
        let ds = sbm_dataset(150, 2, 8.0, 0.85, 4, 0.5, 0, 0.5, 0.25, 2);
        // Rw leaves an isolated node's row empty where the push keeps
        // its feature; the reference is only valid without them.
        assert!((0..150).all(|u| ds.graph.degree(u) > 0));
        let adj = normalized_adjacency(&ds.graph, NormKind::Rw, false).unwrap();
        let coef = sgnn_prop::power::ppr_coefficients(0.15, 120);
        let exact = sgnn_prop::power::polynomial_propagate(&adj, &ds.features, &coef);
        let rmax = 1e-4;
        let scara = precompute_embedding(&ds, &PrecomputeMethod::Scara { alpha: 0.15, rmax });
        let err = exact.sub(&scara).unwrap().data().iter().fold(0f32, |m, v| m.max(v.abs()));
        assert!((err as f64) < rmax, "max entrywise gap {err} ≥ rmax {rmax}");
    }

    #[test]
    fn ld2_embedding_is_wider_than_input() {
        let ds = sbm_dataset(100, 2, 6.0, 0.3, 4, 0.5, 0, 0.5, 0.25, 3);
        let m =
            DecoupledModel::new(&ds, &PrecomputeMethod::Ld2(Ld2Config::default()), &[16], 0.2, 4);
        assert!(m.embedding.cols() > 4);
        let logits = m.logits_for(&[0, 1, 2]);
        assert_eq!(logits.shape(), (3, 2));
    }
}
