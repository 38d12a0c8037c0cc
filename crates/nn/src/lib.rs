//! # sgnn-nn
//!
//! A compact manual-backprop neural-network stack: linear layers, ReLU,
//! dropout, softmax cross-entropy, SGD/Adam, and an [`Mlp`] module.
//!
//! The survey treats neural computation as the *non*-bottleneck of
//! scalable GNNs — "graph propagation and feature transformation entail
//! different computational requirements" (§3.1.2) — so this crate is
//! deliberately small and CPU-oriented: enough to train every model in
//! `sgnn-core`, with explicit forward/backward passes (no autograd tape)
//! so each model's memory footprint is visible to the accounting in
//! `sgnn-core::memory`.
//!
//! Gradient correctness is enforced by finite-difference checks in the
//! test suite.

pub mod layers;
pub mod loss;
pub mod mlp;
pub mod optim;

pub use layers::{Dropout, Linear, ReLU};
pub use loss::softmax_cross_entropy;
pub use mlp::{Mlp, QuantMlp};
pub use optim::{Adam, Optimizer, Sgd};
