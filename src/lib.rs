//! # explainable-knn
//!
//! Abductive and counterfactual explanations for k-nearest-neighbor
//! classifiers — a complete Rust implementation of
//! *"Explaining k-Nearest Neighbors: Abductive and Counterfactual
//! Explanations"* (Barceló, Kozachinskiy, Romero Orth, Subercaseaux,
//! Verschae; PODS 2025).
//!
//! This is the facade crate: it re-exports the workspace's public API. See
//! the README for a tour and `DESIGN.md` for the system inventory.
//!
//! ```
//! use explainable_knn::prelude::*;
//!
//! // A tiny discrete dataset: positives and negatives in {0,1}³.
//! let ds = BooleanDataset::from_sets(
//!     vec![BitVec::from_bits(&[0, 1, 1]), BitVec::from_bits(&[1, 0, 1])],
//!     vec![BitVec::from_bits(&[0, 0, 0]), BitVec::from_bits(&[1, 1, 0])],
//! );
//! let x = BitVec::from_bits(&[0, 0, 1]);
//!
//! // Classify with optimistic 1-NN.
//! let knn = BooleanKnn::new(&ds, OddK::ONE);
//! let label = knn.classify(&x);
//!
//! // A minimal sufficient reason: a set of components of x that pins the label.
//! let reason = HammingAbductive::new(&ds, OddK::ONE).minimal(&x);
//! for i in &reason {
//!     println!("component {i} (value {}) is part of the explanation", x.get(*i));
//! }
//!
//! // The closest counterfactual: fewest bit flips that change the label.
//! let (cf, dist) = hamming_counterfactual::closest_sat(&ds, OddK::ONE, &x).unwrap();
//! assert_ne!(knn.classify(&cf), label);
//! assert!(dist >= 1);
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use knn_cluster as cluster;
pub use knn_core as core;
pub use knn_datasets as datasets;
pub use knn_delta as delta;
pub use knn_engine as engine;
pub use knn_index as index;
pub use knn_lp as lp;
pub use knn_milp as milp;
pub use knn_num as num;
pub use knn_qp as qp;
pub use knn_reductions as reductions;
pub use knn_sat as sat;
pub use knn_server as server;
pub use knn_space as space;

/// The most common imports in one place.
pub mod prelude {
    pub use knn_cluster::{Router, RouterConfig};
    pub use knn_core::abductive::hamming::HammingAbductive;
    pub use knn_core::abductive::l1::L1Abductive;
    pub use knn_core::abductive::l2::L2Abductive;
    pub use knn_core::abductive::minimum::HittingSetMode;
    pub use knn_core::counterfactual::hamming as hamming_counterfactual;
    pub use knn_core::counterfactual::l1::L1Counterfactual;
    pub use knn_core::counterfactual::l2::L2Counterfactual;
    pub use knn_core::{BooleanKnn, ContinuousKnn, SrCheck};
    pub use knn_delta::Mutation;
    pub use knn_engine::{EngineConfig, EngineData, ExplanationEngine};
    pub use knn_num::{Field, Rat};
    pub use knn_server::{Client, Server, ServerConfig};
    pub use knn_space::{BitVec, BooleanDataset, ContinuousDataset, Label, LpMetric, OddK};
}
