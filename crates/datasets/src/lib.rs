//! Synthetic workload generators for the `explainable-knn` experiments.
//!
//! The paper evaluates on (a) uniformly random boolean vectors with Bernoulli
//! labels (Figure 5) and (b) the MNIST handwritten-digit dataset at several
//! rescalings, both grayscale and binarized (Figures 1 and 6). MNIST itself is
//! not redistributable in this offline environment, so [`digits`] generates
//! **stroke-rendered digit images** — seven-segment-style templates with
//! random translation, scale, stroke thickness and pixel noise — preserving
//! exactly the workload properties the experiments exercise: high dimension
//! (`side²` features), per-class cluster structure, sparse between-class
//! differences, and a natural side-length sweep. The substitution is recorded
//! in DESIGN.md §4.
//!
//! The crate also generates the combinatorial instances that feed the
//! hardness-reduction tests: random graphs (Vertex Cover, Clique), knapsack
//! and partition instances, each with small-scale brute-force solvers used as
//! ground truth.

#![warn(missing_docs)]

pub mod blobs;
pub mod combinatorial;
pub mod digits;
pub mod graphs;
pub mod idx;
pub mod random;

pub use digits::{render_digit, DigitsConfig};
pub use graphs::Graph;
