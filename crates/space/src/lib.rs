//! Metric-space vocabulary for the `explainable-knn` workspace.
//!
//! The paper (§2) fixes two *metric space families*:
//!
//! * the **continuous** case `(ℝ, D_p)` — real vectors compared with the
//!   ℓp norm for an integer `p > 0` ([`LpMetric`]); and
//! * the **discrete** case `({0,1}, D_H)` — boolean vectors compared with the
//!   Hamming distance ([`BitVec::hamming`]).
//!
//! This crate defines the points, labels, datasets (`S⁺`, `S⁻`) and the odd-`k`
//! parameter shared by the classifier, the explanation algorithms, the search
//! indexes and the benchmark workloads. Beyond the distance kernels, its one
//! algorithm is the bounded order-statistic selection ([`kth_smallest`]) that
//! the optimistic rule and the serving indexes share.

#![warn(missing_docs)]

pub mod bitvec;
pub mod dataset;
pub mod label;
pub mod metric;
pub mod oddk;
pub mod rows;
pub mod select;

pub use bitvec::{BitRow, BitVec};
pub use dataset::{BooleanDataset, ContinuousDataset};
pub use label::Label;
pub use metric::LpMetric;
pub use oddk::OddK;
pub use rows::Rows;
pub use select::{kth_smallest, SmallestK};
