//! Abductive and counterfactual explanations for k-NN classifiers.
//!
//! This crate is the paper's primary contribution, implemented in full:
//!
//! * [`classifier`] — the optimistic k-NN classification function `f^k_{S⁺,S⁻}`
//!   of §2, via the order-statistic characterization derived from Prop 1;
//! * [`abductive`] — sufficient-reason checking and computation:
//!   * ℓ2, any odd k: polynomial Check-SR over the Prop 1 polyhedra, each
//!     region's anchor projected onto `U(X, x̄)` first and an LP per region
//!     only when no projection is a counterexample (Prop 3), and minimal SR
//!     by greedy deletion (Prop 2 / Cor 1);
//!   * ℓ1, k = 1: the witness-substitution algorithm of Prop 4 / Cor 3;
//!   * Hamming, k = 1: the projected-witness algorithm of Prop 6 / Cor 4;
//!   * Hamming, any odd k: Check-SR by exact enumeration of the free
//!     completions, with SAT counterexample search as the fallback (the
//!     problem is coNP-complete, Thm 7);
//!   * minimum SR everywhere via an exact implicit-hitting-set loop with a
//!     per-setting counterexample oracle (NP-hard / Σ₂ᵖ-complete: Thm 1,
//!     Cor 6, Thm 8), plus a greedy upper-bound heuristic;
//! * [`counterfactual`] — closest counterfactuals:
//!   * ℓ2, any odd k: polynomial via per-polyhedron projection QPs, the
//!     open-polyhedron closure argument, and the interior nudge (Thm 2,
//!     Cor 2);
//!   * ℓ1: exact MILP model (the problem is NP-complete even for
//!     singleton classes, Thm 4);
//!   * Hamming: the paper's novel guarded-cardinality SAT encoding (§9.2)
//!     with incremental distance search, the linearized IQP model on the
//!     MILP solver, and a brute-force oracle (NP-complete, Thm 6);
//! * [`ball`] — exact Hamming-ball enumeration up to a logical work cap,
//!   the serving routes' first resort before the SAT search;
//! * [`brute`] — exponential reference oracles for the discrete setting used
//!   throughout the test suite;
//! * [`multilabel`] — the k = 1 multi-label reduction sketched in §10;
//! * [`thinning`] — Hart's condensed-NN training-set thinning (§10's global
//!   interpretability remark).

#![warn(missing_docs)]

pub mod abductive;
pub mod ball;
pub mod brute;
pub mod classifier;
pub mod counterfactual;
pub mod multilabel;
pub mod regions;
pub mod satenc;
pub mod tally;
pub mod thinning;

pub use classifier::{BooleanKnn, ContinuousKnn};
pub use knn_space::{BitVec, BooleanDataset, ContinuousDataset, Label, LpMetric, OddK};

/// Outcome of a sufficient-reason check: either `X` is sufficient, or a
/// counterexample completion proves it is not.
#[derive(Clone, Debug, PartialEq)]
pub enum SrCheck<P> {
    /// Every completion of `x̄` over the complement of `X` keeps the label.
    Sufficient,
    /// A witness `ȳ` agreeing with `x̄` on `X` but classified differently.
    NotSufficient {
        /// The counterexample point.
        witness: P,
    },
}

impl<P> SrCheck<P> {
    /// True iff the set was sufficient.
    pub fn is_sufficient(&self) -> bool {
        matches!(self, SrCheck::Sufficient)
    }

    /// The counterexample, if any.
    pub fn witness(&self) -> Option<&P> {
        match self {
            SrCheck::Sufficient => None,
            SrCheck::NotSufficient { witness } => Some(witness),
        }
    }
}
