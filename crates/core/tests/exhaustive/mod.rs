//! An exhaustive, exact reference for the ℓ2 explanation operations,
//! written from Proposition 1, Proposition 3 and Theorem 2 alone.
//!
//! It walks every region of [`RegionStream::canonical`] (lexicographic,
//! unpruned) and solves each one cold, in exact `Rat`. It uses no ordering,
//! pruning, memo or warm start, and none of the engines' own loops, so a
//! fault in `L2Abductive` or `L2Counterfactual` cannot pass through it.
//!
//! Used by `crates/core/tests/prop_regions_lazy.rs` and, by path, by
//! `tests/batch_engine.rs`.

use knn_core::regions::RegionStream;
use knn_core::ContinuousKnn;
use knn_lp::{LpProblem, Rel};
use knn_num::field::norm_sq;
use knn_num::Rat;
use knn_qp::{project_onto_polyhedron_from, Polyhedron, QpOutcome};
use knn_space::{ContinuousDataset, Label, LpMetric, OddK};
use std::sync::Arc;

/// The decision region a counterexample or counterfactual for `x̄` lies in,
/// as its nonempty canonical polyhedra, with the infimum distance to it.
pub struct Exhaustive<'a> {
    knn: ContinuousKnn<'a, Rat>,
    x: Vec<Rat>,
    target: Label,
    regions: Vec<Arc<Polyhedron<Rat>>>,
    infimum: Option<Rat>,
}

impl<'a> Exhaustive<'a> {
    /// The target is the flip of `f(x̄)`. A region counts when it is
    /// nonempty in its own semantics: closed for the positive region,
    /// strict (the open polyhedron) for the negative one.
    pub fn new(ds: &'a ContinuousDataset<Rat>, k: OddK, x: &[Rat]) -> Self {
        let knn = ContinuousKnn::new(ds, LpMetric::L2, k);
        let target = knn.classify(x).flip();
        let regions: Vec<Arc<Polyhedron<Rat>>> = RegionStream::canonical(ds, k, target)
            .map(|(p, _)| p)
            .filter(|p| match target {
                Label::Positive => p.feasible_point().is_some(),
                Label::Negative => p.strict_feasible_point().is_some(),
            })
            .collect();
        // Theorem 2: the infimum over the union is the least distance from
        // x̄ to a region's closure, each a cold projection.
        let infimum = regions
            .iter()
            .filter_map(|p| match project_onto_polyhedron_from(x, p, None) {
                QpOutcome::Optimal { dist_sq, .. } => Some(dist_sq),
                QpOutcome::Infeasible => None,
            })
            .reduce(|a, b| if b < a { b } else { a });
        Exhaustive { knn, x: x.to_vec(), target, regions, infimum }
    }

    /// The label every counterexample and counterfactual must take.
    pub fn target(&self) -> Label {
        self.target
    }

    /// `inf { ‖x̄ − ȳ‖² : f(ȳ) ≠ f(x̄) }`; `None` when no point flips.
    pub fn infimum(&self) -> Option<&Rat> {
        self.infimum.as_ref()
    }

    /// Whether some point of the target region lies within `radius_sq` of
    /// `x̄`. The closed positive region attains its infimum; the open
    /// negative region never does, so it needs the radius strictly past it.
    pub fn within(&self, radius_sq: &Rat) -> bool {
        self.infimum.as_ref().is_some_and(|d| match self.target {
            Label::Positive => d <= radius_sq,
            Label::Negative => d < radius_sq,
        })
    }

    /// Check-SR (Prop 3): `fixed` is sufficient iff no region meets
    /// `U(X, x̄)`, in its interior for the open negative region. Each region
    /// is cut down to `U(X, x̄)` by one equality row per fixed feature, in
    /// all `d` coordinates, not by the engines' substitution into the free
    /// ones.
    pub fn sufficient(&self, fixed: &[usize]) -> bool {
        !self.regions.iter().any(|p| {
            let pinned = |mut lp: LpProblem<Rat>| {
                for &i in fixed {
                    lp.add_constraint(vec![(i, Rat::one())], Rel::Eq, self.x[i].clone());
                }
                lp
            };
            match self.target {
                Label::Positive => pinned(p.to_lp()).feasible_point().is_some(),
                Label::Negative => pinned(p.to_strict_lp()).strict_feasible().is_some(),
            }
        })
    }

    /// A minimal sufficient reason by greedy deletion (Prop 2): from all
    /// features, drop each in ascending order while what is left stays
    /// sufficient.
    pub fn minimal(&self) -> Vec<usize> {
        let mut kept: Vec<usize> = (0..self.x.len()).collect();
        let mut i = 0;
        while i < kept.len() {
            let mut fewer = kept.clone();
            fewer.remove(i);
            if self.sufficient(&fewer) {
                kept = fewer;
            } else {
                i += 1;
            }
        }
        kept
    }

    /// The size of a minimum sufficient reason, by brute force over every
    /// feature subset, smallest first.
    pub fn minimum_size(&self) -> usize {
        let n = self.x.len();
        let subset = |m: u32| -> Vec<usize> { (0..n).filter(|&i| m >> i & 1 == 1).collect() };
        (0..=n as u32)
            .find(|&size| {
                (0u32..1 << n).any(|m| m.count_ones() == size && self.sufficient(&subset(m)))
            })
            .expect("the full feature set is sufficient") as usize
    }

    /// Whether `y` lies in the closure of the target region.
    pub fn in_closure(&self, y: &[Rat]) -> bool {
        self.regions.iter().any(|p| p.contains(y))
    }

    /// A valid counterexample for `fixed`: `w` equals `x̄` on every fixed
    /// feature and the exact classifier gives it the target label.
    pub fn is_counterexample(&self, w: &[Rat], fixed: &[usize]) -> bool {
        fixed.iter().all(|&i| w[i] == self.x[i]) && self.knn.classify(w) == self.target
    }

    /// A valid counterfactual witness: the exact classifier gives `w` the
    /// target label and `w` lies within `radius_sq` of `x̄`.
    pub fn is_counterfactual(&self, w: &[Rat], radius_sq: &Rat) -> bool {
        let diff: Vec<Rat> = self.x.iter().zip(w).map(|(a, b)| a.clone() - b.clone()).collect();
        self.knn.classify(w) == self.target && norm_sq(&diff) <= *radius_sq
    }
}
