//! Counterfactuals under ℓ2 (Theorem 2, Corollary 2): polynomial for fixed k.
//!
//! The opposite decision region is a union of Prop 1 polyhedra. For each:
//!
//! * positive target (closed polyhedron): project `x̄` with the QP solver;
//!   the minimum is attained and any optimal point is a valid witness.
//! * negative target (open polyhedron): per Theorem 2's closure argument,
//!   the open piece `P` meets the ball `B_ℓ(x̄)` iff `P ≠ ∅` and the
//!   projection onto the *closure* has distance **strictly** below `ℓ`; a
//!   witness is produced by nudging the projection into the interior
//!   (Corollary 2).
//!
//! Every projection starts from the region's anchor point, the centroid of
//! its anchor set `A`. At k = 1 a region is the Voronoi cell of its anchor,
//! which lies strictly inside it, so:
//!
//! * the QP skips its phase-1 LP (a k ≥ 3 centroid that misses the region
//!   falls back to phase 1), and the solver's KKT polish keeps the answer
//!   independent of the start;
//! * a negative target's nonemptiness is the O(rows) test "is the anchor
//!   strictly inside", with the strict-feasibility LP only as the fallback;
//! * the nudge walks toward the anchor, and the tight-row LP direction is
//!   the fallback. A positive-target witness is nudged too whenever the
//!   radius leaves room, so that it flips the label in `f64` as well, not
//!   only under the exact tie rule.

use crate::classifier::ContinuousKnn;
use crate::regions::{LazyRegions, QueryRegions};
use knn_lp::{LpProblem, Rel};
use knn_num::field::{dot, norm_sq};
use knn_num::Field;
use knn_qp::{project_onto_polyhedron_from, Polyhedron, QpOutcome};
use knn_space::{ContinuousDataset, Label, LpMetric, OddK};

/// The infimum of the counterfactual distance and how it is realized.
#[derive(Clone, Debug)]
pub struct CfInfimum<F> {
    /// `inf { ‖x − y‖² : f(y) ≠ f(x) }`.
    pub dist_sq: F,
    /// A point of the *closure* of the opposite region realizing the infimum.
    pub closure_witness: Vec<F>,
    /// Whether the infimum is attained by a point of the open region itself
    /// (always true for a positive target).
    pub attained: bool,
}

/// Counterfactual engine for the ℓ2 setting.
///
/// The constructor fixes whether the Prop 1 polyhedra are memoized in a
/// shared [`LazyRegions`] view; every operation enumerates them
/// nearest-anchor-first and pruned
/// ([`RegionStream::for_query`](crate::regions::RegionStream::for_query)),
/// and runs projection QPs only on regions the cheap halfspace lower bound
/// cannot rule out.
#[derive(Clone, Debug)]
pub struct L2Counterfactual<'a, F> {
    ds: &'a ContinuousDataset<F>,
    k: OddK,
    regions: Option<&'a LazyRegions<F>>,
}

impl<'a, F: Field> L2Counterfactual<'a, F> {
    /// Builds the engine, enumerating a fresh region stream per call.
    pub fn new(ds: &'a ContinuousDataset<F>, k: OddK) -> Self {
        Self::over(ds, k, None)
    }

    /// The engine over a shared [`LazyRegions`] view of `ds`: the batch
    /// engine's serving path.
    pub fn with_lazy_regions(ds: &'a ContinuousDataset<F>, regions: &'a LazyRegions<F>) -> Self {
        Self::over(ds, regions.k(), Some(regions))
    }

    fn over(ds: &'a ContinuousDataset<F>, k: OddK, regions: Option<&'a LazyRegions<F>>) -> Self {
        assert!(ds.len() >= k.get() as usize);
        L2Counterfactual { ds, k, regions }
    }

    fn classifier(&self) -> ContinuousKnn<'a, F> {
        ContinuousKnn::new(self.ds, LpMetric::L2, self.k)
    }

    /// The polyhedra of the region `x` is not in, ordered for `x`.
    fn regions_for(&self, x: &[F]) -> QueryRegions<'a, F> {
        QueryRegions::new(self.ds, self.k, self.regions, x)
    }

    /// The infimum counterfactual distance (squared), with a closure witness.
    /// `None` if the opposite region is empty.
    pub fn infimum(&self, x: &[F]) -> Option<CfInfimum<F>> {
        let regions = self.regions_for(x);
        let target = regions.target();
        let mut best: Option<CfInfimum<F>> = None;
        for (poly, spec) in regions.polyhedra() {
            // Incumbent pruning: if a single violated halfspace already puts
            // the whole region farther than the best distance found, the QP
            // cannot improve it (ties keep the earlier incumbent anyway).
            if let Some(b) = &best {
                if lower_bound_exceeds(x, &poly, &b.dist_sq) {
                    continue;
                }
            }
            let anchor = spec.anchor_point(self.ds);
            // The open piece of a negative target contributes only if nonempty.
            if target == Label::Negative && !has_interior(&poly, &anchor) {
                continue;
            }
            if let QpOutcome::Optimal { y, dist_sq } =
                project_onto_polyhedron_from(x, &poly, Some(&anchor))
            {
                if best.as_ref().is_none_or(|b| dist_sq < b.dist_sq) {
                    let attained = target == Label::Positive || poly.contains_strictly(&y);
                    best = Some(CfInfimum { dist_sq, closure_witness: y, attained });
                }
            }
        }
        best
    }

    /// `k`-Counterfactual Explanation(ℝ, D₂): is there `ȳ` with
    /// `f(ȳ) ≠ f(x̄)` and `‖x̄ − ȳ‖ ≤ ℓ`? Returns a witness (Cor 2).
    /// Nearest-anchor-first ordering makes this the showcase short-circuit:
    /// the first region whose projection fits the ball answers the query.
    ///
    /// `radius_sq` is `ℓ²` (squared, to stay in the field).
    pub fn within(&self, x: &[F], radius_sq: &F) -> Option<Vec<F>> {
        let regions = self.regions_for(x);
        let target = regions.target();
        for (poly, spec) in regions.polyhedra() {
            // A single violated halfspace farther than the radius rules the
            // region out without a QP.
            if lower_bound_exceeds(x, &poly, radius_sq) {
                continue;
            }
            let anchor = spec.anchor_point(self.ds);
            if target == Label::Negative && !has_interior(&poly, &anchor) {
                continue;
            }
            let QpOutcome::Optimal { y, dist_sq } =
                project_onto_polyhedron_from(x, &poly, Some(&anchor))
            else {
                continue;
            };
            let fits = !(dist_sq.clone() - radius_sq.clone()).is_positive();
            let room = (radius_sq.clone() - dist_sq).is_positive();
            let witness = match target {
                // The projection onto the closed region is a witness once it
                // fits the ball, but it sits on a bisector, where a rounding
                // error can leave an `f64` point on the wrong side. When the
                // radius leaves room, step strictly inside; without room or
                // interior the boundary point stands, which the optimistic
                // rule classifies positively (§2).
                Label::Positive if room => {
                    Some(nudge_into_interior(x, &poly, &y, &anchor, radius_sq).unwrap_or(y))
                }
                Label::Positive if fits => Some(y),
                // Strictly inside the ball is required (Thm 2 proof).
                Label::Negative if room => nudge_into_interior(x, &poly, &y, &anchor, radius_sq),
                _ => None,
            };
            if let Some(w) = witness {
                debug_assert!(
                    !F::exact() || self.classifier().classify(&w) == target,
                    "exact witness must classify as target"
                );
                return Some(w);
            }
        }
        None
    }
}

/// Whether the open polyhedron is nonempty: the O(rows) test of the anchor
/// decides every k = 1 cell, and the strict-feasibility LP runs only when it
/// fails.
fn has_interior<F: Field>(poly: &Polyhedron<F>, anchor: &[F]) -> bool {
    poly.contains_strictly(anchor) || poly.strict_feasible_point().is_some()
}

/// A cheap lower bound on `d²(x̄, P)`: for any inequality row `g·y ≤ h` that
/// `x̄` violates, every point of `P` is at least `(g·x̄ − h)/‖g‖` away, so
/// `P` can be skipped whenever `(g·x̄ − h)² > bound_sq·‖g‖²` for some row.
/// The comparison is made through the field's sign test (tolerance-guarded
/// for `f64`), so the skip is conservative and deterministic.
fn lower_bound_exceeds<F: Field>(x: &[F], poly: &Polyhedron<F>, bound_sq: &F) -> bool {
    for (g, h) in poly.ineqs() {
        let viol = dot(g, x) - h.clone();
        if !viol.is_positive() {
            continue;
        }
        let g_sq = norm_sq(g);
        if (viol.clone() * viol - bound_sq.clone() * g_sq).is_positive() {
            return true;
        }
    }
    false
}

/// Corollary 2's witness construction: from a closure point `y` at distance
/// strictly below the radius, walk `y + εβ` toward the interior, halving `ε`
/// until every inequality holds strictly and the ball constraint is kept.
/// The direction is `anchor − y` when the anchor is strictly inside (every
/// point of that open segment is, by convexity); otherwise `β` comes from an
/// LP asking `a·β < 0` of every row tight at `y`. `None` when neither
/// direction reaches the interior, e.g. for a closed region without one.
fn nudge_into_interior<F: Field>(
    x: &[F],
    poly: &Polyhedron<F>,
    y: &[F],
    anchor: &[F],
    radius_sq: &F,
) -> Option<Vec<F>> {
    if poly.contains_strictly(y) {
        return Some(y.to_vec());
    }
    if poly.contains_strictly(anchor) {
        let toward: Vec<F> = anchor.iter().zip(y).map(|(a, b)| a.clone() - b.clone()).collect();
        if let Some(w) = walk_into_interior(x, poly, y, &toward, radius_sq) {
            return Some(w);
        }
    }
    let mut lp: LpProblem<F> = LpProblem::new(y.len());
    for (a, b) in poly.ineqs() {
        if (dot(a, y) - b.clone()).is_zero() {
            lp.add_dense(a, Rel::Lt, F::zero());
        }
    }
    walk_into_interior(x, poly, y, &lp.strict_feasible()?, radius_sq)
}

/// The first `y + εβ`, `ε = 1, 1/2, 1/4, …`, strictly inside both `poly`
/// and the ball; `None` after 256 halvings.
fn walk_into_interior<F: Field>(
    x: &[F],
    poly: &Polyhedron<F>,
    y: &[F],
    beta: &[F],
    radius_sq: &F,
) -> Option<Vec<F>> {
    let mut eps = F::one();
    for _ in 0..256 {
        let cand: Vec<F> =
            y.iter().zip(beta).map(|(yi, bi)| yi.clone() + eps.clone() * bi.clone()).collect();
        let d: Vec<F> = x.iter().zip(&cand).map(|(a, b)| a.clone() - b.clone()).collect();
        if (radius_sq.clone() - norm_sq(&d)).is_positive() && poly.contains_strictly(&cand) {
            return Some(cand);
        }
        eps = eps / F::from_i64(2);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_num::Rat;

    fn r(p: i64) -> Rat {
        Rat::from_int(p)
    }

    fn rq(p: i64, q: i64) -> Rat {
        Rat::frac(p, q)
    }

    /// 1-D, one point each side: positive at 0, negative at 2; x = 0.
    /// Bisector at 1; f = 0 strictly beyond 1. Infimum distance = 1, not attained.
    #[test]
    fn negative_target_infimum_not_attained() {
        let ds = ContinuousDataset::from_sets(vec![vec![r(0)]], vec![vec![r(2)]]);
        let cf = L2Counterfactual::new(&ds, OddK::ONE);
        let x = [r(0)];
        let inf = cf.infimum(&x).unwrap();
        assert_eq!(inf.dist_sq, r(1));
        assert!(!inf.attained);
        // Decision: radius 1 (= boundary) is a NO; radius 1.5 is a YES.
        assert!(cf.within(&x, &r(1)).is_none());
        let w = cf.within(&x, &rq(9, 4)).unwrap(); // ℓ = 3/2
        let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::ONE);
        assert_eq!(knn.classify(&w), Label::Negative);
        let d = (w[0].clone() - r(0)).abs();
        assert!(d <= rq(3, 2));
        assert!(d > r(1), "witness must be strictly past the bisector");
    }

    /// Same layout, but x on the negative side: positive target region is
    /// closed, the infimum IS attained at the bisector point.
    #[test]
    fn positive_target_attained_at_bisector() {
        let ds = ContinuousDataset::from_sets(vec![vec![r(0)]], vec![vec![r(2)]]);
        let cf = L2Counterfactual::new(&ds, OddK::ONE);
        let x = [r(2)];
        let inf = cf.infimum(&x).unwrap();
        assert_eq!(inf.dist_sq, r(1));
        assert!(inf.attained);
        assert_eq!(inf.closure_witness, vec![r(1)]);
        // Radius exactly 1 is now a YES (the tie point classifies positive).
        let w = cf.within(&x, &r(1)).unwrap();
        assert_eq!(w, vec![r(1)]);
        // With room in the ball, the witness steps strictly inside, toward
        // the anchor at 0, and stays within ℓ = 3/2 of x.
        let w = cf.within(&x, &rq(9, 4)).unwrap();
        assert!(w[0] < r(1) && w[0] >= rq(1, 2), "witness {w:?}");
    }

    #[test]
    fn two_dimensional_projection() {
        // Positives on the left half-plane (x≤0 region via points), negative
        // at (4,0); query at origin is positive; closest counterfactual lies
        // on the bisector x₁ = 2 → distance 2 (not attained, open region).
        let ds = ContinuousDataset::from_sets(vec![vec![r(0), r(0)]], vec![vec![r(4), r(0)]]);
        let cf = L2Counterfactual::new(&ds, OddK::ONE);
        let x = [r(0), r(0)];
        let inf = cf.infimum(&x).unwrap();
        assert_eq!(inf.dist_sq, r(4));
        assert_eq!(inf.closure_witness, vec![r(2), r(0)]);
        assert!(!inf.attained);
        assert!(cf.within(&x, &r(4)).is_none());
        assert!(cf.within(&x, &r(5)).is_some());
    }

    #[test]
    fn k3_counterfactual() {
        // Positives at -1, 0, 1; negatives at 4, 5, 6 (1-D, k=3).
        // Bisector region: moving right, the 2nd-closest-negative vs
        // 2nd-closest-positive order statistic flips between 0/1-cluster and
        // 4/5-cluster; CF from x=0 exists around the midpoint ~ (0+5)/2.
        let ds = ContinuousDataset::from_sets(
            vec![vec![r(-1)], vec![r(0)], vec![r(1)]],
            vec![vec![r(4)], vec![r(5)], vec![r(6)]],
        );
        let cf = L2Counterfactual::new(&ds, OddK::THREE);
        let x = [r(0)];
        let inf = cf.infimum(&x).unwrap();
        let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::THREE);
        assert_eq!(knn.classify(&x), Label::Positive);
        // Verify the claimed infimum by dense sampling: no closer flip, and a
        // flip exists just beyond it.
        let d = inf.dist_sq.to_f64().sqrt();
        for step in 0..200 {
            let t = d * (step as f64) / 200.0;
            let y = [Rat::from_f64(t * 0.999)];
            assert_eq!(knn.classify(&y), Label::Positive, "flip before infimum at {t}");
        }
        let just_past = [Rat::from_f64(d + 1e-6)];
        assert_eq!(knn.classify(&just_past), Label::Negative);
    }

    #[test]
    fn no_counterfactual_when_region_empty() {
        // Two positives, k = 3, a single negative can never out-vote: f ≡ 1.
        let ds = ContinuousDataset::from_sets(vec![vec![r(0)], vec![r(1)]], vec![vec![r(10)]]);
        let cf = L2Counterfactual::new(&ds, OddK::THREE);
        let x = [r(0)];
        assert!(cf.infimum(&x).is_none());
        assert!(cf.within(&x, &r(1_000_000)).is_none());
    }

    #[test]
    fn float_and_exact_agree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(67);
        for _ in 0..20 {
            let dim = rng.gen_range(1..4usize);
            let npos = rng.gen_range(1..4usize);
            let nneg = rng.gen_range(1..4usize);
            let pos: Vec<Vec<i64>> =
                (0..npos).map(|_| (0..dim).map(|_| rng.gen_range(-4i64..5)).collect()).collect();
            let neg: Vec<Vec<i64>> =
                (0..nneg).map(|_| (0..dim).map(|_| rng.gen_range(-4i64..5)).collect()).collect();
            let x: Vec<i64> = (0..dim).map(|_| rng.gen_range(-4i64..5)).collect();
            let to_r = |v: &Vec<i64>| -> Vec<Rat> { v.iter().map(|&a| r(a)).collect() };
            let to_f = |v: &Vec<i64>| -> Vec<f64> { v.iter().map(|&a| a as f64).collect() };
            let dsr = ContinuousDataset::from_sets(
                pos.iter().map(to_r).collect(),
                neg.iter().map(to_r).collect(),
            );
            let dsf = ContinuousDataset::from_sets(
                pos.iter().map(to_f).collect(),
                neg.iter().map(to_f).collect(),
            );
            let cfr = L2Counterfactual::new(&dsr, OddK::ONE);
            let cff = L2Counterfactual::new(&dsf, OddK::ONE);
            let ir = cfr.infimum(&to_r(&x));
            let iff = cff.infimum(&to_f(&x));
            match (ir, iff) {
                (Some(a), Some(b)) => {
                    assert!(
                        (a.dist_sq.to_f64() - b.dist_sq).abs() < 1e-6,
                        "infimum mismatch: {} vs {}",
                        a.dist_sq,
                        b.dist_sq
                    );
                }
                (None, None) => {}
                (a, b) => panic!("mismatch: {a:?} vs {b:?}"),
            }
        }
    }
}
