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
//!
//! **One gated walk.** `infimum`, `within` and `closest` share one loop over
//! the regions, nearest-anchor-first. Once a bound is in force (the best
//! distance so far, or the ball's radius), a region is skipped when one of
//! its rows puts it beyond the bound: `x̄` violates `g·ȳ ≤ h` by more than
//! `√bound·‖g‖`. The rows of `(A, B)` are the bisector rows `(ā, c̄)` with
//! `ā ∈ A` and `c̄ ∉ B`, so the test needs no polyhedron: the gate
//! evaluates the rows of `A` against every opposite point from the points
//! themselves, nearest opposite points first, before any region of `A` is
//! fetched. It rules `A` out when more than `|B| = ⌊k/2⌋` opposite points
//! fire, and otherwise skips every `B` that leaves out a firing one. When a
//! projection tightens the bound, the rest of `A` is re-gated.
//!
//! `closest` returns the infimum and the witness `within(x̄, radius_of(inf))`
//! answers from one walk: the witness is read off the projections the
//! infimum walk already solved, in walk order (a QP from the same anchor on
//! the same polyhedron returns the same bits), as long as every region
//! passed over before them was ruled out at a bound no smaller than the
//! radius, which `within` would rule out as well. In the rare case that
//! does not hold (a failed interior nudge, a radius below an earlier
//! incumbent), `within`'s own walk decides.
//!
//! **Why the answers are unchanged.** The gate takes each coefficient from
//! the `bisector_coeff` that [`bisector_row`] builds the polyhedra with and
//! accumulates in `dot`'s order, so a row fires at the gate iff it fires on
//! the memoized polyhedron, in `f64` too (a unit test pins this against a
//! scan of the polyhedron's rows). The
//! visit order stays nearest-anchor-first and the gate skips exactly the
//! regions the per-region test would, so the sequence of projections and
//! incumbents is the same as a walk that tests every region.
//!
//! [`bisector_row`]: crate::regions::bisector_row

use crate::classifier::ContinuousKnn;
use crate::regions::{bisector_coeff, LazyRegions, QueryRegions, RegionSpec};
use knn_lp::{LpProblem, Rel};
use knn_num::field::{dot, norm_sq};
use knn_num::Field;
use knn_qp::{project_onto_polyhedron_from, Polyhedron, QpOutcome};
use knn_space::{ContinuousDataset, Label, LpMetric, OddK};
use std::sync::Arc;

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
/// shared [`LazyRegions`] view. Every operation is one walk over the
/// regions nearest-anchor-first, pruned, and gated: an anchor set's regions
/// are fetched only when the halfspace lower bound, evaluated from the
/// points, cannot rule them out, and projection QPs run only on the regions
/// it admits.
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

    /// The polyhedra of the region `x` is not in, ordered for `x`, and the
    /// gate that rules their anchor sets out.
    fn regions_for<'x>(&self, x: &'x [F]) -> (QueryRegions<'a, F>, Gate<'a, 'x, F>) {
        let regions = QueryRegions::new(self.ds, self.k, self.regions, x);
        let gate = Gate::new(self.ds, self.k, regions.target(), x);
        (regions, gate)
    }

    /// The infimum counterfactual distance (squared), with a closure witness.
    /// `None` if the opposite region is empty.
    pub fn infimum(&self, x: &[F]) -> Option<CfInfimum<F>> {
        let (regions, gate) = self.regions_for(x);
        let solved = self.solve(&regions, &gate, x);
        infimum_of(&solved, regions.target())
    }

    /// `k`-Counterfactual Explanation(ℝ, D₂): is there `ȳ` with
    /// `f(ȳ) ≠ f(x̄)` and `‖x̄ − ȳ‖ ≤ ℓ`? Returns a witness (Cor 2).
    /// Nearest-anchor-first ordering makes this the showcase short-circuit:
    /// the first region whose projection fits the ball answers the query.
    ///
    /// `radius_sq` is `ℓ²` (squared, to stay in the field).
    pub fn within(&self, x: &[F], radius_sq: &F) -> Option<Vec<F>> {
        let (regions, gate) = self.regions_for(x);
        self.first_witness(&regions, &gate, x, radius_sq)
    }

    /// The infimum together with the witness `within(x, radius_of(inf))`
    /// answers, from one walk: the serving path's closest counterfactual.
    /// The witness is read off the projections the infimum walk solved, in
    /// walk order, as long as every region the walk passed over before them
    /// was ruled out at a bound no smaller than the radius (so `within`
    /// would rule it out too); otherwise, which takes a failed interior
    /// nudge or a radius below an earlier incumbent, `within`'s own walk
    /// decides. `None` if the opposite region is empty; a `None` witness
    /// means `within` finds none at that radius.
    pub fn closest(
        &self,
        x: &[F],
        radius_of: impl FnOnce(&F) -> F,
    ) -> Option<(CfInfimum<F>, Option<Vec<F>>)> {
        let (regions, gate) = self.regions_for(x);
        let target = regions.target();
        let solved = self.solve(&regions, &gate, x);
        let inf = infimum_of(&solved, target)?;
        let radius_sq = radius_of(&inf.dist_sq);
        let replayed = || {
            for s in &solved {
                if s.bound.as_ref().is_some_and(|b| *b < radius_sq) {
                    return None;
                }
                if !fits(&s.dist_sq, &radius_sq) || gate.rules_out(&s.spec, &radius_sq) {
                    continue;
                }
                if let Some(w) = self.witness_at(x, s, &radius_sq, target) {
                    return Some(w);
                }
            }
            None
        };
        let witness = replayed().or_else(|| self.first_witness(&regions, &gate, x, &radius_sq));
        Some((inf, witness))
    }

    /// The infimum walk: every projection solved, in walk order, the bound
    /// tightening to each new best distance.
    fn solve(
        &self,
        regions: &QueryRegions<'a, F>,
        gate: &Gate<'_, '_, F>,
        x: &[F],
    ) -> Vec<Solved<F>> {
        let mut solved: Vec<Solved<F>> = Vec::new();
        self.walk(regions, gate, x, None, |s| {
            // Ties keep the earlier incumbent.
            let step = if s.bound.as_ref().is_none_or(|b| s.dist_sq < *b) {
                Step::Tighten(s.dist_sq.clone())
            } else {
                Step::Next
            };
            solved.push(s);
            step
        });
        solved
    }

    /// `within`'s walk: the first region whose projection yields a witness
    /// inside the ball.
    fn first_witness(
        &self,
        regions: &QueryRegions<'a, F>,
        gate: &Gate<'_, '_, F>,
        x: &[F],
        radius_sq: &F,
    ) -> Option<Vec<F>> {
        let target = regions.target();
        let mut witness = None;
        self.walk(regions, gate, x, Some(radius_sq.clone()), |s| {
            witness = self.witness_at(x, &s, radius_sq, target);
            if witness.is_some() {
                Step::Stop
            } else {
                Step::Next
            }
        });
        witness
    }

    /// The one region walk. Anchor sets come nearest-anchor-first; once a
    /// bound is in force, [`Gate::fired`] rules an anchor set out, or names
    /// the opposite points every admissible `B` must exclude, before any of
    /// its polyhedra is fetched. Each admitted region with an interior (a
    /// negative target's regions are open) is projected from its anchor
    /// point and handed to `visit`, which may tighten the bound for the rest
    /// of the walk.
    fn walk(
        &self,
        regions: &QueryRegions<'a, F>,
        gate: &Gate<'_, '_, F>,
        x: &[F],
        mut bound: Option<F>,
        mut visit: impl FnMut(Solved<F>) -> Step<F>,
    ) {
        let target = regions.target();
        let mut stream = regions.polyhedra();
        for anchors in regions.order().iter() {
            let mut required = Vec::new();
            if let Some(b) = &bound {
                match gate.fired(anchors, b) {
                    Some(fired) => required = fired,
                    None => continue,
                }
            }
            let mut set = stream.anchor_set(anchors);
            while let Some((poly, spec)) = set.next_containing(&required) {
                let anchor = spec.anchor_point(self.ds);
                if target == Label::Negative && !has_interior(&poly, &anchor) {
                    continue;
                }
                let QpOutcome::Optimal { y, dist_sq } =
                    project_onto_polyhedron_from(x, &poly, Some(&anchor))
                else {
                    continue;
                };
                match visit(Solved { poly, spec, anchor, y, dist_sq, bound: bound.clone() }) {
                    Step::Next => {}
                    Step::Stop => return,
                    // The new bound re-gates the rest of this anchor set;
                    // at k = 1 (`B = ∅`) the set has no other region.
                    Step::Tighten(b) if gate.excluded == 0 => bound = Some(b),
                    Step::Tighten(b) => {
                        let fired = gate.fired(anchors, &b);
                        bound = Some(b);
                        match fired {
                            Some(fired) => required = fired,
                            None => break,
                        }
                    }
                }
            }
        }
    }

    /// The witness a projection `s` yields inside the ball of squared radius
    /// `radius_sq`, if any.
    fn witness_at(&self, x: &[F], s: &Solved<F>, radius_sq: &F, target: Label) -> Option<Vec<F>> {
        let room = (radius_sq.clone() - s.dist_sq.clone()).is_positive();
        let (poly, y, anchor) = (&*s.poly, &s.y, &s.anchor);
        let witness = match target {
            // The projection onto the closed region is a witness once it
            // fits the ball, but it sits on a bisector, where a rounding
            // error can leave an `f64` point on the wrong side. When the
            // radius leaves room, step strictly inside; without room or
            // interior the boundary point stands, which the optimistic
            // rule classifies positively (§2).
            Label::Positive if room => {
                Some(nudge_into_interior(x, poly, y, anchor, radius_sq).unwrap_or(y.clone()))
            }
            Label::Positive if fits(&s.dist_sq, radius_sq) => Some(y.clone()),
            // Strictly inside the ball is required (Thm 2 proof).
            Label::Negative if room => nudge_into_interior(x, poly, y, anchor, radius_sq),
            _ => None,
        };
        if let Some(w) = &witness {
            debug_assert!(
                !F::exact() || self.classifier().classify(w) == target,
                "exact witness must classify as target"
            );
        }
        witness
    }
}

/// What a walk's visitor asks for after a projection.
enum Step<F> {
    /// Go on under the same bound.
    Next,
    /// Go on, ruling out every region farther than this squared distance.
    Tighten(F),
    /// End the walk.
    Stop,
}

/// One projection a walk solved: the region, its anchor point, the
/// projection `y` of `x̄` and its squared distance, and the bound in force
/// when the walk reached it (`None` before the first tightening).
struct Solved<F> {
    poly: Arc<Polyhedron<F>>,
    spec: RegionSpec,
    anchor: Vec<F>,
    y: Vec<F>,
    dist_sq: F,
    bound: Option<F>,
}

/// The first projection at the least distance, as a [`CfInfimum`].
fn infimum_of<F: Field>(solved: &[Solved<F>], target: Label) -> Option<CfInfimum<F>> {
    let mut best: Option<&Solved<F>> = None;
    for s in solved {
        if best.is_none_or(|b| s.dist_sq < b.dist_sq) {
            best = Some(s);
        }
    }
    best.map(|s| CfInfimum {
        dist_sq: s.dist_sq.clone(),
        closure_witness: s.y.clone(),
        attained: target == Label::Positive || s.poly.contains_strictly(&s.y),
    })
}

/// `dist_sq ≤ radius_sq` under the field's sign test.
fn fits<F: Field>(dist_sq: &F, radius_sq: &F) -> bool {
    !(dist_sq.clone() - radius_sq.clone()).is_positive()
}

/// Whether the open polyhedron is nonempty: the O(rows) test of the anchor
/// decides every k = 1 cell, and the strict-feasibility LP runs only when it
/// fails.
fn has_interior<F: Field>(poly: &Polyhedron<F>, anchor: &[F]) -> bool {
    poly.contains_strictly(anchor) || poly.strict_feasible_point().is_some()
}

/// The halfspace lower bound at the level of anchor sets, evaluated from
/// the points before any polyhedron is fetched.
///
/// For any row `g·ȳ ≤ h` that `x̄` violates, every point of the region is at
/// least `(g·x̄ − h)/‖g‖` away, so a region lies beyond `bound` (a squared
/// distance) whenever one of its rows *fires*:
/// `(g·x̄ − h)² − bound·‖g‖²` is positive under [`Field::is_positive`]. The
/// rows of region `(A, B)` are the bisector rows `(ā, c̄)` for `ā ∈ A` and
/// `c̄ ∉ B`, so with `C` the opposite points that fire against some anchor,
/// the region lies beyond `bound` iff `C ⊄ B`: every region of `A` does when
/// `|C| > |B|`. The rows are evaluated with [`bisector_row`]'s arithmetic
/// (its `bisector_coeff`, `norm_sq`, `dot`'s order), so a row fires here
/// iff it fires on the memoized polyhedron. Firing is monotone in `bound`: a row that fires at
/// a bound fires at every smaller one, in `f64` too.
///
/// [`bisector_row`]: crate::regions::bisector_row
struct Gate<'a, 'x, F> {
    ds: &'a ContinuousDataset<F>,
    x: &'x [F],
    /// The opposite class, in the region stream's positions.
    others: Vec<usize>,
    /// Positions into `others`, nearest to `x̄` first (ties by position):
    /// the rows most violated come first, so the scan usually ends early.
    scan: Vec<usize>,
    /// `‖p‖²` for every dataset point, as [`bisector_row`] computes it.
    ///
    /// [`bisector_row`]: crate::regions::bisector_row
    norms: Vec<F>,
    /// `|B|`.
    excluded: usize,
}

impl<'a, 'x, F: Field> Gate<'a, 'x, F> {
    fn new(ds: &'a ContinuousDataset<F>, k: OddK, target: Label, x: &'x [F]) -> Self {
        let others = ds.indices_of(target.flip());
        let dist: Vec<F> = others
            .iter()
            .map(|&c| {
                x.iter().zip(ds.point(c)).fold(F::zero(), |acc, (a, b)| {
                    let d = a.clone() - b.clone();
                    acc + d.clone() * d
                })
            })
            .collect();
        let mut scan: Vec<usize> = (0..others.len()).collect();
        scan.sort_by(|&i, &j| {
            dist[i].partial_cmp(&dist[j]).unwrap_or(std::cmp::Ordering::Equal).then(i.cmp(&j))
        });
        let norms = (0..ds.len()).map(|i| norm_sq(ds.point(i))).collect();
        let excluded = k.minority().min(others.len());
        Gate { ds, x, others, scan, norms, excluded }
    }

    /// The positions of the opposite points that fire against some anchor
    /// of `anchors` at `bound`, ascending; `None` when more than `|B|` do,
    /// i.e. when every region of the anchor set lies beyond `bound`.
    fn fired(&self, anchors: &[usize], bound: &F) -> Option<Vec<usize>> {
        let mut fired = Vec::new();
        for &p in &self.scan {
            if anchors.iter().any(|&a| self.fires(a, self.others[p], bound)) {
                if fired.len() == self.excluded {
                    return None;
                }
                fired.push(p);
            }
        }
        fired.sort_unstable();
        Some(fired)
    }

    /// Whether the region lies beyond `bound`: the per-region halfspace
    /// test, decided from the points.
    fn rules_out(&self, spec: &RegionSpec, bound: &F) -> bool {
        match self.fired(&spec.anchors, bound) {
            None => true,
            Some(fired) => {
                fired.iter().any(|&p| spec.excluded.binary_search(&self.others[p]).is_err())
            }
        }
    }

    /// Whether the bisector row `(a, c)` fires at `bound`. The coefficients
    /// come from [`bisector_coeff`] and `h = ‖c̄‖² − ‖ā‖²` from `norm_sq`, as
    /// in [`bisector_row`]; `g·x̄` and `‖g‖²` are accumulated in `dot`'s
    /// order, without building the row. The `gate_fires_like_the_row_scan`
    /// test pins this to a scan of the memoized polyhedron's rows in `f64`.
    ///
    /// [`bisector_row`]: crate::regions::bisector_row
    fn fires(&self, a: usize, c: usize, bound: &F) -> bool {
        let mut gx = F::zero();
        let mut g_sq = F::zero();
        for ((ai, ci), xi) in self.ds.point(a).iter().zip(self.ds.point(c)).zip(self.x) {
            let g = bisector_coeff(ai, ci);
            gx = gx + g.clone() * xi.clone();
            g_sq = g_sq + g.clone() * g;
        }
        let viol = gx - (self.norms[c].clone() - self.norms[a].clone());
        viol.is_positive() && (viol.clone() * viol - bound.clone() * g_sq).is_positive()
    }
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
    use crate::regions::RegionStream;
    use knn_num::field::F64_TOL;
    use knn_num::Rat;
    use proptest::prelude::*;

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

    /// Whether the row `g·ȳ ≤ h` puts `x̄` beyond `bound`: the per-region
    /// halfspace test the gate replaces, kept as its reference.
    fn row_fires(x: &[f64], (g, h): &(Vec<f64>, f64), bound: f64) -> bool {
        let viol = dot(g, x) - *h;
        Field::is_positive(&viol) && Field::is_positive(&(viol * viol - bound * norm_sq(g)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// In `f64`, each bisector row `(ā, c̄)` fires at the gate iff the
        /// same row of the memoized polyhedron fires, and the gate rules a
        /// region out iff one of its rows does: at a random bound and at
        /// every row's threshold `(viol² − F64_TOL)/‖g‖²`, where rounding
        /// decides. The gate's bits are the rows' bits.
        #[test]
        fn gate_fires_like_the_row_scan(
            (pos, neg, x) in (1..=4usize).prop_flat_map(|dim| {
                let pt = move || prop::collection::vec(-1.0..1.0f64, dim);
                (
                    prop::collection::vec(pt(), 1..=5),
                    prop::collection::vec(pt(), 1..=5),
                    pt(),
                )
            }),
            three in any::<bool>(),
            scale in 0.0..4.0f64,
        ) {
            let ds = ContinuousDataset::from_sets(pos, neg);
            let k = if three && ds.len() >= 3 { OddK::THREE } else { OddK::ONE };
            let target = ContinuousKnn::new(&ds, LpMetric::L2, k).classify(&x).flip();
            let gate = Gate::new(&ds, k, target, &x);
            let others = ds.indices_of(target.flip());
            for (poly, spec) in RegionStream::for_query(&ds, k, target, &x, None) {
                // The rows in `region_rows`' order: each anchor against the
                // opposite points outside `B`.
                let pairs: Vec<(usize, usize)> = spec
                    .anchors
                    .iter()
                    .flat_map(|&a| {
                        others
                            .iter()
                            .filter(|c| spec.excluded.binary_search(c).is_err())
                            .map(move |&c| (a, c))
                    })
                    .collect();
                let rows = poly.ineqs();
                prop_assert_eq!(rows.len(), pairs.len());
                let mut bounds = vec![scale];
                for (g, h) in rows {
                    let viol = dot(g, &x) - *h;
                    let g_sq = norm_sq(g);
                    if viol > 0.0 && g_sq > 0.0 {
                        bounds.push((viol * viol - F64_TOL) / g_sq);
                    }
                }
                for b in bounds {
                    for (row, &(a, c)) in rows.iter().zip(&pairs) {
                        prop_assert_eq!(
                            gate.fires(a, c, &b),
                            row_fires(&x, row, b),
                            "row ({}, {}) at bound {}", a, c, b
                        );
                    }
                    prop_assert_eq!(
                        gate.rules_out(&spec, &b),
                        rows.iter().any(|row| row_fires(&x, row, b)),
                        "region {:?} at bound {}", spec, b
                    );
                }
            }
        }
    }
}
