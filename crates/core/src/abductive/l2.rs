//! Abductive explanations under ℓ2 (Proposition 3, Corollary 1, Corollary 6).
//!
//! `X` is **not** a sufficient reason for `x̄` iff the affine subspace
//! `U(X, x̄) = {ȳ : ȳᵢ = x̄ᵢ ∀i ∈ X}` intersects the opposite decision
//! region, which by Proposition 1 is a union of polynomially many (for fixed
//! k) polyhedra — closed ones for the positive region (plain LP feasibility),
//! open ones for the negative region (strict feasibility via the ε-LP).
//!
//! Before any LP, a check tries one cheap candidate per polyhedron: the
//! projection of the region's anchor point onto `U(X, x̄)`, that is `x̄` on
//! `X` and the centroid of the region's anchors elsewhere. At k = 1 the
//! anchor is the cell's own data point, so a nearby data instance usually
//! already is the counterexample. A candidate strictly inside its
//! polyhedron answers "not sufficient" after an O(rows · d) test. The
//! regions are taken in windows of `PROJECTION_WINDOW` (at k = 1 one
//! window usually holds them all): only when no region of a window admits
//! its candidate do the LPs run over that window, so every "sufficient"
//! verdict keeps the exact Prop 3 proof.
//! The LPs have the `|F|` free features as variables, `x̄` substituted on
//! `X` ([`Polyhedron::restrict`]), so a witness equals `x̄` on `X` exactly.

use crate::abductive::minimum::{minimum_sufficient_reason, HittingSetMode};
use crate::classifier::ContinuousKnn;
use crate::regions::{LazyRegions, QueryRegions, RegionSpec};
use crate::SrCheck;
use knn_num::Field;
use knn_qp::Polyhedron;
use knn_space::{ContinuousDataset, Label, LpMetric, OddK};
use std::sync::Arc;

/// How many regions a check tests by anchor projection before it runs the
/// LPs on them. At k = 1 there is one region per point of the other class,
/// so at serving sizes (a few hundred points) one window holds the whole
/// decomposition. At k ≥ 3 the stream can run to millions of regions; the
/// window bounds the regions held at once, and the enumeration done past
/// the region whose LP would have answered.
const PROJECTION_WINDOW: usize = 256;

/// Sufficient-reason engine for the ℓ2 setting.
///
/// The constructor fixes whether the Prop 1 polyhedra are memoized in a
/// shared [`LazyRegions`] view; every operation enumerates them
/// nearest-anchor-first and pruned
/// ([`RegionStream::for_query`](crate::regions::RegionStream::for_query)),
/// so a failing check usually stops at the first few regions, most often
/// on an anchor projection and without any LP.
#[derive(Clone, Debug)]
pub struct L2Abductive<'a, F> {
    ds: &'a ContinuousDataset<F>,
    k: OddK,
    regions: Option<&'a LazyRegions<F>>,
}

impl<'a, F: Field> L2Abductive<'a, F> {
    /// Builds the engine for `f^k_{S⁺,S⁻}` under ℓ2, enumerating a fresh
    /// region stream per call.
    pub fn new(ds: &'a ContinuousDataset<F>, k: OddK) -> Self {
        Self::over(ds, k, None)
    }

    /// The engine over a shared [`LazyRegions`] view of `ds` (the batch
    /// engine's serving path): warm queries replay memoized polyhedra, cold
    /// ones enumerate and memoize.
    pub fn with_lazy_regions(ds: &'a ContinuousDataset<F>, regions: &'a LazyRegions<F>) -> Self {
        Self::over(ds, regions.k(), Some(regions))
    }

    fn over(ds: &'a ContinuousDataset<F>, k: OddK, regions: Option<&'a LazyRegions<F>>) -> Self {
        assert!(ds.len() >= k.get() as usize);
        L2Abductive { ds, k, regions }
    }

    fn classifier(&self) -> ContinuousKnn<'a, F> {
        ContinuousKnn::new(self.ds, LpMetric::L2, self.k)
    }

    /// The polyhedra a counterexample for `x` must lie in, ordered once for
    /// every check on `x`.
    fn regions_for(&self, x: &[F]) -> QueryRegions<'a, F> {
        QueryRegions::new(self.ds, self.k, self.regions, x)
    }

    /// `k`-Check Sufficient Reason(ℝ, D₂) — polynomial for fixed k (Prop 3).
    /// A "not sufficient" witness equals `x̄` exactly on `fixed` and
    /// classifies as the flipped label: the anchor projection of the first
    /// region that holds it strictly, else the LP point of the first region
    /// that meets `U(X, x̄)`.
    pub fn check(&self, x: &[F], fixed: &[usize]) -> SrCheck<Vec<F>> {
        self.check_over(x, fixed, &self.regions_for(x))
    }

    /// The shared check: over each [`PROJECTION_WINDOW`] of regions, the
    /// anchor projections first, then the LP loop, where the first region
    /// admitting a point of `U(X, x̄)` yields the counterexample. The
    /// polyhedra are used read-only; each LP runs on a region's
    /// restriction to the free features.
    fn check_over(
        &self,
        x: &[F],
        fixed: &[usize],
        regions: &QueryRegions<'a, F>,
    ) -> SrCheck<Vec<F>> {
        let target = regions.target();
        let knn = self.classifier();
        // Exact fields satisfy Prop 1 on the nose; a float point can sit a
        // rounding error on the wrong side of a bisector. Such a point
        // certifies nothing — keep looking.
        let flips = |w: &[F]| {
            let ok = knn.classify(w) == target;
            debug_assert!(ok || !F::exact(), "exact witness must classify as target");
            ok
        };
        let mut is_free = vec![true; x.len()];
        fixed.iter().for_each(|&i| is_free[i] = false);
        let free: Vec<usize> = (0..x.len()).filter(|&i| is_free[i]).collect();
        let projection = |(poly, spec): &(Arc<Polyhedron<F>>, RegionSpec)| {
            let mut y = spec.anchor_point(self.ds);
            for &i in fixed {
                y[i] = x[i].clone();
            }
            (poly.contains_strictly(&y) && flips(&y)).then_some(y)
        };
        let lift = |z: Vec<F>| {
            let mut y = x.to_vec();
            free.iter().zip(z).for_each(|(&i, v)| y[i] = v);
            y
        };
        let lp = |(poly, _): &(Arc<Polyhedron<F>>, RegionSpec)| {
            let trace = poly.restrict(x, &free);
            match target {
                // The positive region is closed, so any feasible point works —
                // but a bisector-boundary point classifies by exact tie-break,
                // which the float instantiation cannot reproduce reliably.
                // Prefer an interior witness and keep the boundary fallback
                // for measure-zero cells.
                Label::Positive => trace.strict_feasible_point().or_else(|| trace.feasible_point()),
                Label::Negative => trace.strict_feasible_point(),
            }
            .map(lift)
            .filter(|w| flips(w))
        };
        match first_in_windows(regions.polyhedra(), PROJECTION_WINDOW, projection, lp) {
            Some(witness) => SrCheck::NotSufficient { witness },
            None => SrCheck::Sufficient,
        }
    }

    /// Convenience boolean form of [`L2Abductive::check`].
    pub fn is_sufficient(&self, x: &[F], fixed: &[usize]) -> bool {
        self.check(x, fixed).is_sufficient()
    }

    /// A *minimal* sufficient reason in polynomial time (Cor 1 via Prop 2).
    /// The nearest-anchor-first order depends only on `x`, so it is computed
    /// once and shared by every greedy-deletion check.
    pub fn minimal(&self, x: &[F]) -> Vec<usize> {
        let regions = self.regions_for(x);
        super::greedy_minimal(self.ds.dim(), None, |s| {
            self.check_over(x, s, &regions).is_sufficient()
        })
    }

    /// A *minimum* sufficient reason — NP-complete (Cor 6); exact via the
    /// implicit-hitting-set loop with the polynomial check as oracle.
    pub fn minimum(&self, x: &[F]) -> Vec<usize> {
        self.minimum_with(x, HittingSetMode::Exact)
    }

    /// Minimum-SR loop with a choice of hitting-set mode (`Greedy` gives the
    /// polynomial upper-bound heuristic of §10's approximation question).
    /// One anchor ordering serves every counterexample check in the loop.
    pub fn minimum_with(&self, x: &[F], mode: HittingSetMode) -> Vec<usize> {
        let regions = self.regions_for(x);
        minimum_sufficient_reason(
            self.ds.dim(),
            mode,
            |s| self.check_over(x, s, &regions),
            |w| Self::deviation(x, w),
        )
    }

    /// The deviation set `D(ȳ) = {i : ȳᵢ ≠ x̄ᵢ}` of a counterexample.
    fn deviation(x: &[F], w: &[F]) -> Vec<usize> {
        (0..x.len())
            .filter(|&i| {
                let d = w[i].clone() - x[i].clone();
                !d.is_zero()
            })
            .collect()
    }
}

/// The first answer over `items`, taken in windows of `window`: `cheap`
/// runs over a whole window, in order, before `exact` runs over the same
/// window, and the first `Some` ends the walk. At most one window is held.
fn first_in_windows<T, R>(
    mut items: impl Iterator<Item = T>,
    window: usize,
    mut cheap: impl FnMut(&T) -> Option<R>,
    mut exact: impl FnMut(&T) -> Option<R>,
) -> Option<R> {
    let mut held = Vec::with_capacity(window);
    loop {
        held.clear();
        for item in items.by_ref().take(window) {
            if let Some(r) = cheap(&item) {
                return Some(r);
            }
            held.push(item);
        }
        if held.is_empty() {
            return None;
        }
        if let Some(r) = held.iter().find_map(&mut exact) {
            return Some(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_num::Rat;

    fn r(p: i64) -> Rat {
        Rat::from_int(p)
    }

    /// 1-D: positives at -1 and 1, negative at 3; x = 0 (positive).
    /// The empty set is NOT sufficient (points near 3 are negative) but any
    /// coordinate fix is: fixing x₁ = 0 pins the whole point in 1-D.
    #[test]
    fn one_dimensional_check() {
        let ds = ContinuousDataset::from_sets(vec![vec![r(-1)], vec![r(1)]], vec![vec![r(3)]]);
        let ab = L2Abductive::new(&ds, OddK::ONE);
        let x = [r(0)];
        assert!(!ab.is_sufficient(&x, &[]));
        assert!(ab.is_sufficient(&x, &[0]));
        assert_eq!(ab.minimal(&x), vec![0]);
        assert_eq!(ab.minimum(&x), vec![0]);
    }

    /// 2-D: classification depends only on coordinate 0; coordinate 1 is
    /// irrelevant, so {0} must be the minimal and minimum sufficient reason.
    #[test]
    fn irrelevant_coordinate_dropped() {
        let ds = ContinuousDataset::from_sets(
            vec![vec![r(-1), r(0)], vec![r(-1), r(5)]],
            vec![vec![r(1), r(0)], vec![r(1), r(5)]],
        );
        let ab = L2Abductive::new(&ds, OddK::ONE);
        let x = [r(-1), r(2)];
        // x is positive; fixing coordinate 0 = -1 keeps any (−1, y₂) closer to
        // some positive than to every negative? d((−1,y), (−1,p))² = (y−p)²;
        // d to negatives = 4 + (y−q)². min over p of (y−p)² ≤ min over q 4+(y−q)²
        // iff min_p (y−p)² ≤ 4 + min_q (y−q)². With p,q ∈ {0,5} equal sets:
        // min_p = min_q → always ≤. So {0} is sufficient.
        assert!(ab.is_sufficient(&x, &[0]));
        assert!(!ab.is_sufficient(&x, &[1]));
        assert!(!ab.is_sufficient(&x, &[]));
        assert_eq!(ab.minimum(&x), vec![0]);
        assert_eq!(ab.minimal(&x), vec![0]);
    }

    /// The witness returned by a failed check must agree with x on the fixed
    /// coordinates and flip the label.
    #[test]
    fn witness_properties() {
        let ds = ContinuousDataset::from_sets(vec![vec![r(0), r(0)]], vec![vec![r(4), r(4)]]);
        let ab = L2Abductive::new(&ds, OddK::ONE);
        let x = [r(0), r(0)];
        match ab.check(&x, &[0]) {
            SrCheck::NotSufficient { witness } => {
                assert_eq!(witness[0], r(0));
                let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::ONE);
                assert_eq!(knn.classify(&witness), Label::Negative);
            }
            SrCheck::Sufficient => panic!("x₂ can push the point into the negative cell"),
        }
    }

    /// `check` with the LPs it ran. The stream's pruner is halfspace
    /// algebra and runs no LP, so every LP counted here is one of the
    /// check's own.
    fn check_counting_lps(
        ds: &ContinuousDataset<Rat>,
        x: &[Rat],
        fixed: &[usize],
    ) -> (SrCheck<Vec<Rat>>, u64) {
        let ab = L2Abductive::new(ds, OddK::ONE);
        let before = knn_lp::tally::lp_solves();
        let verdict = ab.check(x, fixed);
        (verdict, knn_lp::tally::lp_solves() - before)
    }

    /// x = (0, 0) next to the negative (4, 6): with x₀ fixed, the anchor's
    /// projection (0, 6) lies strictly inside the negative cell
    /// 8y₀ + 12y₁ > 52, so it is the witness and no LP runs.
    #[test]
    fn projection_answers_without_lp() {
        let ds = ContinuousDataset::from_sets(vec![vec![r(0), r(0)]], vec![vec![r(4), r(6)]]);
        let (verdict, lps) = check_counting_lps(&ds, &[r(0), r(0)], &[0]);
        assert_eq!(verdict.witness(), Some(&vec![r(0), r(6)]));
        assert_eq!(lps, 0);
    }

    /// The negative cell of (4, 1) against (0, 0) is 8y₀ + 2y₁ > 17: the
    /// anchor's projection (0, 1) onto y₀ = 0 misses it, yet the line meets
    /// it above y₁ = 8.5, so the LP pass must find the witness.
    #[test]
    fn lp_answers_when_projection_misses() {
        let ds = ContinuousDataset::from_sets(vec![vec![r(0), r(0)]], vec![vec![r(4), r(1)]]);
        let (verdict, lps) = check_counting_lps(&ds, &[r(0), r(0)], &[0]);
        let witness = verdict.witness().expect("y₀ = 0 meets the negative cell").clone();
        assert_eq!(witness[0], r(0));
        assert_ne!(witness, vec![r(0), r(1)]);
        let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::ONE);
        assert_eq!(knn.classify(&witness), Label::Negative);
        assert!(lps > 0);
    }

    /// Windows of 4 over ten items: every cheap test of a window runs
    /// before its exact tests, and the first answer wins.
    #[test]
    fn windows_run_cheap_tests_first() {
        let run = |cheap_hit: usize, exact_hit: usize| {
            let calls = std::cell::RefCell::new(Vec::new());
            let found = first_in_windows(
                0..10usize,
                4,
                |&i| {
                    calls.borrow_mut().push(('c', i));
                    (i == cheap_hit).then_some(('c', i))
                },
                |&i| {
                    calls.borrow_mut().push(('e', i));
                    (i == exact_hit).then_some(('e', i))
                },
            );
            (found, calls.into_inner())
        };
        let seq = |tag, r: std::ops::Range<usize>| r.map(move |i| (tag, i));
        let (found, calls) = run(9, 99);
        assert_eq!(found, Some(('c', 9)));
        let want: Vec<_> = seq('c', 0..4)
            .chain(seq('e', 0..4))
            .chain(seq('c', 4..8))
            .chain(seq('e', 4..8))
            .chain(seq('c', 8..10))
            .collect();
        assert_eq!(calls, want);
        let (found, calls) = run(6, 2);
        assert_eq!(found, Some(('e', 2)));
        assert_eq!(calls, seq('c', 0..4).chain(seq('e', 0..3)).collect::<Vec<_>>());
        let (found, calls) = run(99, 99);
        assert_eq!(found, None);
        assert_eq!(calls.len(), 20);
    }

    /// k = 3 with a positive cluster outvoting a single negative.
    #[test]
    fn k3_check() {
        let ds = ContinuousDataset::from_sets(
            vec![vec![r(-1)], vec![r(0)], vec![r(1)]],
            vec![vec![r(10)]],
        );
        let ab = L2Abductive::new(&ds, OddK::THREE);
        let x = [r(0)];
        // With k=3, any point sees at least 2 positives among its 3 nearest
        // (only one negative exists) → label is always positive → ∅ sufficient.
        assert!(ab.is_sufficient(&x, &[]));
        assert_eq!(ab.minimum(&x), Vec::<usize>::new());
    }

    /// Minimum can be smaller than what a poorly-ordered greedy finds
    /// (Example 2's phenomenon, continuous analogue).
    #[test]
    fn minimum_never_larger_than_minimal() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..15 {
            let dim = rng.gen_range(1..4usize);
            let npts = rng.gen_range(2..5usize);
            let pos: Vec<Vec<Rat>> = (0..npts.div_ceil(2))
                .map(|_| (0..dim).map(|_| r(rng.gen_range(-3i64..4))).collect())
                .collect();
            let neg: Vec<Vec<Rat>> = (0..npts / 2 + 1)
                .map(|_| (0..dim).map(|_| r(rng.gen_range(-3i64..4))).collect())
                .collect();
            let ds = ContinuousDataset::from_sets(pos, neg);
            let ab = L2Abductive::new(&ds, OddK::ONE);
            let x: Vec<Rat> = (0..dim).map(|_| r(rng.gen_range(-3i64..4))).collect();
            let minimal = ab.minimal(&x);
            let minimum = ab.minimum(&x);
            assert!(minimum.len() <= minimal.len());
            assert!(ab.is_sufficient(&x, &minimum));
            assert!(ab.is_sufficient(&x, &minimal));
        }
    }
}
