//! Abductive explanations under ℓ2 (Proposition 3, Corollary 1, Corollary 6).
//!
//! `X` is **not** a sufficient reason for `x̄` iff the affine subspace
//! `U(X, x̄) = {ȳ : ȳᵢ = x̄ᵢ ∀i ∈ X}` intersects the opposite decision
//! region, which by Proposition 1 is a union of polynomially many (for fixed
//! k) polyhedra — closed ones for the positive region (plain LP feasibility),
//! open ones for the negative region (strict feasibility via the ε-LP).

use crate::abductive::minimum::{minimum_sufficient_reason, HittingSetMode};
use crate::classifier::ContinuousKnn;
use crate::regions::{LazyRegions, QueryRegions, RegionCache, RegionSource};
use crate::SrCheck;
use knn_num::Field;
use knn_qp::Polyhedron;
use knn_space::{ContinuousDataset, Label, LpMetric, OddK};
use std::borrow::Borrow;

/// Sufficient-reason engine for the ℓ2 setting.
///
/// The constructor fixes where the Prop 1 polyhedra come from; every
/// operation enumerates them nearest-anchor-first and pruned
/// ([`RegionStream::for_query`](crate::regions::RegionStream::for_query)),
/// so a failing check usually terminates after a handful of LPs instead of
/// scanning the whole decomposition.
#[derive(Clone, Debug)]
pub struct L2Abductive<'a, F> {
    ds: &'a ContinuousDataset<F>,
    k: OddK,
    source: RegionSource<'a, F>,
}

impl<'a, F: Field> L2Abductive<'a, F> {
    /// Builds the engine for `f^k_{S⁺,S⁻}` under ℓ2, enumerating a fresh
    /// region stream per call.
    pub fn new(ds: &'a ContinuousDataset<F>, k: OddK) -> Self {
        Self::over(ds, k, RegionSource::Stream)
    }

    /// The engine over a shared [`LazyRegions`] view of `ds` (the batch
    /// engine's serving path): warm queries replay memoized polyhedra, cold
    /// ones enumerate and memoize.
    pub fn with_lazy_regions(ds: &'a ContinuousDataset<F>, regions: &'a LazyRegions<F>) -> Self {
        Self::over(ds, regions.k(), RegionSource::Lazy(regions))
    }

    /// The engine over the eager [`RegionCache`] of `ds` — the differential
    /// oracle. The cache is replayed in the stream's order with the
    /// stream's prune decisions, so the answers equal the other sources'.
    pub fn with_region_cache(ds: &'a ContinuousDataset<F>, cache: &'a RegionCache<F>) -> Self {
        Self::over(ds, cache.k(), RegionSource::Cache(cache))
    }

    fn over(ds: &'a ContinuousDataset<F>, k: OddK, source: RegionSource<'a, F>) -> Self {
        assert!(ds.len() >= k.get() as usize);
        L2Abductive { ds, k, source }
    }

    fn classifier(&self) -> ContinuousKnn<'a, F> {
        ContinuousKnn::new(self.ds, LpMetric::L2, self.k)
    }

    /// The polyhedra a counterexample for `x` must lie in, ordered once for
    /// every check on `x`.
    fn regions_for(&self, x: &[F]) -> QueryRegions<'a, F> {
        self.source.for_query(self.ds, self.k, x)
    }

    /// `k`-Check Sufficient Reason(ℝ, D₂) — polynomial for fixed k (Prop 3).
    pub fn check(&self, x: &[F], fixed: &[usize]) -> SrCheck<Vec<F>> {
        let regions = self.regions_for(x);
        self.check_over(x, fixed, regions.target(), regions.polyhedra())
    }

    /// The shared LP loop: first region of `polys` admitting a point of
    /// `U(X, x̄)` yields the counterexample. The polyhedra are used
    /// read-only; the affine restriction is applied per-LP.
    fn check_over<B: Borrow<Polyhedron<F>>>(
        &self,
        x: &[F],
        fixed: &[usize],
        target: Label,
        polys: impl IntoIterator<Item = B>,
    ) -> SrCheck<Vec<F>> {
        let fixed_vals: Vec<(usize, F)> = fixed.iter().map(|&i| (i, x[i].clone())).collect();
        for poly in polys {
            let poly = poly.borrow();
            let witness = match target {
                // The positive region is closed, so any feasible point works —
                // but a bisector-boundary point classifies by exact tie-break,
                // which the float instantiation cannot reproduce reliably.
                // Prefer an interior witness and keep the boundary fallback
                // for measure-zero cells.
                Label::Positive => poly
                    .strict_feasible_point_fixed(&fixed_vals)
                    .or_else(|| poly.feasible_point_fixed(&fixed_vals)),
                Label::Negative => poly.strict_feasible_point_fixed(&fixed_vals),
            };
            if let Some(w) = witness {
                if self.classifier().classify(&w) != target {
                    // Exact fields satisfy Prop 1 on the nose; a float LP can
                    // return a point a rounding error onto the wrong side of a
                    // bisector. Such a point certifies nothing — keep looking.
                    debug_assert!(!F::exact(), "exact witness must classify as target");
                    continue;
                }
                return SrCheck::NotSufficient { witness: w };
            }
        }
        SrCheck::Sufficient
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
            self.check_over(x, s, regions.target(), regions.polyhedra()).is_sufficient()
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
            |s| self.check_over(x, s, regions.target(), regions.polyhedra()),
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
