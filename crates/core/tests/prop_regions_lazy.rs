//! Differential properties of the lazy Prop 1 region enumerator against the
//! eager [`RegionCache`] oracle, on random exact-rational instances:
//!
//! * the lazy stream (canonical and query-ordered, unpruned) enumerates
//!   exactly the oracle's region set — same `(A, B)` specs, same rows;
//! * union membership of random points through the *pruned* stream matches
//!   `ContinuousKnn::classify` (closed semantics for Positive, strict for
//!   Negative), so pruning never loses a piece of a decision region;
//! * pruning soundness: every region the pruner skips is LP-verified — an
//!   `Empty` verdict means the (closed or strict) LP is infeasible, a
//!   `Dominated` verdict means the polyhedron is contained in its named
//!   dominator. A pruner that drops a feasible, uncovered region fails here;
//! * [`Combinations`] is exactly the lexicographic `r`-subset enumeration:
//!   `C(n, r)` items, strictly increasing, no duplicates;
//! * every ℓ2 explanation operation answers the same over each region
//!   source an engine can be built on: a fresh stream per call, a shared
//!   [`LazyRegions`] view (cold and warm), and the [`RegionCache`] oracle.

use knn_core::abductive::l2::L2Abductive;
use knn_core::abductive::minimum::HittingSetMode;
use knn_core::counterfactual::l2::L2Counterfactual;
use knn_core::regions::{
    prune_region, Combinations, LazyRegions, PruneReason, RegionCache, RegionSpec, RegionStream,
};
use knn_core::{ContinuousKnn, SrCheck};
use knn_lp::Rel;
use knn_num::Rat;
use knn_qp::Polyhedron;
use knn_space::{ContinuousDataset, Label, LpMetric, OddK};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
struct Instance {
    pos: Vec<Vec<i64>>,
    neg: Vec<Vec<i64>>,
    k_choice: usize, // index into {1, 3, 5}, clamped to the dataset size
    queries: Vec<Vec<i64>>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (1..=3usize).prop_flat_map(|dim| {
        let pt = || prop::collection::vec(-3i64..=3, dim);
        (
            prop::collection::vec(pt(), 1..=4),
            prop::collection::vec(pt(), 1..=4),
            0..3usize,
            prop::collection::vec(pt(), 1..=3),
        )
            .prop_map(move |(pos, neg, k_choice, queries)| Instance {
                pos,
                neg,
                k_choice,
                queries,
            })
    })
}

fn to_rat(v: &[i64]) -> Vec<Rat> {
    v.iter().map(|&a| Rat::from_int(a)).collect()
}

fn dataset(inst: &Instance) -> ContinuousDataset<Rat> {
    ContinuousDataset::from_sets(
        inst.pos.iter().map(|p| to_rat(p)).collect(),
        inst.neg.iter().map(|p| to_rat(p)).collect(),
    )
}

/// The largest k among {1, 3, 5} at the chosen index that the dataset size
/// admits.
fn k_of(inst: &Instance) -> OddK {
    let n = inst.pos.len() + inst.neg.len();
    let want = [1u32, 3, 5][inst.k_choice];
    OddK::of((1..=want).rev().find(|k| k % 2 == 1 && *k as usize <= n).unwrap_or(1))
}

/// A comparable fingerprint of one region: its spec plus its rows.
type Fingerprint = BTreeMap<RegionSpec, (Vec<(Vec<Rat>, Rat)>, Vec<(Vec<Rat>, Rat)>)>;

fn fingerprint<'a>(
    regions: impl Iterator<Item = (&'a Polyhedron<Rat>, RegionSpec)>,
) -> Fingerprint {
    regions.map(|(p, spec)| (spec, (p.ineqs().to_vec(), p.eqs().to_vec()))).collect()
}

/// `P ⊆ Q` in the region's own semantics, verified by LP. Closed: no point
/// of `P` strictly violates a row of `Q`. Strict (the Negative region's open
/// semantics): no interior point of `P` lies on or beyond a row of `Q` —
/// this is the stronger claim a dominance prune must certify there, since
/// closed containment does not imply interior containment.
fn contained_in(p: &Polyhedron<Rat>, q: &Polyhedron<Rat>, strict: bool) -> bool {
    q.ineqs().iter().all(|(g, h)| {
        let mut lp = if strict { p.to_strict_lp() } else { p.to_lp() };
        lp.add_dense(g, if strict { Rel::Ge } else { Rel::Gt }, h.clone());
        lp.strict_feasible().is_none()
    })
}

/// Every ℓ2 operation's answer at one query point, over one region source.
#[derive(Debug, PartialEq)]
struct Answers {
    check: SrCheck<Vec<Rat>>,
    minimal: Vec<usize>,
    minimum: Vec<usize>,
    greedy_minimum: Vec<usize>,
    /// The infimum's squared distance, closure witness and attainment.
    infimum: Option<(Rat, Vec<Rat>, bool)>,
    within: Vec<Option<Vec<Rat>>>,
}

fn answers(
    ab: &L2Abductive<'_, Rat>,
    cf: &L2Counterfactual<'_, Rat>,
    x: &[Rat],
    fixed: &[usize],
    radii: &[Rat],
) -> Answers {
    Answers {
        check: ab.check(x, fixed),
        minimal: ab.minimal(x),
        minimum: ab.minimum_with(x, HittingSetMode::Exact),
        greedy_minimum: ab.minimum_with(x, HittingSetMode::Greedy),
        infimum: cf.infimum(x).map(|i| (i.dist_sq, i.closure_witness, i.attained)),
        within: radii.iter().map(|r| cf.within(x, r)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three region sources give equal answers to every operation at
    /// k ∈ {1, 3}: check on a random fixed set, minimal, exact and greedy
    /// minimum, infimum, and within at radii below, on and past the
    /// infimum. The lazy view answers twice, cold then warm.
    #[test]
    fn region_sources_give_equal_answers(inst in instance_strategy(), mask in any::<u8>()) {
        let ds = dataset(&inst);
        let k = OddK::of(k_of(&inst).get().min(3));
        let fixed: Vec<usize> = (0..ds.dim()).filter(|i| mask >> i & 1 == 1).collect();
        let cache = RegionCache::build(&ds, k);
        let oracle_ab = L2Abductive::with_region_cache(&ds, &cache);
        let oracle_cf = L2Counterfactual::with_region_cache(&ds, &cache);
        for q in &inst.queries {
            let x = to_rat(q);
            let stream_cf = L2Counterfactual::new(&ds, k);
            let mut radii = vec![Rat::frac(1, 4), Rat::from_int(1), Rat::from_int(4)];
            if let Some(inf) = stream_cf.infimum(&x) {
                radii.push(inf.dist_sq.clone());
                radii.push(inf.dist_sq + Rat::frac(1, 64));
            }
            let stream =
                answers(&L2Abductive::new(&ds, k), &stream_cf, &x, &fixed, &radii);
            let oracle = answers(&oracle_ab, &oracle_cf, &x, &fixed, &radii);
            prop_assert_eq!(&stream, &oracle, "stream vs oracle at {:?}, k = {:?}", x, k);
            let lazy = LazyRegions::new(&ds, k);
            let lazy_ab = L2Abductive::with_lazy_regions(&ds, &lazy);
            let lazy_cf = L2Counterfactual::with_lazy_regions(&ds, &lazy);
            for pass in ["cold", "warm"] {
                let got = answers(&lazy_ab, &lazy_cf, &x, &fixed, &radii);
                prop_assert_eq!(&got, &oracle, "{} lazy view vs oracle at {:?}", pass, x);
            }
        }
    }

    /// Lazy enumeration (canonical and query-ordered, unpruned) produces
    /// exactly the eager oracle's region set, polyhedron for polyhedron.
    #[test]
    fn lazy_region_set_equals_eager_oracle(inst in instance_strategy()) {
        let ds = dataset(&inst);
        let k = k_of(&inst);
        let cache = RegionCache::build(&ds, k);
        for target in [Label::Positive, Label::Negative] {
            let eager = fingerprint(
                cache.entries(target).iter().map(|(p, s)| (p, s.clone())),
            );
            let canonical: Vec<_> = RegionStream::canonical(&ds, k, target).collect();
            let lazy = fingerprint(canonical.iter().map(|(p, s)| (&**p, s.clone())));
            prop_assert_eq!(&eager, &lazy, "canonical stream vs oracle ({:?})", target);

            let x = to_rat(&inst.queries[0]);
            let ordered: Vec<_> =
                RegionStream::new(&ds, k, target, Some(&x), false, None).collect();
            let lazy_ordered = fingerprint(ordered.iter().map(|(p, s)| (&**p, s.clone())));
            prop_assert_eq!(&eager, &lazy_ordered, "query ordering must permute, not change");
        }
    }

    /// Union membership through the pruned, query-ordered, memoized stream
    /// matches the classifier: closed membership for the Positive region,
    /// strict for the Negative one. Run twice per point so the second pass
    /// exercises the memo.
    #[test]
    fn pruned_union_membership_matches_classifier(inst in instance_strategy()) {
        let ds = dataset(&inst);
        let k = k_of(&inst);
        let knn = ContinuousKnn::new(&ds, LpMetric::L2, k);
        let lazy = LazyRegions::new(&ds, k);
        for q in &inst.queries {
            let x = to_rat(q);
            let label = knn.classify(&x);
            for _pass in 0..2 {
                let in_pos =
                    lazy.stream(Label::Positive, &x).any(|(p, _)| p.contains(&x));
                let in_neg =
                    lazy.stream(Label::Negative, &x).any(|(p, _)| p.contains_strictly(&x));
                prop_assert_eq!(label == Label::Positive, in_pos,
                    "positive union mismatch at {:?}", x);
                prop_assert_eq!(label == Label::Negative, in_neg,
                    "negative union mismatch at {:?}", x);
            }
        }
    }

    /// Every pruner verdict is LP-verified: `Empty` regions are infeasible
    /// (closed for Positive targets, strictly for Negative ones), and
    /// `Dominated` regions are contained in their named dominator, which the
    /// enumeration must actually carry. A pruner that drops a feasible,
    /// uncovered polyhedron fails this test.
    #[test]
    fn pruner_is_sound(inst in instance_strategy()) {
        let ds = dataset(&inst);
        let k = k_of(&inst);
        for target in [Label::Positive, Label::Negative] {
            let all: BTreeMap<RegionSpec, Polyhedron<Rat>> =
                RegionStream::canonical(&ds, k, target)
                    .map(|(p, s)| (s, (*p).clone()))
                    .collect();
            for (spec, poly) in &all {
                match prune_region(&ds, target, &spec.anchors, &spec.excluded) {
                    None => {}
                    Some(PruneReason::Empty) => {
                        let feasible = match target {
                            Label::Positive => poly.feasible_point().is_some(),
                            Label::Negative => poly.strict_feasible_point().is_some(),
                        };
                        prop_assert!(!feasible,
                            "pruner claimed empty but LP found a point: {:?}", spec);
                    }
                    Some(PruneReason::Dominated(dom)) => {
                        let dom_poly = all.get(&dom);
                        prop_assert!(dom_poly.is_some(),
                            "dominator {:?} is not a region of the union", dom);
                        let strict = target == Label::Negative;
                        prop_assert!(contained_in(poly, dom_poly.unwrap(), strict),
                            "pruner claimed {:?} ⊆ {:?} but LP disagrees", spec, dom);
                    }
                }
            }
        }
    }

    /// `Combinations::new(n, r)` is the lexicographic enumeration of all
    /// `r`-subsets of `0..n`: `C(n, r)` of them, strictly increasing both
    /// within and across items, no duplicates.
    #[test]
    fn combinations_are_lexicographic_and_complete(n in 0..=8usize, r in 0..=9usize) {
        let all: Vec<Vec<usize>> = Combinations::new(n, r).collect();
        let binom = |n: usize, r: usize| -> usize {
            if r > n {
                return 0;
            }
            (0..r).fold(1usize, |acc, i| acc * (n - i) / (i + 1))
        };
        prop_assert_eq!(all.len(), binom(n, r));
        for c in &all {
            prop_assert_eq!(c.len(), r);
            prop_assert!(c.windows(2).all(|w| w[0] < w[1]), "not strictly increasing: {:?}", c);
            prop_assert!(c.iter().all(|&i| i < n), "out of range: {:?}", c);
        }
        for w in all.windows(2) {
            prop_assert!(w[0] < w[1], "not lexicographically sorted: {:?} !< {:?}", w[0], w[1]);
        }
    }

    /// The nearest-anchor-first order is really sorted by the anchor key:
    /// the emitted sequence's `Σ d²(x, A)` values are non-decreasing.
    #[test]
    fn query_order_is_sorted_by_anchor_distance(inst in instance_strategy()) {
        let ds = dataset(&inst);
        let k = k_of(&inst);
        let x = to_rat(&inst.queries[0]);
        for target in [Label::Positive, Label::Negative] {
            let keys: Vec<Rat> = RegionStream::new(&ds, k, target, Some(&x), false, None)
                .map(|(_, spec)| knn_core::regions::anchor_key(&ds, &x, &spec.anchors))
                .collect();
            prop_assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "anchor keys not sorted: {:?}",
                keys.iter().map(|r| r.to_f64()).collect::<Vec<_>>()
            );
        }
    }
}
