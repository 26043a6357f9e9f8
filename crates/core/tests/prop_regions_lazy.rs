//! Properties of the lazy Prop 1 region enumerator and of the ℓ2
//! explanation engines that read it, on random exact-rational instances:
//!
//! * the stream (canonical and query-ordered, unpruned) enumerates exactly
//!   the Prop 1 regions built here from bisector rows: same `(A, B)` specs,
//!   same rows;
//! * union membership of random points through the *pruned* stream matches
//!   `ContinuousKnn::classify` (closed semantics for Positive, strict for
//!   Negative), so pruning never loses a piece of a decision region;
//! * pruning soundness: every region the pruner skips is LP-verified — an
//!   `Empty` verdict means the (closed or strict) LP is infeasible, a
//!   `Dominated` verdict means the polyhedron is contained in its named
//!   dominator. A pruner that drops a feasible, uncovered region fails here;
//! * [`Combinations`] is exactly the lexicographic `r`-subset enumeration:
//!   `C(n, r)` items, strictly increasing, no duplicates;
//! * every ℓ2 explanation operation answers as the exhaustive oracle of
//!   `exhaustive/mod.rs` does, which walks every canonical region cold, and
//!   answers the same over a fresh stream per call and over a shared
//!   [`LazyRegions`] view, cold and warm;
//! * `closest`, the one-walk counterfactual the engine serves, returns the
//!   oracle's infimum and exactly the witness `within` answers at its
//!   radius, under radius rules on, just past, well past and below the
//!   infimum.

mod exhaustive;

use exhaustive::Exhaustive;
use knn_core::abductive::l2::L2Abductive;
use knn_core::abductive::minimum::HittingSetMode;
use knn_core::counterfactual::l2::L2Counterfactual;
use knn_core::regions::{
    bisector_row, prune_region, Combinations, LazyRegions, PruneReason, RegionSpec, RegionStream,
};
use knn_core::{ContinuousKnn, SrCheck};
use knn_lp::Rel;
use knn_num::field::norm_sq;
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
type Fingerprint = BTreeMap<RegionSpec, Vec<(Vec<Rat>, Rat)>>;

fn fingerprint<'a>(
    regions: impl Iterator<Item = (&'a Polyhedron<Rat>, RegionSpec)>,
) -> Fingerprint {
    regions.map(|(p, spec)| (spec, p.ineqs().to_vec())).collect()
}

/// The Prop 1 regions of `target`, built directly: for every anchor set
/// `A` of `maj` target points and excluded set `B` of `min` opposite
/// points, the rows `d(ȳ, ā) ≤ d(ȳ, c̄)` for `ā ∈ A` and `c̄ ∉ B`, anchor
/// by anchor.
fn prop1_regions(ds: &ContinuousDataset<Rat>, k: OddK, target: Label) -> Fingerprint {
    let same = ds.indices_of(target);
    let others = ds.indices_of(target.flip());
    let mut regions = Fingerprint::new();
    for a in Combinations::new(same.len(), k.majority()) {
        for b in Combinations::new(others.len(), k.minority().min(others.len())) {
            let anchors: Vec<usize> = a.iter().map(|&i| same[i]).collect();
            let excluded: Vec<usize> = b.iter().map(|&j| others[j]).collect();
            let mut rows = Vec::new();
            for &ai in &anchors {
                for &c in others.iter().filter(|c| !excluded.contains(c)) {
                    rows.push(bisector_row(ds.point(ai), ds.point(c)));
                }
            }
            regions.insert(RegionSpec { anchors, excluded }, rows);
        }
    }
    regions
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

/// An infimum's squared distance, closure witness and attainment.
type Infimum = (Rat, Vec<Rat>, bool);

/// Every ℓ2 operation's answer at one query point, over one engine pair.
#[derive(Debug, PartialEq)]
struct Answers {
    check: SrCheck<Vec<Rat>>,
    minimal: Vec<usize>,
    minimum: Vec<usize>,
    greedy_minimum: Vec<usize>,
    infimum: Option<Infimum>,
    within: Vec<Option<Vec<Rat>>>,
    /// Per [`RADIUS_RULES`] entry: `closest`'s infimum and witness, and the
    /// witness `within` answers at that rule's radius.
    closest: Vec<Option<(Infimum, Option<Vec<Rat>>, Option<Vec<Rat>>)>>,
}

/// Radius rules for `closest`: on the infimum (a negative target's open
/// region has no witness there), just past it, well past it, and below it
/// (the witness walk cannot be replayed and `within` decides).
const RADIUS_RULES: [fn(&Rat) -> Rat; 4] = [
    |d| d.clone(),
    |d| d.clone() + Rat::frac(1, 64),
    |d| d.clone() * Rat::from_int(2) + Rat::from_int(1),
    |d| d.clone() * Rat::frac(1, 2),
];

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
        closest: RADIUS_RULES
            .iter()
            .map(|rule| {
                let (inf, witness) = cf.closest(x, rule)?;
                let within = cf.within(x, &rule(&inf.dist_sq));
                Some(((inf.dist_sq, inf.closure_witness, inf.attained), witness, within))
            })
            .collect(),
    }
}

/// `got` against the exhaustive oracle at `x`.
fn matches_oracle(
    got: &Answers,
    oracle: &Exhaustive<'_>,
    x: &[Rat],
    fixed: &[usize],
    radii: &[Rat],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.check.is_sufficient(), oracle.sufficient(fixed), "check-SR verdict");
    if let SrCheck::NotSufficient { witness } = &got.check {
        prop_assert!(oracle.is_counterexample(witness, fixed), "counterexample {:?}", witness);
    }
    prop_assert_eq!(&got.minimal, &oracle.minimal(), "minimal-SR");
    let size = oracle.minimum_size();
    prop_assert_eq!(got.minimum.len(), size, "exact minimum-SR {:?}", got.minimum);
    prop_assert!(oracle.sufficient(&got.minimum), "exact minimum-SR {:?}", got.minimum);
    prop_assert!(
        got.greedy_minimum.len() >= size && oracle.sufficient(&got.greedy_minimum),
        "greedy minimum-SR {:?}",
        got.greedy_minimum
    );
    match (&got.infimum, oracle.infimum()) {
        (None, None) => {}
        (Some((dist_sq, closure_witness, attained)), Some(want)) => {
            prop_assert_eq!(dist_sq, want, "infimum");
            prop_assert_eq!(*attained, oracle.target() == Label::Positive, "attainment");
            prop_assert!(oracle.in_closure(closure_witness), "closure witness off the region");
            let gap: Vec<Rat> =
                x.iter().zip(closure_witness).map(|(a, b)| a.clone() - b.clone()).collect();
            prop_assert_eq!(&norm_sq(&gap), want, "closure witness off the infimum");
        }
        (got, want) => prop_assert!(false, "infimum {:?}, oracle {:?}", got, want),
    }
    for (r, w) in radii.iter().zip(&got.within) {
        prop_assert_eq!(w.is_some(), oracle.within(r), "within {}", r);
        if let Some(w) = w {
            prop_assert!(oracle.is_counterfactual(w, r), "counterfactual {:?} at {}", w, r);
        }
    }
    for (rule, closest) in RADIUS_RULES.iter().zip(&got.closest) {
        match (closest, oracle.infimum()) {
            (None, None) => {}
            (Some((inf, witness, within)), Some(want)) => {
                prop_assert_eq!(Some(inf), got.infimum.as_ref(), "closest's infimum");
                prop_assert_eq!(&inf.0, want, "closest's infimum");
                let r = rule(want);
                prop_assert_eq!(witness, within, "closest's witness vs within at {}", r);
                if let Some(w) = witness {
                    prop_assert!(
                        oracle.is_counterfactual(w, &r),
                        "counterfactual {:?} at {}",
                        w,
                        r
                    );
                }
            }
            (got, want) => prop_assert!(false, "closest {:?}, oracle {:?}", got, want),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every ℓ2 operation at k ∈ {1, 3, 5} answers as the exhaustive
    /// oracle: the check verdict on a random fixed set, with a valid
    /// counterexample; the greedy minimal reason; an exact minimum of the
    /// brute-force size, and a greedy one no smaller; the infimum, attained
    /// for a positive target, with its closure witness on the region at that
    /// distance; `within` at radii below, on and past the infimum, with
    /// valid witnesses; and `closest`'s infimum and witness under every
    /// radius rule. A shared lazy view answers identically to the fresh
    /// per-call stream, cold and then warm.
    #[test]
    fn engines_match_the_exhaustive_oracle(inst in instance_strategy(), mask in any::<u8>()) {
        let ds = dataset(&inst);
        let k = k_of(&inst);
        let fixed: Vec<usize> = (0..ds.dim()).filter(|i| mask >> i & 1 == 1).collect();
        let stream_ab = L2Abductive::new(&ds, k);
        let stream_cf = L2Counterfactual::new(&ds, k);
        for q in &inst.queries {
            let x = to_rat(q);
            let oracle = Exhaustive::new(&ds, k, &x);
            let mut radii = vec![Rat::frac(1, 4), Rat::from_int(1), Rat::from_int(4)];
            if let Some(inf) = oracle.infimum() {
                radii.push(inf.clone());
                radii.push(inf.clone() + Rat::frac(1, 64));
            }
            let stream = answers(&stream_ab, &stream_cf, &x, &fixed, &radii);
            matches_oracle(&stream, &oracle, &x, &fixed, &radii).map_err(|e| {
                TestCaseError::Fail(format!("at {x:?}, X = {fixed:?}, k = {k:?}: {e:?}"))
            })?;
            let lazy = LazyRegions::new(&ds, k);
            let lazy_ab = L2Abductive::with_lazy_regions(&ds, &lazy);
            let lazy_cf = L2Counterfactual::with_lazy_regions(&ds, &lazy);
            for pass in ["cold", "warm"] {
                let got = answers(&lazy_ab, &lazy_cf, &x, &fixed, &radii);
                prop_assert_eq!(&got, &stream, "{} lazy view vs stream at {:?}", pass, x);
            }
        }
    }

    /// The canonical stream enumerates exactly the Prop 1 regions built
    /// from bisector rows, polyhedron for polyhedron, and the
    /// query-ordered, unpruned stream permutes that set.
    #[test]
    fn streams_enumerate_every_prop1_region(inst in instance_strategy()) {
        let ds = dataset(&inst);
        let k = k_of(&inst);
        for target in [Label::Positive, Label::Negative] {
            let want = prop1_regions(&ds, k, target);
            let canonical: Vec<_> = RegionStream::canonical(&ds, k, target).collect();
            let lazy = fingerprint(canonical.iter().map(|(p, s)| (&**p, s.clone())));
            prop_assert_eq!(&want, &lazy, "canonical stream vs Prop 1 ({:?})", target);

            let x = to_rat(&inst.queries[0]);
            let ordered: Vec<_> =
                RegionStream::new(&ds, k, target, Some(&x), false, None).collect();
            let lazy_ordered = fingerprint(ordered.iter().map(|(p, s)| (&**p, s.clone())));
            prop_assert_eq!(&want, &lazy_ordered, "query ordering must permute, not change");
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
