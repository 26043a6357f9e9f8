//! Property tests for the paper-facing semantics: the order-statistic
//! classifier vs the literal subset definition (§2), permutation
//! equivariance, sufficient-reason monotonicity, and SAT/brute counterfactual
//! agreement — all on arbitrary small discrete instances.

use knn_core::classifier::subset_definition_label;
use knn_core::counterfactual::hamming::closest_sat;
use knn_core::{brute, BooleanKnn, ContinuousKnn, OddK};
use knn_num::Rat;
use knn_space::{kth_smallest, BitVec, BooleanDataset, ContinuousDataset, Label, LpMetric};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Instance {
    dim: usize,
    points: Vec<(Vec<bool>, bool)>, // (bits, is_positive)
    x: Vec<bool>,
    k3: bool,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2..=5usize).prop_flat_map(|dim| {
        (
            prop::collection::vec(
                (prop::collection::vec(any::<bool>(), dim), any::<bool>()),
                3..=7,
            ),
            prop::collection::vec(any::<bool>(), dim),
            any::<bool>(),
        )
            .prop_map(move |(points, x, k3)| Instance { dim, points, x, k3 })
    })
}

fn dataset(inst: &Instance) -> BooleanDataset {
    let mut ds = BooleanDataset::new(inst.dim);
    for (bits, pos) in &inst.points {
        ds.push(BitVec::from_bools(bits), if *pos { Label::Positive } else { Label::Negative });
    }
    ds
}

/// The rule before bounded selection, kept as the oracle: collect each
/// class's keys, sort them, index the `maj`-th.
fn sort_then_index<D: PartialOrd + Clone>(keys: &[(D, Label)], k: OddK) -> Label {
    let maj = k.majority();
    let class = |label| {
        let mut v: Vec<D> =
            keys.iter().filter(|(_, l)| *l == label).map(|(d, _)| d.clone()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.get(maj - 1).cloned()
    };
    match (class(Label::Positive), class(Label::Negative)) {
        (Some(rp), Some(rn)) if rp <= rn => Label::Positive,
        (Some(_), Some(_)) | (None, Some(_)) => Label::Negative,
        (Some(_), None) => Label::Positive,
        (None, None) => unreachable!("strategy keeps both classes at k points"),
    }
}

/// Tie-heavy 1-D and 2-D points: coordinates from a handful of halves, so
/// equal distances (and equal order statistics across classes) are common.
fn tied_points() -> impl Strategy<Value = (Vec<(Vec<i64>, bool)>, Vec<i64>, u32, u32)> {
    (
        prop::collection::vec((prop::collection::vec(-3i64..=3, 2), any::<bool>()), 7..=24),
        prop::collection::vec(-3i64..=3, 2),
        prop::sample::select(vec![1u32, 3, 5, 7]),
        1u32..=3,
    )
}

fn k_of(inst: &Instance) -> OddK {
    if inst.k3 && inst.points.len() >= 3 {
        OddK::THREE
    } else {
        OddK::ONE
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The order-statistic rule equals the paper's literal subset definition.
    #[test]
    fn classifier_matches_subset_definition(inst in instance_strategy()) {
        let ds = dataset(&inst);
        let k = k_of(&inst);
        let x = BitVec::from_bools(&inst.x);
        let knn = BooleanKnn::new(&ds, k);
        let dists: Vec<(usize, Label)> =
            ds.iter().map(|(p, l)| (p.hamming(&x), l)).collect();
        prop_assert_eq!(knn.classify(&x), subset_definition_label(&dists, k));
    }

    /// Permuting the coordinates of every vector leaves the label unchanged.
    #[test]
    fn classification_is_permutation_equivariant(inst in instance_strategy(), seed in any::<u64>()) {
        let k = k_of(&inst);
        let perm = {
            // Fisher–Yates with a deterministic xorshift.
            let mut p: Vec<usize> = (0..inst.dim).collect();
            let mut s = seed | 1;
            for i in (1..p.len()).rev() {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                p.swap(i, (s as usize) % (i + 1));
            }
            p
        };
        let apply = |bits: &[bool]| -> Vec<bool> {
            (0..bits.len()).map(|i| bits[perm[i]]).collect()
        };
        let ds = dataset(&inst);
        let mut permuted = Instance { points: vec![], ..inst.clone() };
        for (bits, pos) in &inst.points {
            permuted.points.push((apply(bits), *pos));
        }
        permuted.x = apply(&inst.x);
        let dsp = dataset(&permuted);
        let a = BooleanKnn::new(&ds, k).classify(&BitVec::from_bools(&inst.x));
        let b = BooleanKnn::new(&dsp, k).classify(&BitVec::from_bools(&permuted.x));
        prop_assert_eq!(a, b);
    }

    /// Supersets of sufficient reasons are sufficient; subsets of
    /// insufficient sets are insufficient (monotonicity of Check-SR).
    #[test]
    fn sufficient_reasons_are_monotone(inst in instance_strategy(), mask in any::<u8>()) {
        let ds = dataset(&inst);
        let k = k_of(&inst);
        let x = BitVec::from_bools(&inst.x);
        let knn = BooleanKnn::new(&ds, k);
        let set: Vec<usize> = (0..inst.dim).filter(|i| (mask >> i) & 1 == 1).collect();
        let sufficient = brute::is_sufficient_reason(&knn, &x, &set);
        if sufficient {
            let sup: Vec<usize> = (0..inst.dim).collect();
            prop_assert!(brute::is_sufficient_reason(&knn, &x, &sup));
        } else if !set.is_empty() {
            let sub = &set[..set.len() - 1];
            // Removing an element cannot make an insufficient set sufficient.
            prop_assert!(!brute::is_sufficient_reason(&knn, &x, sub)
                || brute::is_sufficient_reason(&knn, &x, &set));
        }
    }

    /// SAT counterfactuals match the exhaustive oracle on distance and both
    /// return genuinely flipped witnesses.
    #[test]
    fn sat_counterfactual_matches_brute(inst in instance_strategy()) {
        let ds = dataset(&inst);
        let k = k_of(&inst);
        let x = BitVec::from_bools(&inst.x);
        let knn = BooleanKnn::new(&ds, k);
        let label = knn.classify(&x);
        match (closest_sat(&ds, k, &x), brute::closest_counterfactual(&knn, &x)) {
            (None, None) => {}
            (Some((z, d)), Some((_, bd))) => {
                prop_assert_eq!(d, bd);
                prop_assert_eq!(knn.classify(&z), label.flip());
                prop_assert_eq!(x.hamming(&z), d);
            }
            (a, b) => prop_assert!(false, "SAT {a:?} vs brute {b:?}"),
        }
    }

    /// Bounded selection returns the same order statistic as sorting every
    /// key and indexing — on integer-valued f64 keys with many ties and on
    /// exact rationals — for k ∈ {1, 3, 5, 7} and past the stream's end.
    #[test]
    fn bounded_selection_equals_sort_then_index(
        raw in prop::collection::vec(0i64..6, 0..40),
        k in prop::sample::select(vec![1usize, 3, 5, 7]),
    ) {
        let sorted_kth = |mut v: Vec<Rat>| {
            v.sort();
            v.get(k - 1).cloned()
        };
        let floats: Vec<f64> = raw.iter().map(|&v| v as f64 * 0.25).collect();
        let mut fsorted = floats.clone();
        fsorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(kth_smallest(floats.iter().copied(), k), fsorted.get(k - 1).copied());
        let rats: Vec<Rat> = raw.iter().map(|&v| Rat::frac(v, 3)).collect();
        prop_assert_eq!(kth_smallest(rats.iter().cloned(), k), sorted_kth(rats));
    }

    /// The classifiers, which now select instead of sort, agree with the
    /// sort-then-index rule over f64 and `Rat` datasets full of ties.
    #[test]
    fn classifier_equals_sort_then_index((points, x, k, p) in tied_points()) {
        let k = OddK::of(k);
        let metric = LpMetric::new(p);
        let mut f = ContinuousDataset::new(2);
        let mut r = ContinuousDataset::new(2);
        for (c, pos) in &points {
            let label = if *pos { Label::Positive } else { Label::Negative };
            f.push(c.iter().map(|&v| v as f64 * 0.5).collect(), label);
            r.push(c.iter().map(|&v| Rat::frac(v, 2)).collect(), label);
        }
        prop_assume!(f.count_of(Label::Positive).max(f.count_of(Label::Negative)) >= k.majority());
        let xf: Vec<f64> = x.iter().map(|&v| v as f64 * 0.5).collect();
        let xr: Vec<Rat> = x.iter().map(|&v| Rat::frac(v, 2)).collect();
        let fkeys: Vec<(f64, Label)> = f.iter().map(|(q, l)| (metric.dist_pow(&xf, q), l)).collect();
        let rkeys: Vec<(Rat, Label)> = r.iter().map(|(q, l)| (metric.dist_pow(&xr, q), l)).collect();
        prop_assert_eq!(ContinuousKnn::new(&f, metric, k).classify(&xf), sort_then_index(&fkeys, k));
        prop_assert_eq!(ContinuousKnn::new(&r, metric, k).classify(&xr), sort_then_index(&rkeys, k));
    }
}
