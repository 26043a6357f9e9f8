//! Failure injection and degenerate-input behavior across the public API:
//! duplicated points, ties everywhere, one-dimensional spaces, queries that
//! coincide with training points, constant labels, and k equal to the
//! dataset size. The paper's optimistic tie-breaking makes several of these
//! well-defined where naive k-NN would be ambiguous — these tests pin that
//! behavior.

use explainable_knn::core::counterfactual::lp_general::LpGeneralCounterfactual;
use explainable_knn::core::{brute, counterfactual};
use explainable_knn::prelude::*;

#[test]
fn duplicated_points_act_as_multiplicity() {
    // Two copies of a positive at distance 1 outvote one negative at the
    // same distance for k = 3 (the ball characterization counts points, not
    // distinct locations).
    let ds = BooleanDataset::from_sets(
        vec![BitVec::from_bits(&[1, 0, 0]), BitVec::from_bits(&[1, 0, 0])],
        vec![BitVec::from_bits(&[0, 1, 0])],
    );
    let knn = BooleanKnn::new(&ds, OddK::THREE);
    assert_eq!(knn.classify(&BitVec::zeros(3)), Label::Positive);
}

#[test]
fn exact_tie_resolves_positively() {
    // One positive and one negative, both at Hamming distance 1: the
    // optimistic rule classifies positive.
    let ds = BooleanDataset::from_sets(
        vec![BitVec::from_bits(&[1, 0])],
        vec![BitVec::from_bits(&[0, 1])],
    );
    let knn = BooleanKnn::new(&ds, OddK::ONE);
    assert_eq!(knn.classify(&BitVec::zeros(2)), Label::Positive);
    // And symmetrically in the continuous setting under ℓ2.
    let cds = ContinuousDataset::from_sets(vec![vec![1.0, 0.0]], vec![vec![0.0, 1.0]]);
    let cknn = ContinuousKnn::new(&cds, LpMetric::L2, OddK::ONE);
    assert_eq!(cknn.classify(&[0.0, 0.0]), Label::Positive);
}

#[test]
fn query_on_a_training_point_still_has_counterfactuals() {
    let ds = BooleanDataset::from_sets(
        vec![BitVec::from_bits(&[1, 1, 1])],
        vec![BitVec::from_bits(&[0, 0, 0])],
    );
    let x = BitVec::from_bits(&[1, 1, 1]);
    let (cf, d) = counterfactual::hamming::closest_sat(&ds, OddK::ONE, &x).unwrap();
    assert_eq!(d, 2, "must cross the midpoint: 2 of 3 bits");
    assert_eq!(BooleanKnn::new(&ds, OddK::ONE).classify(&cf), Label::Negative);
}

#[test]
fn constant_label_has_no_counterfactual_and_empty_reason() {
    let mut ds = BooleanDataset::new(4);
    for bits in [[1u8, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]] {
        ds.push(BitVec::from_bits(&bits), Label::Positive);
    }
    let x = BitVec::zeros(4);
    assert!(counterfactual::hamming::closest_sat(&ds, OddK::ONE, &x).is_none());
    // The empty set suffices: every completion is positive.
    let ab = HammingAbductive::new(&ds, OddK::ONE);
    assert!(ab.is_sufficient(&x, &[]));
    assert!(ab.minimal(&x).is_empty());
    assert!(ab.minimum(&x).is_empty());
}

#[test]
fn k_equal_to_dataset_size_is_majority_vote() {
    // With k = |S|, classification is the global majority regardless of x.
    let ds = BooleanDataset::from_sets(
        vec![
            BitVec::from_bits(&[1, 1, 1, 1]),
            BitVec::from_bits(&[1, 1, 1, 0]),
            BitVec::from_bits(&[1, 1, 0, 0]),
        ],
        vec![BitVec::from_bits(&[0, 0, 0, 0]), BitVec::from_bits(&[0, 0, 0, 1])],
    );
    let knn = BooleanKnn::new(&ds, OddK::of(5));
    for bits in [[0u8, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1]] {
        assert_eq!(knn.classify(&BitVec::from_bits(&bits)), Label::Positive);
    }
    // Hence no counterfactual exists at all.
    assert!(counterfactual::hamming::closest_sat(&ds, OddK::of(5), &BitVec::zeros(4)).is_none());
}

#[test]
fn one_dimensional_continuous_explanations() {
    let ds = ContinuousDataset::from_sets(vec![vec![1.0]], vec![vec![-1.0]]);
    let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::ONE);
    assert_eq!(knn.classify(&[0.25]), Label::Positive);
    let cf = L2Counterfactual::new(&ds, OddK::ONE);
    let inf = cf.infimum(&[0.25]).unwrap();
    // Boundary at 0: distance 0.25, open side (strictly negative needed).
    assert!((inf.dist_sq.sqrt() - 0.25).abs() < 1e-9);
    assert!(!inf.attained);
    // The only sufficient reason is the single feature itself.
    let ab = L2Abductive::new(&ds, OddK::ONE);
    assert!(!ab.is_sufficient(&[0.25], &[]));
    assert!(ab.is_sufficient(&[0.25], &[0]));
}

#[test]
fn zero_weight_and_full_weight_queries() {
    // All-zeros and all-ones queries on random-ish data: every engine must
    // return *consistent* answers (SAT vs MILP vs brute).
    let ds = BooleanDataset::from_sets(
        vec![BitVec::from_bits(&[1, 0, 1, 1, 0]), BitVec::from_bits(&[0, 1, 1, 0, 1])],
        vec![BitVec::from_bits(&[0, 0, 0, 1, 0]), BitVec::from_bits(&[1, 1, 0, 0, 0])],
    );
    for x in [BitVec::zeros(5), BitVec::ones(5)] {
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        let sat = counterfactual::hamming::closest_sat(&ds, OddK::ONE, &x);
        let milp = counterfactual::hamming::closest_milp(&ds, &x);
        let brute = brute::closest_counterfactual(&knn, &x);
        assert_eq!(sat.as_ref().map(|(_, d)| *d), brute.as_ref().map(|(_, d)| *d));
        assert_eq!(milp.as_ref().map(|(_, d)| *d), brute.as_ref().map(|(_, d)| *d));
    }
}

#[test]
fn lp_general_handles_constant_labels_and_zero_distance() {
    // Constant label: no counterfactual.
    let ds = ContinuousDataset::from_sets(vec![vec![0.0, 0.0], vec![1.0, 1.0]], vec![]);
    let eng = LpGeneralCounterfactual::new(&ds, LpMetric::new(3), OddK::ONE);
    assert!(eng.closest(&[0.5, 0.5]).is_none());

    // Query sitting exactly on the opposite-class point: the optimum is at
    // some positive distance (the classifier at the anchor itself may or may
    // not flip), but the heuristic must not panic and must return a valid
    // witness if any.
    let ds = ContinuousDataset::from_sets(vec![vec![0.0, 0.0]], vec![vec![1.0, 0.0]]);
    let eng = LpGeneralCounterfactual::new(&ds, LpMetric::new(3), OddK::ONE);
    if let Some(w) = eng.closest(&[1.0, 0.0]) {
        let knn = ContinuousKnn::new(&ds, LpMetric::new(3), OddK::ONE);
        assert_eq!(knn.classify(&w.point), w.target);
    }
}

#[test]
fn minimum_sr_agrees_with_brute_force_on_exhaustive_small_cube() {
    // Exhaustive: every labeling of {0,1}³ by a parity-ish rule, every query.
    let dim = 3usize;
    for rule in 0..4u8 {
        let mut ds = BooleanDataset::new(dim);
        for m in 0..(1u8 << dim) {
            let bits: Vec<u8> = (0..dim).map(|i| (m >> i) & 1).collect();
            let pos = match rule {
                0 => bits.iter().sum::<u8>() % 2 == 0,
                1 => bits[0] == 1,
                2 => bits.iter().sum::<u8>() >= 2,
                _ => bits[0] != bits[2],
            };
            ds.push(BitVec::from_bits(&bits), if pos { Label::Positive } else { Label::Negative });
        }
        let ab = HammingAbductive::new(&ds, OddK::ONE);
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        for m in 0..(1u8 << dim) {
            let x = BitVec::from_bits(&(0..dim).map(|i| (m >> i) & 1).collect::<Vec<_>>());
            let exact = ab.minimum(&x);
            let brute_min = brute::minimum_sufficient_reason(&knn, &x);
            assert_eq!(exact.len(), brute_min.len(), "rule {rule}, x {x}");
            assert!(brute::is_sufficient_reason(&knn, &x, &exact));
        }
    }
}

/// Asserts that `reason` is a sufficient reason for `x` and that dropping any
/// one of its features is not, both by enumerating completions.
fn assert_brute_minimal(knn: &BooleanKnn<'_>, x: &BitVec, reason: &[usize]) {
    assert!(brute::is_sufficient_reason(knn, x, reason), "x {x}: {reason:?} not sufficient");
    for &i in reason {
        let smaller: Vec<usize> = reason.iter().copied().filter(|&j| j != i).collect();
        assert!(
            !brute::is_sufficient_reason(knn, x, &smaller),
            "x {x}: {reason:?} not minimal, {i} can go"
        );
    }
}

#[test]
fn k1_minimal_reason_with_points_in_both_classes() {
    // Every point of {0,1}⁴, labeled by a majority rule, plus copies of a
    // few of them with the other label: at distance 0 the copies tie, and
    // the positive one wins.
    let dim = 4usize;
    let mut ds = BooleanDataset::new(dim);
    for m in 0..(1u8 << dim) {
        let bits: Vec<u8> = (0..dim).map(|i| (m >> i) & 1).collect();
        let pos = bits.iter().sum::<u8>() >= 2;
        let label = if pos { Label::Positive } else { Label::Negative };
        ds.push(BitVec::from_bits(&bits), label);
        if m % 3 == 0 {
            ds.push(BitVec::from_bits(&bits), label.flip());
        }
    }
    let ab = HammingAbductive::new(&ds, OddK::ONE);
    let knn = BooleanKnn::new(&ds, OddK::ONE);
    for m in 0..(1u8 << dim) {
        let x = BitVec::from_bits(&(0..dim).map(|i| (m >> i) & 1).collect::<Vec<_>>());
        assert_brute_minimal(&knn, &x, &ab.minimal(&x));
    }
}

#[test]
fn k1_minimal_reason_when_the_query_is_a_training_point() {
    let pos = [[1u8, 1, 0, 1, 0, 0], [0, 1, 1, 0, 1, 1], [1, 0, 0, 0, 1, 0]];
    let neg = [[0u8, 0, 1, 1, 0, 1], [1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 0, 1]];
    let ds = BooleanDataset::from_sets(
        pos.iter().map(|b| BitVec::from_bits(b)).collect(),
        neg.iter().map(|b| BitVec::from_bits(b)).collect(),
    );
    let ab = HammingAbductive::new(&ds, OddK::ONE);
    let knn = BooleanKnn::new(&ds, OddK::ONE);
    for bits in pos.iter().chain(neg.iter()) {
        let x = BitVec::from_bits(bits);
        assert_brute_minimal(&knn, &x, &ab.minimal(&x));
    }
}

#[test]
fn k1_minimal_reason_tie_rule_across_word_boundaries() {
    // x̄ = 0 sits on a training point; the only other point differs from it
    // on `support`, which spans three u64 words and the last word's tail
    // bits. Leaving t support features free lets a completion be t closer to
    // the other point and t farther from x̄'s own, so it flips when 4 − t < t
    // for a positive x̄ (ties stay positive) and when 4 − t ≤ t for a
    // negative one: a minimal reason fixes 2 or 3 of the support features.
    let dim = 130usize;
    let support = [5usize, 64, 127, 129];
    let x = BitVec::zeros(dim);
    let mut other = BitVec::zeros(dim);
    for &i in &support {
        other.set(i, true);
    }
    for (x_label, want) in [(Label::Positive, 2usize), (Label::Negative, 3)] {
        let mut ds = BooleanDataset::new(dim);
        ds.push(x.clone(), x_label);
        ds.push(other.clone(), x_label.flip());
        let ab = HammingAbductive::new(&ds, OddK::ONE);
        assert_eq!(BooleanKnn::new(&ds, OddK::ONE).classify(&x), x_label);
        let reason = ab.minimal(&x);
        assert_eq!(reason.len(), want, "{x_label:?}: {reason:?}");
        assert!(reason.iter().all(|i| support.contains(i)), "{x_label:?}: {reason:?}");
        assert!(ab.check_k1(&x, &reason).is_sufficient());
        for &i in &reason {
            let smaller: Vec<usize> = reason.iter().copied().filter(|&j| j != i).collect();
            assert!(!ab.check_k1(&x, &smaller).is_sufficient(), "{x_label:?}: {i} can go");
        }
    }
}
