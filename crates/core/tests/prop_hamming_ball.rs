//! The Hamming routes answer by ball enumeration first and by SAT only past
//! `ENUMERATION_CAP`. Two data families pin both paths down:
//!
//! * **Random data, at most 10 dimensions** (enumeration always answers:
//!   `2¹⁰ × 12` distance evaluations fit under the cap). Counterfactuals and
//!   Check-SR at k ∈ {1, 3} are checked against `knn_core::brute`: equal
//!   distance, and the canonical witness is the lexicographically least flip
//!   set among the optimal ones; an equal Check-SR verdict, and at k = 3 a
//!   counterexample at minimum distance (k = 1 keeps Proposition 6's
//!   projected witness).
//! * **Two label-pure clusters in 20 dimensions**, where every
//!   counterfactual is at least 6 flips away. `C(19, ≤ 5) × points` exceeds
//!   the cap, so every counterfactual and every Check-SR with at most one
//!   feature fixed falls back to SAT; the answers must equal the SAT-only
//!   `closest_sat` and `DiscreteModel::build(..).solve_with_fixed`.

use knn_core::abductive::hamming::HammingAbductive;
use knn_core::ball::{first_flip, Flip, ENUMERATION_CAP};
use knn_core::counterfactual::hamming::closest_sat;
use knn_core::satenc::DiscreteModel;
use knn_core::{brute, BooleanKnn, OddK, SrCheck};
use knn_space::{BitVec, BooleanDataset, Label};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The served counterfactual: enumeration, then SAT from the ruled-out
/// radius. The flag reports whether SAT answered.
fn served_cf(ds: &BooleanDataset, k: OddK, x: &BitVec) -> (Option<(BitVec, usize)>, bool) {
    let knn = BooleanKnn::new(ds, k);
    let all: Vec<usize> = (0..x.len()).collect();
    match first_flip(&knn, x, &all) {
        Flip::Found { y, d } => (Some((y, d)), false),
        Flip::Exhausted => (None, false),
        Flip::Capped { floor } => {
            let target = knn.classify(x).flip();
            (DiscreteModel::build(ds, k, x, target).closest(floor), true)
        }
    }
}

fn free_of(dim: usize, fixed: &[usize]) -> Vec<usize> {
    (0..dim).filter(|i| !fixed.contains(i)).collect()
}

/// Brute force over the completions of `x` on `free`: the nearest label
/// flip and, among those, the lexicographically least flip set.
fn brute_first_flip(knn: &BooleanKnn<'_>, x: &BitVec, free: &[usize]) -> Option<Vec<usize>> {
    let label = knn.classify(x);
    let mut y = x.clone();
    let mut best: Option<Vec<usize>> = None;
    for mask in 0u32..(1 << free.len()) {
        for (bit, &i) in free.iter().enumerate() {
            y.set(i, x.get(i) ^ ((mask >> bit) & 1 == 1));
        }
        if knn.classify(&y) != label {
            let flips = x.diff_indices(&y);
            if best.as_ref().is_none_or(|b| (flips.len(), &flips) < (b.len(), b)) {
                best = Some(flips);
            }
        }
    }
    best
}

/// `Σ_{r ≤ radius} C(m, r)`.
fn ball_size(m: usize, radius: usize) -> usize {
    let mut ways = 1;
    let mut total = 1;
    for r in 1..=radius.min(m) {
        ways = ways * (m - r + 1) / r;
        total += ways;
    }
    total
}

#[derive(Clone, Debug)]
struct Case {
    dim: usize,
    points: Vec<(u16, bool)>,
    x: u16,
    fixed: u16,
    k3: bool,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (2..=10usize).prop_flat_map(|dim| {
        let mask = (1u16 << dim) - 1;
        (
            prop::collection::vec((0..=mask, any::<bool>()), 3..=12),
            0..=mask,
            0..=mask,
            any::<bool>(),
        )
            .prop_map(move |(points, x, fixed, k3)| Case { dim, points, x, fixed, k3 })
    })
}

fn bits(v: u16, dim: usize) -> BitVec {
    BitVec::from_bools(&(0..dim).map(|j| (v >> j) & 1 == 1).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn enumeration_matches_brute_force(case in case_strategy()) {
        let dim = case.dim;
        let mut ds = BooleanDataset::new(dim);
        for &(p, pos) in &case.points {
            ds.push(bits(p, dim), if pos { Label::Positive } else { Label::Negative });
        }
        let k = if case.k3 { OddK::THREE } else { OddK::ONE };
        let knn = BooleanKnn::new(&ds, k);
        let x = bits(case.x, dim);
        let fx = knn.classify(&x);
        prop_assert!((1 << dim) * ds.len() <= ENUMERATION_CAP, "this family never falls back");

        let (cf, fell_back) = served_cf(&ds, k, &x);
        prop_assert!(!fell_back);
        let want = brute_first_flip(&knn, &x, &free_of(dim, &[]));
        prop_assert_eq!(
            want.as_ref().map(Vec::len),
            brute::closest_counterfactual(&knn, &x).map(|(_, d)| d)
        );
        match (cf, want) {
            (None, None) => {}
            (Some((y, d)), Some(flips)) => {
                prop_assert_ne!(knn.classify(&y), fx);
                prop_assert_eq!(d, flips.len());
                prop_assert_eq!(x.diff_indices(&y), flips, "not the canonical witness");
            }
            (got, want) => prop_assert!(false, "served {:?}, brute force {:?}", got, want),
        }

        let fixed: Vec<usize> = (0..dim).filter(|j| (case.fixed >> j) & 1 == 1).collect();
        let check = HammingAbductive::new(&ds, k).check(&x, &fixed);
        prop_assert_eq!(check.is_sufficient(), brute::is_sufficient_reason(&knn, &x, &fixed));
        if let SrCheck::NotSufficient { witness } = check {
            prop_assert!(fixed.iter().all(|&i| witness.get(i) == x.get(i)));
            prop_assert_ne!(knn.classify(&witness), fx);
            if k == OddK::THREE {
                let nearest = brute_first_flip(&knn, &x, &free_of(dim, &fixed)).unwrap();
                prop_assert_eq!(x.hamming(&witness), nearest.len());
            }
        }
    }
}

/// Two label-pure clusters, around `0²⁰` (positive) and `1¹²0⁸`
/// (negative), each point at most 1 flip from its centre. After r flips from
/// `x̄ = 0²⁰` every positive point is at most 1 + r away and every negative
/// one at least 11 − r, so the label survives every r ≤ 5.
#[test]
fn far_counterfactuals_fall_back_to_sat() {
    const DIM: usize = 20;
    const PER_CLUSTER: usize = 32;
    let mut rng = StdRng::seed_from_u64(20);
    let x = BitVec::zeros(DIM);
    let (mut queries, mut fallbacks) = (0, 0);
    for q in 0..3 {
        let mut ds = BooleanDataset::new(DIM);
        for _ in 0..PER_CLUSTER {
            for (centre, label) in [(0, Label::Positive), (12, Label::Negative)] {
                let mut p = BitVec::zeros(DIM);
                (0..centre).for_each(|i| p.set(i, true));
                if rng.gen_bool(0.5) {
                    p.flip(rng.gen_range(0..DIM));
                }
                ds.push(p, label);
            }
        }
        // Check-SR below fixes at most 1 feature, so at least 19 are free.
        assert!(ball_size(19, 5) * ds.len() > ENUMERATION_CAP, "radius 5 must not fit");

        for k in [OddK::ONE, OddK::THREE] {
            let knn = BooleanKnn::new(&ds, k);
            let fx = knn.classify(&x);
            let (served, fell_back) = served_cf(&ds, k, &x);
            let (y, d) = served.expect("both labels occur");
            let (_, sat_d) = closest_sat(&ds, k, &x).unwrap();
            assert!(d >= 6, "query {q}: counterfactual at {d}");
            assert_eq!((d, x.hamming(&y)), (sat_d, sat_d), "query {q}, k = {}", k.get());
            assert_ne!(knn.classify(&y), fx);
            queries += 1;
            fallbacks += usize::from(fell_back);
        }

        let k = OddK::THREE;
        let fixed: Vec<usize> = (0..DIM).filter(|_| rng.gen_bool(0.05)).take(1).collect();
        let knn = BooleanKnn::new(&ds, k);
        let fx = knn.classify(&x);
        let capped = matches!(first_flip(&knn, &x, &free_of(DIM, &fixed)), Flip::Capped { .. });
        let served = HammingAbductive::new(&ds, k).check(&x, &fixed);
        let sat = DiscreteModel::build(&ds, k, &x, fx.flip()).solve_with_fixed(&fixed);
        assert_eq!(served.witness(), sat.as_ref(), "query {q}: fixed {fixed:?}");
        if let Some(w) = sat {
            assert!(fixed.iter().all(|&i| w.get(i) == x.get(i)));
            assert_ne!(knn.classify(&w), fx);
        }
        queries += 1;
        fallbacks += usize::from(capped);
    }
    assert_eq!(fallbacks, queries, "every query on this family falls back to SAT");
}
