//! Cross-crate integration tests exercising the public facade end-to-end:
//! explanation pipelines that combine the classifier, the LP/QP/SAT/MILP
//! substrates and the dataset generators, with solver paths cross-validated
//! against each other and against brute force.

use explainable_knn::core::abductive::l1::minimal_sufficient_reason_f64;
use explainable_knn::core::{brute, counterfactual};
use explainable_knn::datasets::digits::{binary_digits_dataset, digits_dataset, DigitsConfig};
use explainable_knn::datasets::random::{random_boolean_dataset, random_boolean_point};
use explainable_knn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sufficient reason produced by any engine must survive the brute-force
/// definition check, and the counterfactual produced by SAT must match the
/// MILP route and brute force — all on the same random discrete instances.
#[test]
fn discrete_pipelines_agree_end_to_end() {
    let mut rng = StdRng::seed_from_u64(1000);
    for round in 0..15 {
        let dim = rng.gen_range(3..7usize);
        let npts = rng.gen_range(4..9usize);
        let ds = random_boolean_dataset(&mut rng, npts, dim, 0.5);
        let x = random_boolean_point(&mut rng, dim);
        let knn = BooleanKnn::new(&ds, OddK::ONE);

        // Abductive route.
        let ab = HammingAbductive::new(&ds, OddK::ONE);
        let minimal = ab.minimal(&x);
        assert!(
            brute::is_sufficient_reason(&knn, &x, &minimal),
            "round {round}: minimal SR fails the definition"
        );
        let minimum = ab.minimum(&x);
        assert_eq!(
            minimum.len(),
            brute::minimum_sufficient_reason(&knn, &x).len(),
            "round {round}: minimum size mismatch"
        );
        assert!(minimum.len() <= minimal.len());

        // Counterfactual routes.
        let sat = counterfactual::hamming::closest_sat(&ds, OddK::ONE, &x);
        let milp = counterfactual::hamming::closest_milp(&ds, &x);
        let brute_cf = brute::closest_counterfactual(&knn, &x);
        match (sat, milp, brute_cf) {
            (Some((_, a)), Some((_, b)), Some((_, c))) => {
                assert_eq!(a, b, "round {round}: SAT vs MILP");
                assert_eq!(a, c, "round {round}: SAT vs brute");
            }
            (None, None, None) => {}
            other => panic!("round {round}: inconsistent outcomes {other:?}"),
        }
    }
}

/// Exact (rational) and float ℓ2 pipelines agree on integer-coordinate data.
#[test]
fn continuous_exact_vs_float_pipelines() {
    let mut rng = StdRng::seed_from_u64(1001);
    for _ in 0..10 {
        let dim = rng.gen_range(1..4usize);
        let gen =
            |rng: &mut StdRng| -> Vec<i64> { (0..dim).map(|_| rng.gen_range(-4i64..5)).collect() };
        let pos: Vec<Vec<i64>> = (0..rng.gen_range(1..4usize)).map(|_| gen(&mut rng)).collect();
        let neg: Vec<Vec<i64>> = (0..rng.gen_range(1..4usize)).map(|_| gen(&mut rng)).collect();
        let x = gen(&mut rng);
        let dsr = ContinuousDataset::from_sets(
            pos.iter().map(|p| p.iter().map(|&v| Rat::from_int(v)).collect()).collect(),
            neg.iter().map(|p| p.iter().map(|&v| Rat::from_int(v)).collect()).collect(),
        );
        let dsf = ContinuousDataset::from_sets(
            pos.iter().map(|p| p.iter().map(|&v| v as f64).collect()).collect(),
            neg.iter().map(|p| p.iter().map(|&v| v as f64).collect()).collect(),
        );
        let xr: Vec<Rat> = x.iter().map(|&v| Rat::from_int(v)).collect();
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let minimal_exact = L2Abductive::new(&dsr, OddK::ONE).minimal(&xr);
        let minimal_float = L2Abductive::new(&dsf, OddK::ONE).minimal(&xf);
        assert_eq!(minimal_exact, minimal_float, "pos={pos:?} neg={neg:?} x={x:?}");
    }
}

/// The digit workload: 1-NN explains digit classifications; the ℓ1 minimal
/// SR engine (Fig 6a path) and the exact checker agree, and the SAT
/// counterfactual flips the predicted digit.
#[test]
fn digits_explanations_work() {
    let mut rng = StdRng::seed_from_u64(1002);
    let cfg = DigitsConfig::new(8);
    // Grayscale for ℓ1, binarized for Hamming.
    let gray = digits_dataset(&mut rng, &cfg, &[1, 8], 8, 10);
    let query = knn_datasets::digits::render_digit(&mut rng, 8, &cfg);
    let sr = minimal_sufficient_reason_f64(&gray, &query);
    assert!(!sr.is_empty(), "nontrivial data needs a nonempty reason");
    // Verify with the generic engine.
    let ab = L1Abductive::new(&gray);
    assert!(ab.is_sufficient(&query, &sr));

    let bin = binary_digits_dataset(&mut rng, &cfg, &[1, 8], 8, 10);
    let bknn = BooleanKnn::new(&bin, OddK::ONE);
    let bq = knn_datasets::digits::binarize(&query, 0.5);
    let before = bknn.classify(&bq);
    // Structured digit data makes the final SAT *optimality proofs* explode
    // (proving no witness exists one step closer is a hard cardinality
    // UNSAT instance), so the
    // anytime API is the right tool here: the best-found witness is still a
    // guaranteed-valid counterfactual even when not proven closest.
    if let Some(Some((cf, d, _proven))) =
        counterfactual::hamming::closest_sat_budgeted(&bin, OddK::ONE, &bq, 50_000)
    {
        assert_ne!(bknn.classify(&cf), before);
        assert_eq!(bq.hamming(&cf), d);
    }
}

/// The ε-LP strict feasibility and QP projection compose correctly inside
/// the ℓ2 counterfactual: witnesses are strictly inside open cells.
#[test]
fn l2_counterfactual_witness_is_strict() {
    let ds = ContinuousDataset::from_sets(
        vec![vec![Rat::from_int(0), Rat::from_int(0)]],
        vec![vec![Rat::from_int(2), Rat::from_int(2)]],
    );
    let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::ONE);
    let x = vec![Rat::from_int(0), Rat::from_int(0)];
    assert_eq!(knn.classify(&x), Label::Positive);
    let cf = L2Counterfactual::new(&ds, OddK::ONE);
    let inf = cf.infimum(&x).unwrap();
    assert_eq!(inf.dist_sq, Rat::from_int(2)); // bisector at (1,1)
    assert!(!inf.attained);
    // Any witness inside radius² = 2.5 must classify negative *strictly*.
    let w = cf.within(&x, &Rat::frac(5, 2)).unwrap();
    assert_eq!(knn.classify(&w), Label::Negative);
}

/// Thinning preserves explanations usefully: on clustered data, explanations
/// computed on the condensed set remain sufficient reasons w.r.t. it.
#[test]
fn thinning_then_explaining() {
    let mut rng = StdRng::seed_from_u64(1003);
    let dim = 16;
    let mut ds = BooleanDataset::new(dim);
    for _ in 0..15 {
        let mut p = BitVec::zeros(dim);
        let mut q = BitVec::ones(dim);
        for _ in 0..2 {
            p.flip(rng.gen_range(0..dim));
            q.flip(rng.gen_range(0..dim));
        }
        ds.push(p, Label::Positive);
        ds.push(q, Label::Negative);
    }
    let kept = explainable_knn::core::thinning::condense_1nn(&ds);
    assert!(kept.len() < ds.len());
    let thin = explainable_knn::core::thinning::subset(&ds, &kept);
    let x = BitVec::zeros(dim);
    let sr = HammingAbductive::new(&thin, OddK::ONE).minimal(&x);
    let knn_thin = BooleanKnn::new(&thin, OddK::ONE);
    assert!(brute::is_sufficient_reason(&knn_thin, &x, &sr));
}

/// Multi-label reduction composes with the facade.
#[test]
fn multilabel_facade() {
    use explainable_knn::core::multilabel::MultiLabelDataset;
    let mut ds = MultiLabelDataset::new(4);
    ds.push(BitVec::from_bits(&[0, 0, 0, 0]), 0);
    ds.push(BitVec::from_bits(&[1, 1, 0, 0]), 1);
    ds.push(BitVec::from_bits(&[0, 0, 1, 1]), 2);
    let x = BitVec::from_bits(&[1, 0, 0, 0]);
    let label = ds.classify_1nn(&x);
    assert_eq!(label, 0);
    let (cf, d) = ds.closest_counterfactual(&x).unwrap();
    assert_ne!(ds.classify_1nn(&cf), label);
    assert_eq!(x.hamming(&cf), d);
}

/// Greedy (polynomial) minimum-SR mode upper-bounds the exact mode.
#[test]
fn greedy_vs_exact_minimum_modes() {
    let mut rng = StdRng::seed_from_u64(1004);
    for _ in 0..10 {
        let ds = random_boolean_dataset(&mut rng, 6, 5, 0.5);
        let x = random_boolean_point(&mut rng, 5);
        let ab = HammingAbductive::new(&ds, OddK::ONE);
        let exact = ab.minimum_with(&x, HittingSetMode::Exact);
        let greedy = ab.minimum_with(&x, HittingSetMode::Greedy);
        assert!(exact.len() <= greedy.len());
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        assert!(brute::is_sufficient_reason(&knn, &x, &greedy));
    }
}
