//! Hamming k = 1 minimal-SR decides each greedy step with `K1Sufficiency`
//! instead of `HammingAbductive::check_k1`. The two must give the same
//! verdict on every fixed set, so `minimal` must return what greedy deletion
//! over `check_k1` returns.
//!
//! The datasets force the ties the test's threshold has to get right:
//! points duplicated across the classes, x̄ equal to a data point, points a
//! flip or two from a few shared centres, and one-class datasets.
//! Dimensions run from 1 to 130, so the masks span up to three `u64` words
//! and the tail bits of the last word are exercised.

use knn_core::abductive::greedy_minimal;
use knn_core::abductive::hamming::{HammingAbductive, K1Sufficiency};
use knn_core::OddK;
use knn_space::{BitVec, BooleanDataset, Label};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_point(rng: &mut StdRng, dim: usize) -> BitVec {
    (0..dim).map(|_| rng.gen_bool(0.5)).collect()
}

/// A random one of `centres` with up to `max_flips` random coordinates
/// flipped.
fn near(rng: &mut StdRng, centres: &[BitVec], max_flips: usize) -> BitVec {
    let centre = &centres[rng.gen_range(0..centres.len())];
    let mut p = centre.clone();
    for _ in 0..rng.gen_range(0..=max_flips) {
        p.flip(rng.gen_range(0..centre.len()));
    }
    p
}

/// A dataset of points near a few shared centres, some duplicated with the
/// other label, and a query point that is often a data point itself.
fn tie_heavy_case(dim: usize, seed: u64) -> (BooleanDataset, BitVec) {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<BitVec> =
        (0..rng.gen_range(1..=4)).map(|_| random_point(&mut rng, dim)).collect();
    let one_class = rng.gen_bool(0.15).then(|| Label::from_bit(rng.gen_range(0..2)));
    let mut ds = BooleanDataset::new(dim);
    for _ in 0..rng.gen_range(1..=24) {
        let p = near(&mut rng, &centres, 2);
        let label = one_class.unwrap_or_else(|| Label::from_bit(rng.gen_range(0..2)));
        if one_class.is_none() && rng.gen_bool(0.2) {
            ds.push(p.clone(), label.flip());
        }
        ds.push(p, label);
    }
    let x = match rng.gen_range(0..3) {
        0 => ds.point(rng.gen_range(0..ds.len())).clone(),
        1 => near(&mut rng, &centres, 3),
        _ => random_point(&mut rng, dim),
    };
    (ds, x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn verdict_and_minimal_match_check_k1(dim in 1..=130usize, seed in any::<u64>()) {
        let (ds, x) = tie_heavy_case(dim, seed);
        let ab = HammingAbductive::new(&ds, OddK::ONE);
        let mut test = K1Sufficiency::new(&ds, &x);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);

        let mut sets: Vec<Vec<usize>> = vec![Vec::new(), (0..dim).collect()];
        for density in [0.1, 0.5, 0.9] {
            sets.push((0..dim).filter(|_| rng.gen_bool(density)).collect());
        }
        for fixed in &sets {
            prop_assert_eq!(
                test.is_sufficient(fixed),
                ab.check_k1(&x, fixed).is_sufficient(),
                "fixed {:?}", fixed
            );
        }

        // Every set the reference greedy visits gets the same verdict too.
        let mut mismatches = Vec::new();
        let reference = greedy_minimal(dim, None, |s| {
            let want = ab.check_k1(&x, s).is_sufficient();
            if test.is_sufficient(s) != want {
                mismatches.push(s.to_vec());
            }
            want
        });
        prop_assert!(mismatches.is_empty(), "verdicts differ on {:?}", mismatches);
        prop_assert_eq!(ab.minimal(&x), reference);
    }
}
