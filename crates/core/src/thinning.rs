//! Training-set thinning for 1-NN (§10's global-interpretability remark).
//!
//! The final remarks point to the line of work on *thinning* k-NN classifiers
//! by removing redundant training points [Eppstein 2022; Flores-Velazco 2022]
//! and note it can speed up local explanation queries. We provide Hart's
//! classic Condensed Nearest Neighbor rule: it returns a subset that
//! classifies **every original training point identically** (a consistent
//! subset), which preserves 1-NN behaviour on the training set and typically
//! shrinks it substantially on clustered data.

use crate::classifier::{BooleanKnn, ContinuousKnn};
use knn_space::{BooleanDataset, ContinuousDataset, LpMetric, OddK};

/// Hart's CNN condensation. Returns the indices of the kept points, in
/// insertion order. The kept subset is *consistent*: 1-NN over it classifies
/// every point of `ds` with its own label.
pub fn condense_1nn(ds: &BooleanDataset) -> Vec<usize> {
    assert!(ds.len() >= 2);
    let mut kept: Vec<usize> = Vec::new();
    // Seed with the first point of each class.
    for label in [knn_space::Label::Positive, knn_space::Label::Negative] {
        if let Some(i) = (0..ds.len()).find(|&i| ds.label(i) == label) {
            kept.push(i);
        }
    }
    loop {
        let mut changed = false;
        for i in 0..ds.len() {
            if kept.contains(&i) {
                continue;
            }
            // Classify i with the current subset.
            let sub = subset(ds, &kept);
            let knn = BooleanKnn::new(&sub, OddK::ONE);
            if knn.classify(&ds.point(i).to_bitvec()) != ds.label(i) {
                kept.push(i);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    kept.sort_unstable();
    kept
}

/// Materializes the sub-dataset with the given indices.
pub fn subset(ds: &BooleanDataset, indices: &[usize]) -> BooleanDataset {
    let mut out = BooleanDataset::new(ds.dim());
    for &i in indices {
        out.push(ds.point(i).to_bitvec(), ds.label(i));
    }
    out
}

/// Hart's CNN condensation for continuous data under any ℓp metric — the
/// same guarantee as [`condense_1nn`]: the kept subset classifies every
/// original training point identically.
pub fn condense_1nn_continuous(ds: &ContinuousDataset<f64>, metric: LpMetric) -> Vec<usize> {
    assert!(ds.len() >= 2);
    let mut kept: Vec<usize> = Vec::new();
    for label in [knn_space::Label::Positive, knn_space::Label::Negative] {
        if let Some(i) = (0..ds.len()).find(|&i| ds.label(i) == label) {
            kept.push(i);
        }
    }
    loop {
        let mut changed = false;
        for i in 0..ds.len() {
            if kept.contains(&i) {
                continue;
            }
            let sub = subset_continuous(ds, &kept);
            let knn = ContinuousKnn::new(&sub, metric, OddK::ONE);
            if knn.classify(ds.point(i)) != ds.label(i) {
                kept.push(i);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    kept.sort_unstable();
    kept
}

/// Materializes the continuous sub-dataset with the given indices.
pub fn subset_continuous(ds: &ContinuousDataset<f64>, indices: &[usize]) -> ContinuousDataset<f64> {
    let mut out = ContinuousDataset::new(ds.dim());
    for &i in indices {
        out.push(ds.point(i).to_vec(), ds.label(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_space::{BitVec, Label};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered_dataset(rng: &mut StdRng, per_class: usize) -> BooleanDataset {
        // Two prototypes far apart, with small perturbations.
        let dim = 24;
        let proto_pos = BitVec::zeros(dim);
        let proto_neg = BitVec::ones(dim);
        let mut ds = BooleanDataset::new(dim);
        for _ in 0..per_class {
            let mut p = proto_pos.clone();
            let mut q = proto_neg.clone();
            for _ in 0..3 {
                p.flip(rng.gen_range(0..dim));
                q.flip(rng.gen_range(0..dim));
            }
            ds.push(p, Label::Positive);
            ds.push(q, Label::Negative);
        }
        ds
    }

    #[test]
    fn condensed_subset_is_consistent() {
        let mut rng = StdRng::seed_from_u64(70);
        let ds = clustered_dataset(&mut rng, 20);
        let kept = condense_1nn(&ds);
        let sub = subset(&ds, &kept);
        let knn = BooleanKnn::new(&sub, OddK::ONE);
        for (p, l) in ds.iter() {
            assert_eq!(knn.classify(&p.to_bitvec()), l, "consistency violated at {p:?}");
        }
    }

    #[test]
    fn condensation_shrinks_clustered_data() {
        let mut rng = StdRng::seed_from_u64(71);
        let ds = clustered_dataset(&mut rng, 25);
        let kept = condense_1nn(&ds);
        assert!(
            kept.len() < ds.len() / 2,
            "expected substantial shrinkage, kept {} of {}",
            kept.len(),
            ds.len()
        );
    }

    #[test]
    fn continuous_condensation_is_consistent_under_l1_and_l2() {
        let mut rng = StdRng::seed_from_u64(72);
        for metric in [LpMetric::L1, LpMetric::L2] {
            let mut ds = ContinuousDataset::new(3);
            for _ in 0..25 {
                let p: Vec<f64> = (0..3).map(|_| 1.0 + rng.gen_range(-0.4..0.4)).collect();
                let q: Vec<f64> = (0..3).map(|_| -1.0 + rng.gen_range(-0.4..0.4)).collect();
                ds.push(p, Label::Positive);
                ds.push(q, Label::Negative);
            }
            let kept = condense_1nn_continuous(&ds, metric);
            assert!(kept.len() < ds.len() / 2, "clustered data should shrink");
            let sub = subset_continuous(&ds, &kept);
            let knn = crate::ContinuousKnn::new(&sub, metric, OddK::ONE);
            for (p, l) in ds.iter() {
                assert_eq!(knn.classify(p), l);
            }
        }
    }

    #[test]
    fn adversarial_data_keeps_everything_needed() {
        // Alternating labels on a line of points: nothing is redundant-ish;
        // condensation must at least stay consistent.
        let mut ds = BooleanDataset::new(8);
        for i in 0..8 {
            let mut p = BitVec::zeros(8);
            for j in 0..=i {
                p.set(j, true);
            }
            ds.push(p, if i % 2 == 0 { Label::Positive } else { Label::Negative });
        }
        let kept = condense_1nn(&ds);
        let sub = subset(&ds, &kept);
        let knn = BooleanKnn::new(&sub, OddK::ONE);
        for (p, l) in ds.iter() {
            assert_eq!(knn.classify(&p.to_bitvec()), l);
        }
    }
}
