//! Multi-label explanations for k = 1 (§10, second bullet).
//!
//! The paper observes that for k = 1 the multi-label case reduces to the
//! binary one: if `x̄` is classified with label `ℓ`, merge all other labels
//! into a single negative class — the nearest neighbor (and hence the
//! classification, and hence every explanation notion) is unchanged. For
//! k ≥ 3 the merge is unsound (the paper leaves that case open); the API
//! only exposes k = 1.
//!
//! [`MultiLabelDataset`] is the discrete version (Hamming, SAT-backed
//! counterfactuals); [`MultiLabelContinuous`] is the ℝⁿ version, backed by
//! the Theorem-2 QP pipeline under ℓ2 and Proposition 4 under ℓ1 — e.g. the
//! ten-class digit problem the paper's §9.1 protocol carves into
//! one-vs-rest tasks.

use crate::abductive::hamming::HammingAbductive;
use crate::abductive::l1::L1Abductive;
use crate::counterfactual::hamming::closest_sat;
use crate::counterfactual::l2::L2Counterfactual;
use knn_space::{BitVec, BooleanDataset, ContinuousDataset, Label, LpMetric, OddK};

/// A discrete dataset with arbitrary `usize` labels.
#[derive(Clone, Debug)]
pub struct MultiLabelDataset {
    dim: usize,
    points: Vec<BitVec>,
    labels: Vec<usize>,
}

impl MultiLabelDataset {
    /// An empty dataset of the given dimension.
    pub fn new(dim: usize) -> Self {
        MultiLabelDataset { dim, points: Vec::new(), labels: Vec::new() }
    }

    /// Appends a labeled point.
    pub fn push(&mut self, point: BitVec, label: usize) {
        assert_eq!(point.len(), self.dim);
        self.points.push(point);
        self.labels.push(label);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// 1-NN multi-label classification (nearest point's label; ties broken by
    /// the smallest point index, mirroring the deterministic index order).
    pub fn classify_1nn(&self, x: &BitVec) -> usize {
        assert!(!self.points.is_empty());
        let mut best = 0usize;
        let mut best_d = self.points[0].hamming(x);
        for i in 1..self.points.len() {
            let d = self.points[i].hamming(x);
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        self.labels[best]
    }

    /// The binary one-vs-rest view for a given label: the paper's merge.
    pub fn one_vs_rest(&self, label: usize) -> BooleanDataset {
        let mut ds = BooleanDataset::new(self.dim);
        for (p, &l) in self.points.iter().zip(&self.labels) {
            ds.push(p.clone(), if l == label { Label::Positive } else { Label::Negative });
        }
        ds
    }

    /// A minimal sufficient reason for the 1-NN multi-label classification of
    /// `x̄` — computed on the merged binary dataset.
    pub fn minimal_sufficient_reason(&self, x: &BitVec) -> Vec<usize> {
        let label = self.classify_1nn(x);
        let merged = self.one_vs_rest(label);
        HammingAbductive::new(&merged, OddK::ONE).minimal(x)
    }

    /// The closest input receiving a *different* label than `x̄` (counter-
    /// factual in the multi-label sense), via the merged binary dataset.
    pub fn closest_counterfactual(&self, x: &BitVec) -> Option<(BitVec, usize)> {
        let label = self.classify_1nn(x);
        let merged = self.one_vs_rest(label);
        closest_sat(&merged, OddK::ONE, x)
    }
}

/// A continuous dataset with arbitrary `usize` labels (1-NN only — see the
/// module docs for why the merge argument needs k = 1).
#[derive(Clone, Debug)]
pub struct MultiLabelContinuous {
    dim: usize,
    points: Vec<Vec<f64>>,
    labels: Vec<usize>,
}

impl MultiLabelContinuous {
    /// An empty dataset of the given dimension.
    pub fn new(dim: usize) -> Self {
        MultiLabelContinuous { dim, points: Vec::new(), labels: Vec::new() }
    }

    /// Appends a labeled point.
    pub fn push(&mut self, point: Vec<f64>, label: usize) {
        assert_eq!(point.len(), self.dim);
        self.points.push(point);
        self.labels.push(label);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// 1-NN classification under the given ℓp metric (ties → smallest index).
    pub fn classify_1nn(&self, metric: LpMetric, x: &[f64]) -> usize {
        assert!(!self.points.is_empty());
        let mut best = 0usize;
        let mut best_d = metric.dist_pow::<f64>(&self.points[0], x);
        for i in 1..self.points.len() {
            let d = metric.dist_pow::<f64>(&self.points[i], x);
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        self.labels[best]
    }

    /// The binary one-vs-rest view for a given label: the paper's merge.
    pub fn one_vs_rest(&self, label: usize) -> ContinuousDataset<f64> {
        let mut ds = ContinuousDataset::new(self.dim);
        for (p, &l) in self.points.iter().zip(&self.labels) {
            ds.push(p.clone(), if l == label { Label::Positive } else { Label::Negative });
        }
        ds
    }

    /// A minimal sufficient reason for the ℓ1 classification of `x̄`
    /// (Proposition 4 on the merged dataset).
    pub fn minimal_sufficient_reason_l1(&self, x: &[f64]) -> Vec<usize> {
        let label = self.classify_1nn(LpMetric::L1, x);
        let merged = self.one_vs_rest(label);
        L1Abductive::new(&merged).minimal(x)
    }

    /// The infimum ℓ2 distance at which `x̄`'s label changes, and a witness
    /// just beyond it (Theorem 2 / Corollary 2 on the merged dataset).
    /// `None` when every point carries `x̄`'s label.
    pub fn closest_counterfactual_l2(&self, x: &[f64]) -> Option<(Vec<f64>, f64)> {
        let label = self.classify_1nn(LpMetric::L2, x);
        let merged = self.one_vs_rest(label);
        let cf = L2Counterfactual::new(&merged, OddK::ONE);
        let (inf, witness) = cf.closest(x, |d| d * 1.0001 + 1e-12)?;
        Some((witness?, inf.dist_sq.sqrt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BooleanKnn;

    #[test]
    fn continuous_multilabel_roundtrip() {
        let mut ds = MultiLabelContinuous::new(2);
        ds.push(vec![0.0, 0.0], 0);
        ds.push(vec![4.0, 0.0], 1);
        ds.push(vec![0.0, 4.0], 2);
        assert_eq!(ds.len(), 3);
        assert!(!ds.is_empty());
        assert_eq!(ds.classify_1nn(LpMetric::L2, &[1.0, 1.0]), 0);
        assert_eq!(ds.classify_1nn(LpMetric::L2, &[3.5, 1.0]), 1);

        // Counterfactual: from near prototype 0, the cheapest flip is toward
        // prototype 1 or 2 (bisectors at distance 2 from the origin).
        let (w, d) = ds.closest_counterfactual_l2(&[0.0, 0.0]).unwrap();
        assert!((d - 2.0).abs() < 1e-6, "bisector at 2, got {d}");
        assert_ne!(ds.classify_1nn(LpMetric::L2, &w), 0);

        // ℓ1 sufficient reason on the merged view is genuinely sufficient.
        let sr = ds.minimal_sufficient_reason_l1(&[0.5, 0.5]);
        let merged = ds.one_vs_rest(0);
        assert!(L1Abductive::new(&merged).is_sufficient(&[0.5, 0.5], &sr));
    }

    #[test]
    fn continuous_merge_preserves_the_winning_label() {
        // On a grid of queries, the merged binary classifier must agree
        // "positive" wherever the multi-label classifier picks that label.
        let mut ds = MultiLabelContinuous::new(2);
        ds.push(vec![0.0, 0.0], 7);
        ds.push(vec![3.0, 1.0], 1);
        ds.push(vec![-1.0, 2.5], 4);
        ds.push(vec![1.5, -2.0], 1);
        for i in -4..=4 {
            for j in -4..=4 {
                let x = [i as f64 * 0.7, j as f64 * 0.7];
                let l = ds.classify_1nn(LpMetric::L2, &x);
                let merged = ds.one_vs_rest(l);
                let knn = crate::ContinuousKnn::new(&merged, LpMetric::L2, OddK::ONE);
                assert_eq!(knn.classify(&x), Label::Positive, "x = {x:?}");
            }
        }
    }

    #[test]
    fn constant_label_has_no_continuous_counterfactual() {
        let mut ds = MultiLabelContinuous::new(1);
        ds.push(vec![0.0], 3);
        ds.push(vec![1.0], 3);
        assert!(ds.closest_counterfactual_l2(&[0.5]).is_none());
    }

    fn three_class_dataset() -> MultiLabelDataset {
        // Three well-separated prototypes in {0,1}⁶.
        let mut ds = MultiLabelDataset::new(6);
        ds.push(BitVec::from_bits(&[0, 0, 0, 0, 0, 0]), 0);
        ds.push(BitVec::from_bits(&[1, 1, 1, 0, 0, 0]), 1);
        ds.push(BitVec::from_bits(&[0, 0, 0, 1, 1, 1]), 2);
        ds
    }

    #[test]
    fn multilabel_classification() {
        let ds = three_class_dataset();
        assert_eq!(ds.classify_1nn(&BitVec::from_bits(&[1, 1, 0, 0, 0, 0])), 1);
        assert_eq!(ds.classify_1nn(&BitVec::from_bits(&[0, 0, 0, 1, 1, 0])), 2);
        assert_eq!(ds.classify_1nn(&BitVec::zeros(6)), 0);
    }

    #[test]
    fn merge_preserves_classification() {
        let ds = three_class_dataset();
        for bits in 0..64u8 {
            let x = BitVec::from_bools(&(0..6).map(|i| (bits >> i) & 1 == 1).collect::<Vec<_>>());
            let ml = ds.classify_1nn(&x);
            let merged = ds.one_vs_rest(ml);
            let knn = BooleanKnn::new(&merged, OddK::ONE);
            // The merged classifier must consider x "positive" whenever the
            // multi-label classifier picks `ml` — optimistic ties make the
            // binary side at least as positive.
            assert_eq!(knn.classify(&x), Label::Positive, "x = {x:?}");
        }
    }

    #[test]
    fn counterfactual_changes_label() {
        let ds = three_class_dataset();
        let x = BitVec::zeros(6);
        let (y, d) = ds.closest_counterfactual(&x).unwrap();
        assert!(d >= 1);
        assert_ne!(ds.classify_1nn(&y), ds.classify_1nn(&x));
    }

    #[test]
    fn sufficient_reason_on_merged_dataset() {
        let ds = three_class_dataset();
        let x = BitVec::zeros(6);
        let sr = ds.minimal_sufficient_reason(&x);
        // Verify against the merged brute force.
        let merged = ds.one_vs_rest(0);
        let knn = BooleanKnn::new(&merged, OddK::ONE);
        assert!(crate::brute::is_sufficient_reason(&knn, &x, &sr));
    }
}
