//! Flat per-class scans: the serving engine's classification indexes.
//!
//! The optimistic rule of §2 needs one number per class, the `maj`-th
//! smallest distance from the query to that class. The paper targets points
//! with hundreds of features, where a KD-tree prunes almost nothing, so a
//! scan over contiguous rows with bounded selection
//! ([`knn_space::kth_smallest`]) is the faster exact answer. A scan is also
//! cheap to *patch*: the index of the next epoch is this one with one row
//! appended or removed ([`LpScan::with_row`], [`LpScan::without_row`]), an
//! exact-size copy instead of a rebuild.
//!
//! Keys are computed with the dataset's own kernels ([`LpMetric::dist_pow`],
//! [`hamming_words`]), so a scan's order statistic is bit-identical to the
//! `k`-th entry of the sorted per-point distances. On `{0,1}ⁿ` the two
//! coincide: every ℓp term is 0 or 1, so an [`LpScan`] key equals the
//! [`HammingScan`] key as `f64`, and the serving engine answers ℓp classify
//! of a 0/1 query on binary data from the Hamming scan. The benchmark's
//! per-layer decomposer still builds the ℓp scan for that route, which the
//! executor then does not read, so its traced `kdtree-class-index` numbers
//! on binary data shift.

use knn_space::bitvec::hamming_words;
use knn_space::{kth_smallest, BitVec, BooleanDataset, ContinuousDataset, Label, LpMetric, Rows};

/// One class's points under one ℓp metric, as a flat scan.
#[derive(Clone, Debug, PartialEq)]
pub struct LpScan {
    rows: Rows<f64>,
    metric: LpMetric,
}

impl LpScan {
    /// The points of class `label` in `ds`, in dataset order.
    pub fn of_class(ds: &ContinuousDataset<f64>, label: Label, metric: LpMetric) -> Self {
        LpScan { rows: ds.rows_of(label), metric }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the class is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `k`-th smallest `dist^p` from `q` to the class, or `None` when it
    /// has fewer than `k` points. Panics when `q` has the wrong dimension.
    pub fn kth_smallest(&self, q: &[f64], k: usize) -> Option<f64> {
        assert_eq!(q.len(), self.rows.width(), "query dimension mismatch");
        kth_smallest(self.rows.iter().map(|p| self.metric.dist_pow(q, p)), k)
    }

    /// The scan after appending `point` to the class.
    pub fn with_row(&self, point: &[f64]) -> Self {
        LpScan { rows: self.rows.with_row(point), metric: self.metric }
    }

    /// The scan after removing the class's `i`-th point.
    pub fn without_row(&self, i: usize) -> Self {
        LpScan { rows: self.rows.without_row(i), metric: self.metric }
    }

    /// Heap footprint in bytes: the coordinate buffer.
    pub fn approx_bytes(&self) -> usize {
        self.rows.approx_bytes()
    }
}

/// One class's boolean points as a flat scan over packed words, one
/// fixed-stride row of `⌈dim/64⌉` words per point.
#[derive(Clone, Debug, PartialEq)]
pub struct HammingScan {
    dim: usize,
    rows: Rows<u64>,
}

impl HammingScan {
    /// The points of class `label` in `ds`, in dataset order.
    pub fn of_class(ds: &BooleanDataset, label: Label) -> Self {
        HammingScan { dim: ds.dim(), rows: ds.rows_of(label) }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the class is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `k`-th smallest Hamming distance from `q` to the class, or `None`
    /// when it has fewer than `k` points. Panics when `q` has the wrong
    /// dimension.
    pub fn kth_smallest(&self, q: &BitVec, k: usize) -> Option<usize> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        kth_smallest(self.rows.iter().map(|p| hamming_words(p, q.words())), k)
    }

    /// The scan after appending `point` to the class.
    pub fn with_row(&self, point: &BitVec) -> Self {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        HammingScan { dim: self.dim, rows: self.rows.with_row(point.words()) }
    }

    /// The scan after removing the class's `i`-th point.
    pub fn without_row(&self, i: usize) -> Self {
        HammingScan { dim: self.dim, rows: self.rows.without_row(i) }
    }

    /// Heap footprint in bytes: the packed word buffer.
    pub fn approx_bytes(&self) -> usize {
        self.rows.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lp_scan_matches_the_sorted_order_statistic() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ds = ContinuousDataset::new(4);
        for i in 0..120 {
            let p = (0..4).map(|_| rng.gen_range(-3..4) as f64 * 0.5).collect();
            ds.push(p, if i % 3 == 0 { Label::Positive } else { Label::Negative });
        }
        for p in [1, 2, 3] {
            let metric = LpMetric::new(p);
            for label in [Label::Positive, Label::Negative] {
                let scan = LpScan::of_class(&ds, label, metric);
                let points = ds.points_of(label);
                assert_eq!(scan.len(), points.len());
                for _ in 0..20 {
                    let q: Vec<f64> = (0..4).map(|_| rng.gen_range(-4.0..4.0)).collect();
                    // The reference: every key, sorted, indexed at k − 1.
                    let mut keys: Vec<f64> =
                        points.iter().map(|p| metric.dist_pow(&q, p)).collect();
                    keys.sort_by(f64::total_cmp);
                    for k in [1, 3, 7] {
                        assert_eq!(scan.kth_smallest(&q, k), Some(keys[k - 1]));
                    }
                    assert_eq!(scan.kth_smallest(&q, scan.len() + 1), None);
                }
            }
        }
    }

    #[test]
    fn hamming_scan_matches_the_sorted_order_statistic() {
        let mut rng = StdRng::seed_from_u64(6);
        // 70 dims: two words per row, the second partly padding.
        let mut ds = BooleanDataset::new(70);
        for i in 0..60 {
            let p: BitVec = (0..70).map(|_| rng.gen_bool(0.5)).collect();
            ds.push(p, if i % 2 == 0 { Label::Positive } else { Label::Negative });
        }
        let scan = HammingScan::of_class(&ds, Label::Negative);
        let points = ds.points_of(Label::Negative);
        assert_eq!(scan.len(), points.len());
        for _ in 0..20 {
            let q: BitVec = (0..70).map(|_| rng.gen_bool(0.5)).collect();
            let mut keys: Vec<usize> = points.iter().map(|p| p.hamming(&q)).collect();
            keys.sort();
            for k in [1, 2, 5] {
                assert_eq!(scan.kth_smallest(&q, k), Some(keys[k - 1]));
            }
            assert_eq!(scan.kth_smallest(&q, scan.len() + 1), None);
        }
    }

    #[test]
    fn patched_scans_equal_fresh_ones() {
        let mut ds = ContinuousDataset::from_sets(
            vec![vec![0.0, 1.0], vec![1.0, 1.0]],
            vec![vec![0.0, 0.0], vec![1.0, 0.0]],
        );
        let scan = LpScan::of_class(&ds, Label::Positive, LpMetric::L2);
        ds.push(vec![3.0, 3.0], Label::Positive);
        let grown = scan.with_row(&[3.0, 3.0]);
        assert_eq!(grown, LpScan::of_class(&ds, Label::Positive, LpMetric::L2));
        ds.remove(0);
        let shrunk = grown.without_row(0);
        assert_eq!(shrunk, LpScan::of_class(&ds, Label::Positive, LpMetric::L2));
        assert_eq!(shrunk.len(), 2);
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn hamming_scan_checks_the_query_dimension() {
        let ds = BooleanDataset::from_sets(vec![BitVec::from_bits(&[1, 0, 1])], vec![]);
        HammingScan::of_class(&ds, Label::Positive).kth_smallest(&BitVec::zeros(2), 1);
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn lp_scan_checks_the_query_dimension_even_when_empty() {
        let ds = ContinuousDataset::from_sets(vec![vec![1.0, 0.0]], vec![]);
        LpScan::of_class(&ds, Label::Negative, LpMetric::L1).kth_smallest(&[0.0], 1);
    }
}
