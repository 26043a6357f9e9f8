//! The optimistic k-NN classification function `f^k_{S⁺,S⁻}` of §2.
//!
//! Instead of enumerating the subsets `T` of the paper's definition, we use an
//! order-statistic characterization equivalent to Proposition 1's
//! ball-inflation argument: with `maj = (k+1)/2`,
//!
//! > `f(x̄) = 1` ⟺ the `maj`-th smallest distance from `x̄` to `S⁺` is **≤**
//! > the `maj`-th smallest distance from `x̄` to `S⁻`.
//!
//! (Inflate a ball around `x̄`; the side whose `maj`-th point enters first
//! wins, positives winning ties.) The equivalence with the literal subset
//! definition and with both directions of Proposition 1 is exercised by the
//! exhaustive tests at the bottom of this module.

use knn_num::Field;
use knn_space::{BitVec, BooleanDataset, ContinuousDataset, Label, LpMetric, OddK, SmallestK};

/// Picks the label according to the optimistic rule given per-point
/// `(distance key, label)` pairs. Distance keys only need `PartialOrd`, so
/// p-th powers of distances (exact over `Rat`) are fine. One pass keeps the
/// `maj` smallest keys per class ([`SmallestK`]); nothing else is stored or
/// sorted.
pub(crate) fn optimistic_label<D: PartialOrd>(
    dists: impl Iterator<Item = (D, Label)>,
    k: OddK,
) -> Label {
    let maj = k.majority();
    let mut pos = SmallestK::new(maj);
    let mut neg = SmallestK::new(maj);
    for (d, l) in dists {
        match l {
            Label::Positive => pos.push(d),
            Label::Negative => neg.push(d),
        }
    }
    match (pos.kth(), neg.kth()) {
        (Some(rp), Some(rn)) => {
            if rp.partial_cmp(&rn) != Some(std::cmp::Ordering::Greater) {
                Label::Positive
            } else {
                Label::Negative
            }
        }
        (Some(_), None) => Label::Positive,
        (None, Some(_)) => Label::Negative,
        (None, None) => panic!("dataset smaller than (k+1)/2 on both classes"),
    }
}

/// k-NN classifier over a continuous dataset with an ℓp metric.
#[derive(Clone, Debug)]
pub struct ContinuousKnn<'a, F> {
    ds: &'a ContinuousDataset<F>,
    metric: LpMetric,
    k: OddK,
}

impl<'a, F: Field> ContinuousKnn<'a, F> {
    /// Builds the classifier. Panics if the dataset is smaller than `k`.
    pub fn new(ds: &'a ContinuousDataset<F>, metric: LpMetric, k: OddK) -> Self {
        assert!(
            ds.len() >= k.get() as usize,
            "dataset must contain at least k = {} points",
            k.get()
        );
        ContinuousKnn { ds, metric, k }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &'a ContinuousDataset<F> {
        self.ds
    }

    /// The metric.
    pub fn metric(&self) -> LpMetric {
        self.metric
    }

    /// The neighborhood size.
    pub fn k(&self) -> OddK {
        self.k
    }

    /// Classifies `x` with optimistic tie-breaking.
    pub fn classify(&self, x: &[F]) -> Label {
        assert_eq!(x.len(), self.ds.dim());
        optimistic_label(self.ds.iter().map(|(p, l)| (self.metric.dist_pow(x, p), l)), self.k)
    }
}

/// k-NN classifier over a boolean dataset with the Hamming distance.
#[derive(Clone, Debug)]
pub struct BooleanKnn<'a> {
    ds: &'a BooleanDataset,
    k: OddK,
}

impl<'a> BooleanKnn<'a> {
    /// Builds the classifier. Panics if the dataset is smaller than `k`.
    pub fn new(ds: &'a BooleanDataset, k: OddK) -> Self {
        assert!(
            ds.len() >= k.get() as usize,
            "dataset must contain at least k = {} points",
            k.get()
        );
        BooleanKnn { ds, k }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &'a BooleanDataset {
        self.ds
    }

    /// The neighborhood size.
    pub fn k(&self) -> OddK {
        self.k
    }

    /// Classifies `x` with optimistic tie-breaking.
    pub fn classify(&self, x: &BitVec) -> Label {
        assert_eq!(x.len(), self.ds.dim());
        optimistic_label(self.ds.iter().map(|(p, l)| (p.hamming(x), l)), self.k)
    }
}

/// Literal implementation of the paper's subset definition of `f^k` —
/// exponential, used only to validate [`optimistic_label`] in tests and in the
/// Table 1 harness.
pub fn subset_definition_label<D: PartialOrd + Clone>(dists: &[(D, Label)], k: OddK) -> Label {
    let n = dists.len();
    let k_usz = k.get() as usize;
    assert!(n >= k_usz);
    // Enumerate all subsets T of size k with max_T ≤ min_outside and majority
    // positive; f = 1 iff one exists.
    let idx: Vec<usize> = (0..n).collect();
    let mut chosen = Vec::with_capacity(k_usz);
    fn rec<D: PartialOrd + Clone>(
        dists: &[(D, Label)],
        idx: &[usize],
        start: usize,
        k: usize,
        chosen: &mut Vec<usize>,
        maj: usize,
    ) -> bool {
        if chosen.len() == k {
            let n_pos = chosen.iter().filter(|&&i| dists[i].1 == Label::Positive).count();
            if n_pos < maj {
                return false;
            }
            let max_in = chosen
                .iter()
                .map(|&i| &dists[i].0)
                .max_by(|a, b| a.partial_cmp(b).unwrap())
                .unwrap();
            return (0..dists.len())
                .filter(|i| !chosen.contains(i))
                .all(|i| dists[i].0.partial_cmp(max_in) != Some(std::cmp::Ordering::Less));
        }
        if idx.len() - start < k - chosen.len() {
            return false;
        }
        for pos in start..idx.len() {
            chosen.push(idx[pos]);
            if rec(dists, idx, pos + 1, k, chosen, maj) {
                chosen.pop();
                return true;
            }
            chosen.pop();
        }
        false
    }
    if rec(dists, &idx, 0, k_usz, &mut chosen, k.majority()) {
        Label::Positive
    } else {
        Label::Negative
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_num::Rat;
    use knn_space::BitVec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn one_nn_basic() {
        let ds = ContinuousDataset::from_sets(vec![vec![1.0, 0.0]], vec![vec![-1.0, 0.0]]);
        let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::ONE);
        assert_eq!(knn.classify(&[0.5, 0.0]), Label::Positive);
        assert_eq!(knn.classify(&[-0.5, 0.0]), Label::Negative);
        // Exact tie → optimistic positive.
        assert_eq!(knn.classify(&[0.0, 7.0]), Label::Positive);
    }

    #[test]
    fn exact_tie_with_rationals() {
        let ds =
            ContinuousDataset::from_sets(vec![vec![Rat::frac(1, 3)]], vec![vec![Rat::frac(-1, 3)]]);
        let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::ONE);
        assert_eq!(knn.classify(&[Rat::zero()]), Label::Positive);
        assert_eq!(knn.classify(&[Rat::frac(-1, 1000000)]), Label::Negative);
    }

    #[test]
    fn three_nn_majority() {
        // Two positives near the origin, two negatives to the right.
        let ds =
            ContinuousDataset::from_sets(vec![vec![0.1], vec![-0.1]], vec![vec![1.0], vec![1.4]]);
        let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::THREE);
        // From 0: both positives are the 2 nearest → positive.
        assert_eq!(knn.classify(&[0.0]), Label::Positive);
        // From 1.2: both negatives (d = 0.2) beat both positives (d ≥ 1.1).
        assert_eq!(knn.classify(&[1.2]), Label::Negative);
    }

    #[test]
    fn example_2_from_paper() {
        // S⁺ = {011, 101, 111}, S⁻ = rest of {0,1}³, x = 000 → f(x) = 0.
        let all: Vec<BitVec> = (0..8u8)
            .map(|m| BitVec::from_bools(&[(m & 1) == 1, (m & 2) == 2, (m & 4) == 4]))
            .collect();
        let pos: Vec<BitVec> = vec![all[0b110].clone(), all[0b101].clone(), all[0b111].clone()];
        // Note: paper writes vectors (v1,v2,v3); our bit i = component i+1.
        let neg: Vec<BitVec> = all.iter().filter(|p| !pos.contains(p)).cloned().collect();
        let ds = BooleanDataset::from_sets(pos, neg);
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        assert_eq!(knn.classify(&BitVec::zeros(3)), Label::Negative);
        assert_eq!(knn.classify(&BitVec::ones(3)), Label::Positive);
    }

    #[test]
    fn order_statistic_rule_matches_subset_definition() {
        // Exhaustive-random cross-check of the two semantics, with many ties
        // (small integer coordinates in 1-D force frequent equal distances).
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..300 {
            let k = OddK::of([1, 3, 5][rng.gen_range(0..3usize)]);
            let n_points = rng.gen_range(k.get() as usize..k.get() as usize + 6);
            let dists: Vec<(usize, Label)> = (0..n_points)
                .map(|_| {
                    (
                        rng.gen_range(0..4usize),
                        if rng.gen_bool(0.5) { Label::Positive } else { Label::Negative },
                    )
                })
                .collect();
            let fast = optimistic_label(dists.iter().cloned(), k);
            let slow = subset_definition_label(&dists, k);
            assert_eq!(fast, slow, "k={k:?} dists={dists:?}");
        }
    }

    #[test]
    fn proposition_1_characterization() {
        // Prop 1(a): f(x)=1 iff ∃A⊆S⁺ of size maj and B⊆S⁻ of size ≤ min with
        // d(x,a) ≤ d(x,c) for all a∈A, c∈S⁻\B. Checked exhaustively.
        let mut rng = StdRng::seed_from_u64(78);
        for _ in 0..200 {
            let k = OddK::of([1, 3][rng.gen_range(0..2usize)]);
            let maj = k.majority();
            let n_pos = rng.gen_range(maj..maj + 3);
            let n_neg = rng.gen_range(maj..maj + 3);
            let pos: Vec<usize> = (0..n_pos).map(|_| rng.gen_range(0..5)).collect();
            let neg: Vec<usize> = (0..n_neg).map(|_| rng.gen_range(0..5)).collect();
            let dists: Vec<(usize, Label)> = pos
                .iter()
                .map(|&d| (d, Label::Positive))
                .chain(neg.iter().map(|&d| (d, Label::Negative)))
                .collect();
            let f = optimistic_label(dists.iter().cloned(), k);
            // Prop 1(a) evaluation by enumeration.
            let mut prop1a = false;
            'outer: for a_mask in 0u32..(1 << n_pos) {
                if (a_mask.count_ones() as usize) != maj {
                    continue;
                }
                for b_mask in 0u32..(1 << n_neg) {
                    if (b_mask.count_ones() as usize) > k.minority() {
                        continue;
                    }
                    let ok = (0..n_pos).filter(|i| (a_mask >> i) & 1 == 1).all(|i| {
                        (0..n_neg).filter(|j| (b_mask >> j) & 1 == 0).all(|j| pos[i] <= neg[j])
                    });
                    if ok {
                        prop1a = true;
                        break 'outer;
                    }
                }
            }
            assert_eq!(f == Label::Positive, prop1a, "pos={pos:?} neg={neg:?} k={k:?}");
        }
    }

    #[test]
    fn missing_class_sides() {
        // Only positives exist and k exceeds... dataset of 3 positives, 1 negative, k=3:
        // the maj-th (2nd) negative distance doesn't exist → positive wins when
        // it has a 2nd point.
        let ds =
            ContinuousDataset::from_sets(vec![vec![5.0], vec![6.0], vec![7.0]], vec![vec![0.0]]);
        let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::THREE);
        assert_eq!(knn.classify(&[0.0]), Label::Positive);
    }

    #[test]
    #[should_panic(expected = "at least k")]
    fn dataset_too_small_panics() {
        let ds = ContinuousDataset::from_sets(vec![vec![0.0]], vec![vec![1.0]]);
        let _ = ContinuousKnn::new(&ds, LpMetric::L2, OddK::THREE);
    }

    #[test]
    fn hamming_vs_continuous_embedding_agree() {
        // Classifying a boolean dataset via its 0/1 continuous embedding under
        // ℓ1 (= Hamming on binary data) must agree with the Hamming classifier.
        let mut rng = StdRng::seed_from_u64(79);
        for _ in 0..50 {
            let dim = rng.gen_range(2..6usize);
            let n = rng.gen_range(3..8usize);
            let mut ds = BooleanDataset::new(dim);
            for i in 0..n {
                let p: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
                let l = if i % 2 == 0 { Label::Positive } else { Label::Negative };
                ds.push(p, l);
            }
            let cont = ds.to_continuous::<Rat>();
            let k = OddK::of(if n >= 3 && rng.gen_bool(0.5) { 3 } else { 1 });
            let bk = BooleanKnn::new(&ds, k);
            let ck = ContinuousKnn::new(&cont, LpMetric::L1, k);
            let q: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let qc: Vec<Rat> = q.iter().map(|b| if b { Rat::one() } else { Rat::zero() }).collect();
            assert_eq!(bk.classify(&q), ck.classify(&qc));
        }
    }
}
