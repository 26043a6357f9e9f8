//! Abductive explanations in the discrete setting (Prop 6, Cor 4, Thm 7, Thm 8).
//!
//! * k = 1: Check-SR is polynomial — the counterexample, if one exists, can
//!   always be chosen among the *projections* `y_b` of opposite-class points
//!   `b` (x̄ on `X`, `b` elsewhere); Proposition 6's proof shows that
//!   flipping a counterexample's free coordinates toward its witness point
//!   only strengthens it. [`HammingAbductive::check_k1`] classifies each
//!   `y_b` in index order and serves the first that flips as the witness.
//! * k = 1 minimal-SR (Cor 4) only needs the yes/no of each greedy step, so
//!   it asks a cheaper question with the same verdict ([`K1Sufficiency`]):
//!   `X` is insufficient iff some opposite point `b` has, for every
//!   same-class point `a`,
//!   `d_X(x̄, a) + d_X̄(a, b) − d_X(x̄, b) ≥ thr`,
//!   with `thr = 0` when the counterexample label is positive (positives
//!   win ties) and `thr = 1` when it is negative. The left side is
//!   `d(y_b, a) − d(y_b, b)`, so the inequality for `b` says `b` beats
//!   every `a` at `y_b`: `y_b` flips. Conversely, if `y_b` flips
//!   because of its nearest opposite point `c`, then `d(y_b, c) < d(y_b, a)`
//!   (`≤` for a positive target) for every `a`; expanding both sides over
//!   `X` and `X̄` and applying the triangle inequality
//!   `d_X̄(a, c) ≥ d_X̄(a, b) − d_X̄(b, c)` gives the inequality for `c`.
//!   Check-SR and minimum-SR keep `check_k1`, because they serve its
//!   witness, and the `b` this test finds may be a different one.
//! * k ≥ 3: Check-SR is coNP-complete (Thm 7). A check first enumerates the
//!   completions of the free coordinates nearest first
//!   ([`crate::ball::first_flip`]): the first label flip is the closest
//!   counterexample, and an exhausted space proves sufficiency. Only when
//!   the space exceeds [`crate::ball::ENUMERATION_CAP`] does the session
//!   search for a counterexample with the incremental SAT model of
//!   [`crate::satenc`], instantiated on that first need; its witnesses are
//!   its own, not the canonical ones.
//! * Minimum-SR is NP-complete for k = 1 (Cor 6) and Σ₂ᵖ-complete for k ≥ 3
//!   (Thm 8); both run through the implicit-hitting-set loop whose oracle is
//!   the respective checker — exactly the oracle structure of the paper's
//!   upper-bound arguments.

use crate::abductive::minimum::{minimum_sufficient_reason, HittingSetMode};
use crate::ball::{first_flip, Flip};
use crate::classifier::BooleanKnn;
use crate::satenc::{DiscreteInstance, DiscreteModel};
use crate::SrCheck;
use knn_space::{BitVec, BooleanDataset, Label, OddK};
use std::sync::Arc;

/// Where a k ≥ 3 session gets the SAT model whose solutions are labelled
/// `target` (e.g. the batch engine's per-epoch artifact).
pub type ModelSource<'a> = &'a dyn Fn(Label) -> Arc<DiscreteModel>;

/// Sufficient-reason engine for the discrete setting.
pub struct HammingAbductive<'a> {
    ds: &'a BooleanDataset,
    k: OddK,
    model: Option<ModelSource<'a>>,
}

impl<'a> HammingAbductive<'a> {
    /// Builds the engine for `f^k_{S⁺,S⁻}` under the Hamming distance. At
    /// k ≥ 3 a session that needs the SAT fallback builds its own model.
    pub fn new(ds: &'a BooleanDataset, k: OddK) -> Self {
        Self::with_model(ds, k, None)
    }

    /// [`HammingAbductive::new`] taking the k ≥ 3 SAT fallback's model from
    /// `model`, called with the opposite of the session point's label only
    /// when a check first needs SAT; the model must encode this dataset,
    /// `k` and that label (asserted). `None` builds a model per session;
    /// the k = 1 checker needs none and ignores it.
    pub fn with_model(ds: &'a BooleanDataset, k: OddK, model: Option<ModelSource<'a>>) -> Self {
        assert!(ds.len() >= k.get() as usize);
        HammingAbductive { ds, k, model }
    }

    fn classifier(&self) -> BooleanKnn<'a> {
        BooleanKnn::new(self.ds, self.k)
    }

    /// Check Sufficient Reason. Polynomial for k = 1 (Prop 6); enumeration,
    /// then SAT past the cap, for k ≥ 3 (Thm 7).
    pub fn check(&self, x: &BitVec, fixed: &[usize]) -> SrCheck<BitVec> {
        self.session(x).check(fixed)
    }

    /// The polynomial k = 1 checker (Proposition 6).
    pub fn check_k1(&self, x: &BitVec, fixed: &[usize]) -> SrCheck<BitVec> {
        assert_eq!(self.k, OddK::ONE, "the projected-witness argument needs k = 1");
        assert_eq!(x.len(), self.ds.dim());
        let knn = self.classifier();
        let label = knn.classify(x);
        let candidates = self.ds.indices_of(label.flip());
        for &ci in &candidates {
            let cand = self.ds.point(ci);
            let mut y = cand.to_bitvec();
            for &i in fixed {
                y.set(i, x.get(i));
            }
            if knn.classify(&y) != label {
                return SrCheck::NotSufficient { witness: y };
            }
        }
        SrCheck::Sufficient
    }

    /// Convenience boolean form of [`HammingAbductive::check`].
    pub fn is_sufficient(&self, x: &BitVec, fixed: &[usize]) -> bool {
        self.check(x, fixed).is_sufficient()
    }

    /// An incremental checking session for repeated queries on one `x̄`
    /// (greedy minimal-SR and the IHS loop reuse learned clauses this way).
    /// At k ≥ 3 the first check the enumeration cannot settle instantiates
    /// the source's model, or a model built for the session.
    pub fn session(&self, x: &BitVec) -> CheckSession<'a, '_> {
        let target = (self.k != OddK::ONE).then(|| self.classifier().classify(x).flip());
        CheckSession { owner: self, x: x.clone(), target, instance: None }
    }

    /// The SAT fallback's instance for `x`, whose solutions are `target`.
    fn instantiate(&self, x: &BitVec, target: Label) -> DiscreteInstance {
        match self.model {
            Some(source) => {
                let m = source(target);
                assert_eq!((m.k(), m.target()), (self.k, target), "model for another query");
                m.instantiate(x)
            }
            None => DiscreteModel::build(self.ds, self.k, x, target),
        }
    }

    /// A minimal sufficient reason by greedy deletion (Prop 2): polynomial
    /// for k = 1 (Cor 4), coNP-oracle greedy for k ≥ 3 (still n oracle
    /// calls, each an enumeration or, past the cap, a SAT solve).
    ///
    /// At k = 1 each step asks [`K1Sufficiency`] instead of
    /// [`HammingAbductive::check_k1`]: `X` is insufficient iff some opposite
    /// point `b` has `d_X(x̄, a) + d_X̄(a, b) − d_X(x̄, b) ≥ thr` for every
    /// same-class point `a` (`thr` is 0 for a positive counterexample label,
    /// which wins ties, and 1 for a negative one). By the triangle
    /// inequality on `X̄` this holds for some `b` exactly when some
    /// projection `y_b` flips, so every step gets `check_k1`'s verdict and
    /// the deletion order and result are unchanged. Check-SR and
    /// minimum-SR keep `check_k1`, whose witness (the first `b` in index
    /// order whose `y_b` flips) they serve.
    pub fn minimal(&self, x: &BitVec) -> Vec<usize> {
        if self.k == OddK::ONE {
            let mut test = K1Sufficiency::new(self.ds, x);
            return super::greedy_minimal(self.ds.dim(), None, |s| test.is_sufficient(s));
        }
        let mut session = self.session(x);
        super::greedy_minimal(self.ds.dim(), None, |s| session.check(s).is_sufficient())
    }

    /// A minimum sufficient reason — NP-complete for k = 1 (Cor 6),
    /// Σ₂ᵖ-complete for k ≥ 3 (Thm 8). Exact implicit-hitting-set loop.
    pub fn minimum(&self, x: &BitVec) -> Vec<usize> {
        self.minimum_with(x, HittingSetMode::Exact)
    }

    /// Minimum-SR with a selectable hitting-set mode.
    pub fn minimum_with(&self, x: &BitVec, mode: HittingSetMode) -> Vec<usize> {
        let mut session = self.session(x);
        let xc = x.clone();
        minimum_sufficient_reason(
            self.ds.dim(),
            mode,
            move |s| session.check(s),
            move |w| xc.diff_indices(w),
        )
    }

    /// Decision form of Minimum Sufficient Reason: is there a sufficient
    /// reason of size ≤ `l`? (The Σ₂ᵖ-complete problem of Theorem 8.)
    pub fn has_sufficient_reason_of_size(&self, x: &BitVec, l: usize) -> bool {
        self.minimum(x).len() <= l
    }
}

/// The k = 1 sufficiency test of [`HammingAbductive::minimal`]: the verdict
/// of [`HammingAbductive::check_k1`] without a witness, from masked popcounts
/// (see the module docs for why they agree). Built once per `x̄`; each check
/// scans, for every opposite point `b`, the same-class points nearest `x̄`
/// first and stops at the first one that beats `b` at `y_b`. Extra memory is
/// one copy of the dataset's words and the `X` mask.
pub struct K1Sufficiency<'a> {
    x: &'a [u64],
    /// The points labelled like `x̄`, in ascending `d(x̄, a)`, ties by index,
    /// as many words each as `x`.
    same: Vec<u64>,
    /// The other class, in index order, packed like `same`.
    opposite: Vec<u64>,
    /// 0 when the counterexample label is positive (it wins ties), else 1.
    thr: u32,
    /// The fixed set `X` as a bit mask over [`BitVec::words`].
    mask: Vec<u64>,
}

impl<'a> K1Sufficiency<'a> {
    /// Precomputes the test for `x` under the 1-NN classifier of `ds`.
    pub fn new(ds: &BooleanDataset, x: &'a BitVec) -> Self {
        assert_eq!(x.len(), ds.dim());
        let label = BooleanKnn::new(ds, OddK::ONE).classify(x);
        let mut same = ds.indices_of(label);
        same.sort_by_key(|&i| (ds.point(i).hamming(x), i));
        let flat = |idx: Vec<usize>| {
            let mut words = Vec::with_capacity(idx.len() * x.words().len());
            for i in idx {
                words.extend_from_slice(ds.point(i).words());
            }
            words
        };
        K1Sufficiency {
            x: x.words(),
            same: flat(same),
            opposite: flat(ds.indices_of(label.flip())),
            thr: u32::from(label.is_positive()),
            mask: vec![0; x.words().len()],
        }
    }

    /// Whether `fixed` is a sufficient reason for `x̄`.
    pub fn is_sufficient(&mut self, fixed: &[usize]) -> bool {
        self.mask.fill(0);
        for &i in fixed {
            self.mask[i / 64] |= 1 << (i % 64);
        }
        // At dimension 0 both lists are empty; `chunks_exact` needs w ≥ 1.
        let (x, m, w) = (self.x, &self.mask[..], self.x.len().max(1));
        !self.opposite.chunks_exact(w).any(|b| {
            let bound = masked(x, b, m, 0) + self.thr;
            self.same.chunks_exact(w).all(|a| masked(x, a, m, 0) + masked(a, b, m, !0) >= bound)
        })
    }
}

/// `d(u, v)` on the coordinates where `mask ^ invert` is set (`invert` is 0
/// or `!0`; bits past the dimension are zero in `u ^ v`).
fn masked(u: &[u64], v: &[u64], mask: &[u64], invert: u64) -> u32 {
    u.iter().zip(v).zip(mask).map(|((u, v), m)| ((u ^ v) & (m ^ invert)).count_ones()).sum()
}

/// Incremental Check-SR session bound to one anchor point.
pub struct CheckSession<'a, 'b> {
    owner: &'b HammingAbductive<'a>,
    x: BitVec,
    /// The label a counterexample has, at k ≥ 3 (`None` at k = 1).
    target: Option<Label>,
    /// The SAT fallback, instantiated when a check first needs it.
    instance: Option<DiscreteInstance>,
}

impl CheckSession<'_, '_> {
    /// Checks whether `fixed` is a sufficient reason for the session's `x̄`.
    pub fn check(&mut self, fixed: &[usize]) -> SrCheck<BitVec> {
        let owner = self.owner;
        let Some(target) = self.target else { return owner.check_k1(&self.x, fixed) };
        let free: Vec<usize> = (0..self.x.len()).filter(|i| !fixed.contains(i)).collect();
        match first_flip(&owner.classifier(), &self.x, &free) {
            Flip::Found { y, .. } => SrCheck::NotSufficient { witness: y },
            Flip::Exhausted => SrCheck::Sufficient,
            Flip::Capped { .. } => {
                let x = &self.x;
                let instance = self.instance.get_or_insert_with(|| owner.instantiate(x, target));
                match instance.solve_with_fixed(fixed) {
                    Some(witness) => SrCheck::NotSufficient { witness },
                    None => SrCheck::Sufficient,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use knn_space::Label;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn example2() -> BooleanDataset {
        let to_bv = |v: [u8; 3]| BitVec::from_bits(&v);
        let pos = vec![to_bv([0, 1, 1]), to_bv([1, 0, 1]), to_bv([1, 1, 1])];
        let mut neg = Vec::new();
        for m in 0..8u8 {
            let bv = to_bv([m & 1, (m >> 1) & 1, (m >> 2) & 1]);
            if !pos.contains(&bv) {
                neg.push(bv);
            }
        }
        BooleanDataset::from_sets(pos, neg)
    }

    #[test]
    fn example_2_check_and_minimum() {
        let ds = example2();
        let ab = HammingAbductive::new(&ds, OddK::ONE);
        let x = BitVec::zeros(3);
        assert!(ab.is_sufficient(&x, &[0, 1]));
        assert!(ab.is_sufficient(&x, &[2]));
        assert!(!ab.is_sufficient(&x, &[0]));
        assert!(!ab.is_sufficient(&x, &[1]));
        assert!(!ab.is_sufficient(&x, &[]));
        assert_eq!(ab.minimum(&x), vec![2]);
        assert!(ab.has_sufficient_reason_of_size(&x, 1));
        let minimal = ab.minimal(&x);
        assert!(minimal == vec![2] || minimal == vec![0, 1]);
    }

    #[test]
    fn k1_checker_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(41);
        for round in 0..60 {
            let dim = rng.gen_range(2..7usize);
            let npts = rng.gen_range(2..8usize);
            let mut ds = BooleanDataset::new(dim);
            for i in 0..npts {
                let p: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
                let l = if i % 2 == 0 { Label::Positive } else { Label::Negative };
                ds.push(p, l);
            }
            let ab = HammingAbductive::new(&ds, OddK::ONE);
            let knn = BooleanKnn::new(&ds, OddK::ONE);
            let x: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let fixed: Vec<usize> = (0..dim).filter(|_| rng.gen_bool(0.4)).collect();
            assert_eq!(
                ab.is_sufficient(&x, &fixed),
                brute::is_sufficient_reason(&knn, &x, &fixed),
                "round {round}: fixed={fixed:?}"
            );
        }
    }

    #[test]
    fn k3_sat_checker_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..30 {
            let dim = rng.gen_range(2..6usize);
            let npts = rng.gen_range(4..8usize);
            let mut ds = BooleanDataset::new(dim);
            for i in 0..npts {
                let p: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
                let l = if i % 2 == 0 { Label::Positive } else { Label::Negative };
                ds.push(p, l);
            }
            let ab = HammingAbductive::new(&ds, OddK::THREE);
            let knn = BooleanKnn::new(&ds, OddK::THREE);
            let x: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let fixed: Vec<usize> = (0..dim).filter(|_| rng.gen_bool(0.4)).collect();
            assert_eq!(
                ab.is_sufficient(&x, &fixed),
                brute::is_sufficient_reason(&knn, &x, &fixed),
                "round {round}: fixed={fixed:?}"
            );
        }
    }

    #[test]
    fn minimum_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(43);
        for round in 0..25 {
            let dim = rng.gen_range(2..6usize);
            let npts = rng.gen_range(3..7usize);
            let k = if rng.gen_bool(0.4) && npts >= 3 { OddK::THREE } else { OddK::ONE };
            let mut ds = BooleanDataset::new(dim);
            for i in 0..npts {
                let p: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
                let l = if i % 2 == 0 { Label::Positive } else { Label::Negative };
                ds.push(p, l);
            }
            let ab = HammingAbductive::new(&ds, k);
            let knn = BooleanKnn::new(&ds, k);
            let x: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let got = ab.minimum(&x);
            let want = brute::minimum_sufficient_reason(&knn, &x);
            assert_eq!(got.len(), want.len(), "round {round}: {got:?} vs {want:?}");
            assert!(brute::is_sufficient_reason(&knn, &x, &got));
        }
    }

    #[test]
    fn minimal_is_sufficient_and_minimal() {
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..20 {
            let dim = rng.gen_range(2..6usize);
            let npts = rng.gen_range(2..7usize);
            let mut ds = BooleanDataset::new(dim);
            for i in 0..npts {
                let p: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
                let l = if i % 2 == 0 { Label::Positive } else { Label::Negative };
                ds.push(p, l);
            }
            let ab = HammingAbductive::new(&ds, OddK::ONE);
            let knn = BooleanKnn::new(&ds, OddK::ONE);
            let x: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let minimal = ab.minimal(&x);
            assert!(brute::is_sufficient_reason(&knn, &x, &minimal));
            for i in 0..minimal.len() {
                let mut sub = minimal.clone();
                sub.remove(i);
                assert!(!brute::is_sufficient_reason(&knn, &x, &sub));
            }
        }
    }

    #[test]
    fn witness_agrees_on_fixed_and_flips_label() {
        let ds = example2();
        let ab = HammingAbductive::new(&ds, OddK::ONE);
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        let x = BitVec::zeros(3);
        match ab.check(&x, &[0]) {
            SrCheck::NotSufficient { witness } => {
                assert!(!witness.get(0));
                assert_ne!(knn.classify(&witness), knn.classify(&x));
            }
            SrCheck::Sufficient => panic!("{{0}} is not sufficient in Example 2"),
        }
    }
}
