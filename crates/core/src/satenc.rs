//! The SAT model of the discrete setting: an incremental encoding of
//! `f^k_{S⁺,S⁻}(z̄) = target` over variables `z̄ ∈ {0,1}ⁿ`.
//!
//! For k = 1 and `target = 0` this is **exactly the paper's novel encoding**
//! (§9.2): a selector `c_o` per negative point `ō` with clause `⋁ c_o`, and
//! per pair `(ō, s̄)` the guarded cardinality constraint
//!
//! > `c_o ⇒ Σ_{i∈Δ₀} ¬z_i + Σ_{i∈Δ₁} z_i ≥ ⌊(|Δ₀|+|Δ₁|)/2⌋ + 1`
//!
//! expressing `d_H(z̄, ō) < d_H(z̄, s̄)`. We generalize it to any odd k via
//! Proposition 1: selectors `s_a` over the witness class A (`Σ s_a ≥ (k+1)/2`),
//! exclusion selectors `t_c` over the other class B (`Σ t_c ≤ (k−1)/2`), and
//! per pair the constraint guarded by the conjunction `s_a ∧ ¬t_c` — two
//! guard literals of one native constraint, no per-pair variable or clause.
//!
//! All of that depends on the dataset, `k` and the target only. It is built
//! once into a [`DiscreteModel`], whose constraints the solver seals into a
//! shared prefix; [`DiscreteModel::instantiate`] clones it for one anchor
//! point `x̄` into a [`DiscreteInstance`] (`O(n + |S|)` variables and one
//! counter per constraint of its own) and adds what depends on `x̄`, as
//! assumption-guarded literals, so one instance serves every question about
//! that `x̄` incrementally:
//! * `e_i ⇒ z_i = x̄_i` — fixing coordinate `i` (sufficient-reason checks);
//! * `g_r ⇒ d_H(z̄, x̄) ≤ r` — distance bounds (counterfactual search).
//!
//! Each instance starts from the pristine model, so no learnt clause,
//! activity or phase crosses from one query to the next, and
//! [`DiscreteModel::build`] (`new` then `instantiate`) answers exactly as a
//! shared model does.

use knn_sat::{Lit, SolveResult, Solver, Var};
use knn_space::{BitVec, BooleanDataset, Label, OddK};
use std::collections::BTreeMap;
use std::mem::size_of;

/// The point-independent SAT model for "`z̄` is classified `target`" under
/// `f^k` on one dataset: build once, [`instantiate`](Self::instantiate) per
/// query. Only `&self` methods — nothing can solve (and so mutate) the
/// shared model itself.
pub struct DiscreteModel {
    /// Sealed template: `z` then `e` variables, then the encoding.
    solver: Solver,
    dim: usize,
    k: OddK,
    target: Label,
    /// Whether the constraint set is trivially unsatisfiable (no witness
    /// candidates at all).
    trivially_unsat: bool,
}

/// One query's model: a clone of a [`DiscreteModel`] sharing its sealed
/// constraints, anchored at `x̄`.
pub struct DiscreteInstance {
    solver: Solver,
    z: Vec<Var>,
    x: BitVec,
    eq_lits: Vec<Lit>,
    dist_guards: BTreeMap<usize, Lit>,
    trivially_unsat: bool,
}

impl DiscreteModel {
    /// Encodes "`z̄` is classified `target`" for dataset `ds` and
    /// neighborhood size `k`, and seals it.
    pub fn new(ds: &BooleanDataset, k: OddK, target: Label) -> Self {
        let n = ds.dim();
        let mut solver = Solver::new();
        // Variables 0..n are z, n..2n the e_i of `instantiate` — created
        // here so the numbering does not depend on the anchor.
        let z = solver.new_vars(n);
        solver.new_vars(n);

        // Witness class A and excluded class B per Proposition 1.
        let (a_label, strict) = match target {
            Label::Positive => (Label::Positive, false),
            Label::Negative => (Label::Negative, true),
        };
        let a_idx = ds.indices_of(a_label);
        let b_idx = ds.indices_of(a_label.flip());
        let maj = k.majority();
        let min_sz = k.minority();

        let mut trivially_unsat = false;
        if a_idx.len() < maj {
            trivially_unsat = true;
        } else {
            let s_a: Vec<Lit> = a_idx.iter().map(|_| solver.new_var().pos()).collect();
            solver.add_card_ge(&[], &s_a, maj as u32);
            // Exclusion selectors are only materialized when the budget is
            // positive; with min_sz = 0 (k = 1) the guard of a pair constraint
            // is the witness selector alone — the paper's exact encoding.
            let t_c: Vec<Lit> = if min_sz == 0 {
                Vec::new()
            } else {
                b_idx.iter().map(|_| solver.new_var().pos()).collect()
            };
            if !t_c.is_empty() && min_sz < t_c.len() {
                // At most min_sz exclusions: Σ ¬t_c ≥ |B| − min_sz.
                let neg_t: Vec<Lit> = t_c.iter().map(|l| l.negate()).collect();
                solver.add_card_ge(&[], &neg_t, (t_c.len() - min_sz) as u32);
            }
            for (ai, &a) in a_idx.iter().enumerate() {
                for (ci, &c) in b_idx.iter().enumerate() {
                    // Skip pairs the exclusion budget can always absorb.
                    if min_sz >= b_idx.len() {
                        continue;
                    }
                    let a_pt = ds.point(a);
                    let c_pt = ds.point(c);
                    let diff = a_pt.diff_indices(c_pt);
                    let d = diff.len();
                    // Bound for d(z,a) < d(z,c): agreements with a on the
                    // differing set ≥ ⌊d/2⌋+1; non-strict: ≥ ⌈d/2⌉.
                    let bound = if strict { d / 2 + 1 } else { d.div_ceil(2) };
                    let lits: Vec<Lit> = diff.iter().map(|&i| z[i].lit(a_pt.get(i))).collect();
                    // Guard: s_a ∧ ¬t_c ⇒ constraint (s_a alone at k = 1).
                    // The solver folds the guards into a clause when the
                    // bound is 1 or unreachable, and drops a zero bound.
                    let guards: &[Lit] =
                        if t_c.is_empty() { &[s_a[ai]] } else { &[s_a[ai], t_c[ci].negate()] };
                    solver.add_card_ge(guards, &lits, bound as u32);
                }
            }
        }
        solver.seal();
        DiscreteModel { solver, dim: n, k, target, trivially_unsat }
    }

    /// Builds the model and instantiates it at `x` in one step — exactly
    /// `DiscreteModel::new(ds, k, target).instantiate(x)`.
    pub fn build(ds: &BooleanDataset, k: OddK, x: &BitVec, target: Label) -> DiscreteInstance {
        DiscreteModel::new(ds, k, target).instantiate(x)
    }

    /// A fresh instance anchored at `x`: a clone sharing the sealed
    /// constraints, its search biased toward `x` (close counterfactuals are
    /// found early, so the descending distance search only has to prove
    /// them optimal), plus the fix clauses `e_i ⇒ z_i = x_i`.
    pub fn instantiate(&self, x: &BitVec) -> DiscreteInstance {
        let n = self.dim;
        assert_eq!(x.len(), n, "anchor dimension differs from the model's");
        let mut solver = self.solver.clone();
        let z: Vec<Var> = (0..n as u32).map(Var).collect();
        let eq_lits: Vec<Lit> = (n as u32..2 * n as u32).map(|v| Var(v).pos()).collect();
        for (i, &v) in z.iter().enumerate() {
            solver.set_phase(v, x.get(i));
        }
        for i in 0..n {
            solver.add_clause(&[eq_lits[i].negate(), z[i].lit(x.get(i))]);
        }
        DiscreteInstance {
            solver,
            z,
            x: x.clone(),
            eq_lits,
            dist_guards: BTreeMap::new(),
            trivially_unsat: self.trivially_unsat,
        }
    }

    /// The neighborhood size the model encodes.
    pub fn k(&self) -> OddK {
        self.k
    }

    /// The label the model's solutions are classified as.
    pub fn target(&self) -> Label {
        self.target
    }

    /// Estimated bytes of the model: the sealed constraints every instance
    /// shares, plus the template state each instance copies.
    pub fn approx_bytes(&self) -> usize {
        size_of::<Self>() + self.solver.sealed_bytes() + self.solver.local_bytes()
    }
}

impl std::fmt::Debug for DiscreteModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscreteModel")
            .field("dim", &self.dim)
            .field("k", &self.k)
            .field("target", &self.target)
            .field("vars", &self.solver.num_vars())
            .finish_non_exhaustive()
    }
}

impl DiscreteInstance {
    /// Estimated bytes this instance owns alone — the shared sealed
    /// constraints are counted once, in [`DiscreteModel::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        size_of::<Self>()
            + self.solver.local_bytes()
            + self.x.approx_bytes()
            + (self.z.len() + self.eq_lits.len()) * size_of::<Var>()
            + self.dist_guards.len() * size_of::<(usize, Lit)>()
    }

    /// The guard literal for `d_H(z, x) ≤ r`, creating it on first use.
    fn distance_guard(&mut self, r: usize) -> Lit {
        let n = self.z.len();
        if let Some(&g) = self.dist_guards.get(&r) {
            return g;
        }
        let g = self.solver.new_var().pos();
        // Σ agreements with x ≥ n − r.
        let agree: Vec<Lit> = (0..n).map(|i| self.z[i].lit(self.x.get(i))).collect();
        self.solver.add_card_ge(&[g], &agree, (n - r) as u32);
        self.dist_guards.insert(r, g);
        g
    }

    fn extract(&self) -> BitVec {
        BitVec::from_bools(
            &self.z.iter().map(|&v| self.solver.value(v).unwrap_or(false)).collect::<Vec<_>>(),
        )
    }

    /// Is there a `z` with `f(z) = target` agreeing with `x` on `fixed`?
    /// (The complement of Check-SR: SAT ⇔ `fixed` is *not* sufficient.)
    pub fn solve_with_fixed(&mut self, fixed: &[usize]) -> Option<BitVec> {
        if self.trivially_unsat {
            return None;
        }
        let assumptions: Vec<Lit> = fixed.iter().map(|&i| self.eq_lits[i]).collect();
        match self.solver.solve_with(&assumptions) {
            SolveResult::Sat => Some(self.extract()),
            SolveResult::Unsat => None,
        }
    }

    /// Is there a `z` with `f(z) = target` and `d_H(z, x) ≤ r`?
    pub fn solve_within(&mut self, r: usize) -> Option<BitVec> {
        if self.trivially_unsat {
            return None;
        }
        let g = self.distance_guard(r.min(self.z.len()));
        match self.solver.solve_with(&[g]) {
            SolveResult::Sat => Some(self.extract()),
            SolveResult::Unsat => None,
        }
    }

    /// Budgeted variant of [`DiscreteInstance::solve_within`]: `None` when the
    /// conflict budget ran out before an answer.
    pub fn solve_within_limited(&mut self, r: usize, max_conflicts: u64) -> Option<Option<BitVec>> {
        if self.trivially_unsat {
            return Some(None);
        }
        let g = self.distance_guard(r.min(self.z.len()));
        match self.solver.solve_limited(&[g], max_conflicts) {
            Some(SolveResult::Sat) => Some(Some(self.extract())),
            Some(SolveResult::Unsat) => Some(None),
            None => None,
        }
    }

    /// Anytime closest-counterfactual search: descends like
    /// [`DiscreteInstance::closest`], but spends at most `max_conflicts` CDCL
    /// conflicts per step, the first included. Returns `None` when the
    /// budget ran out before any witness was found; otherwise the best
    /// witness (`None` if there is none) and whether it was **proven**
    /// optimal (`true`) or is only budget-best (`false`).
    pub fn closest_budgeted(
        &mut self,
        max_conflicts: u64,
        floor: usize,
    ) -> Option<Option<(BitVec, usize, bool)>> {
        let n = self.z.len();
        let Some(first) = self.solve_within_limited(n, max_conflicts)? else {
            return Some(None);
        };
        let mut best_d = self.x.hamming(&first);
        let mut best = first;
        let proven = loop {
            if best_d <= floor {
                break true;
            }
            match self.solve_within_limited(best_d - 1, max_conflicts) {
                Some(Some(z)) => {
                    best_d = self.x.hamming(&z);
                    best = z;
                }
                Some(None) => break true,
                None => break false,
            }
        };
        Some(Some((best, best_d, proven)))
    }

    /// The closest `z` with `f(z) = target`, given that none lies closer
    /// than `floor` (0 when nothing is known).
    ///
    /// §9.2 suggests binary or linear search on the distance bound. UNSAT
    /// queries (bounds below the optimum) are by far the hardest for a CDCL
    /// solver, so the default is a **descending** search: start from the
    /// trivial bound, repeatedly ask for something strictly better than the
    /// incumbent, and stop at the single final UNSAT proof of optimality —
    /// or without one, once the incumbent reaches `floor`.
    pub fn closest(&mut self, floor: usize) -> Option<(BitVec, usize)> {
        let n = self.z.len();
        let first = self.solve_within(n)?;
        let mut best_d = self.x.hamming(&first);
        let mut best = first;
        while best_d > floor {
            match self.solve_within(best_d - 1) {
                Some(z) => {
                    let d = self.x.hamming(&z);
                    debug_assert!(d < best_d);
                    best = z;
                    best_d = d;
                }
                None => break,
            }
        }
        Some((best, best_d))
    }

    /// [`DiscreteInstance::closest`] with classic binary search (kept for the
    /// search-strategy comparison in the benchmark suite).
    pub fn closest_binary_search(&mut self) -> Option<(BitVec, usize)> {
        let n = self.z.len();
        let first = self.solve_within(n)?;
        let mut best_d = self.x.hamming(&first);
        let mut best = first;
        let (mut lo, mut hi) = (0usize, best_d);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.solve_within(mid) {
                Some(z) => {
                    let d = self.x.hamming(&z);
                    debug_assert!(d <= mid);
                    best = z;
                    best_d = d;
                    hi = d;
                }
                None => lo = mid + 1,
            }
        }
        Some((best, best_d))
    }

    /// Solver statistics (conflicts) for the benchmark harness.
    pub fn conflicts(&self) -> u64 {
        self.solver.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::BooleanKnn;

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
    fn model_finds_positive_witnesses() {
        let ds = example2();
        let x = BitVec::zeros(3);
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        // f(x) = 0; a positive-classified z exists (e.g. 111).
        let mut m = DiscreteModel::build(&ds, OddK::ONE, &x, Label::Positive);
        let z = m.solve_with_fixed(&[]).expect("positive region nonempty");
        assert_eq!(knn.classify(&z), Label::Positive);
    }

    #[test]
    fn fixed_coordinates_respected() {
        let ds = example2();
        let x = BitVec::zeros(3);
        let mut m = DiscreteModel::build(&ds, OddK::ONE, &x, Label::Positive);
        // {2} (component 3) is a sufficient reason in Example 2, so fixing it
        // makes the search UNSAT; {0} is not sufficient.
        assert!(m.solve_with_fixed(&[2]).is_none());
        let w = m.solve_with_fixed(&[0]).expect("{0} is not sufficient");
        assert!(!w.get(0));
    }

    #[test]
    fn closest_counterfactual_distance() {
        let ds = example2();
        let x = BitVec::zeros(3);
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        assert_eq!(knn.classify(&x), Label::Negative);
        let mut m = DiscreteModel::build(&ds, OddK::ONE, &x, Label::Positive);
        let (z, d) = m.closest(0).expect("counterfactual exists");
        assert_eq!(d, 2, "brute force says the closest positive point is at 2");
        assert_eq!(knn.classify(&z), Label::Positive);
        assert_eq!(x.hamming(&z), 2);
    }

    #[test]
    fn model_agrees_with_brute_force_randomly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(55);
        for round in 0..30 {
            let dim = rng.gen_range(2..7usize);
            let npts = rng.gen_range(3..8usize);
            let k = if npts >= 3 && rng.gen_bool(0.4) { OddK::THREE } else { OddK::ONE };
            let mut ds = BooleanDataset::new(dim);
            for i in 0..npts {
                let p: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
                let l = if i < npts.div_ceil(2) { Label::Positive } else { Label::Negative };
                ds.push(p, l);
            }
            let knn = BooleanKnn::new(&ds, k);
            let x: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let fx = knn.classify(&x);
            let target = fx.flip();
            let mut m = DiscreteModel::build(&ds, k, &x, target);
            let brute = crate::brute::closest_counterfactual(&knn, &x);
            let sat = m.closest(0);
            match (brute, sat) {
                (None, None) => {}
                (Some((_, bd)), Some((z, sd))) => {
                    assert_eq!(bd, sd, "round {round}: distance mismatch");
                    assert_eq!(knn.classify(&z), target, "round {round}: bad witness");
                }
                (b, s) => panic!("round {round}: brute {b:?} vs sat {s:?}"),
            }
        }
    }

    #[test]
    fn a_floor_at_or_below_the_optimum_keeps_the_distance() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(58);
        for round in 0..20 {
            let dim = rng.gen_range(4..9usize);
            let k = if round % 2 == 0 { OddK::ONE } else { OddK::THREE };
            let mut ds = BooleanDataset::new(dim);
            for i in 0..8 {
                let l = if i % 2 == 0 { Label::Positive } else { Label::Negative };
                ds.push((0..dim).map(|_| rng.gen_bool(0.5)).collect(), l);
            }
            let x: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let model = DiscreteModel::new(&ds, k, BooleanKnn::new(&ds, k).classify(&x).flip());
            let Some((_, best)) = model.instantiate(&x).closest(0) else { continue };
            for floor in 0..=best {
                let (z, d) = model.instantiate(&x).closest(floor).unwrap();
                assert_eq!((d, x.hamming(&z)), (best, best), "round {round}, floor {floor}");
            }
        }
    }

    #[test]
    fn a_tiny_budget_also_limits_the_first_step() {
        use knn_datasets::random::{random_boolean_dataset, random_boolean_point};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // At this seed the first (unbounded-distance) solve needs 9 conflicts.
        let mut rng = StdRng::seed_from_u64(0);
        let ds = random_boolean_dataset(&mut rng, 300, 16, 0.5);
        let x = random_boolean_point(&mut rng, 16);
        let k = OddK::THREE;
        let model = DiscreteModel::new(&ds, k, BooleanKnn::new(&ds, k).classify(&x).flip());
        assert_eq!(model.instantiate(&x).closest_budgeted(2, 0), None);
        let (_, d, proven) = model.instantiate(&x).closest_budgeted(u64::MAX, 0).unwrap().unwrap();
        assert!(proven);
        assert_eq!(Some(d), model.instantiate(&x).closest(0).map(|(_, d)| d));
    }

    #[test]
    fn k3_fixed_search_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(56);
        for round in 0..25 {
            let dim = rng.gen_range(2..6usize);
            let npts = rng.gen_range(4..8usize);
            let mut ds = BooleanDataset::new(dim);
            for i in 0..npts {
                let p: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
                let l = if i % 2 == 0 { Label::Positive } else { Label::Negative };
                ds.push(p, l);
            }
            let knn = BooleanKnn::new(&ds, OddK::THREE);
            let x: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let target = knn.classify(&x).flip();
            let fixed: Vec<usize> = (0..dim).filter(|_| rng.gen_bool(0.4)).collect();
            let mut m = DiscreteModel::build(&ds, OddK::THREE, &x, target);
            let sat_says_counterexample = m.solve_with_fixed(&fixed).is_some();
            let brute_sufficient = crate::brute::is_sufficient_reason(&knn, &x, &fixed);
            assert_eq!(
                sat_says_counterexample, !brute_sufficient,
                "round {round}: fixed={fixed:?}"
            );
        }
    }

    #[test]
    fn instances_own_little_and_answer_as_fresh_builds() {
        use knn_datasets::random::{random_boolean_dataset, random_boolean_point};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(57);
        let ds = random_boolean_dataset(&mut rng, 300, 16, 0.5);
        let small = random_boolean_dataset(&mut rng, 40, 10, 0.5);
        for k in [OddK::ONE, OddK::THREE] {
            // The pair constraints stay in the shared prefix: an instance
            // owns its variables, clauses and one counter per constraint.
            let model = DiscreteModel::new(&ds, k, Label::Positive);
            let inst = model.instantiate(&random_boolean_point(&mut rng, 16));
            assert!(
                inst.approx_bytes() * 20 < model.approx_bytes(),
                "k={}: instance {} B vs model {} B",
                k.get(),
                inst.approx_bytes(),
                model.approx_bytes()
            );
            // Instances of one model, solved in turn, answer exactly as
            // models built per query do: nothing carries between them.
            let model = DiscreteModel::new(&small, k, Label::Negative);
            for _ in 0..4 {
                let x = random_boolean_point(&mut rng, 10);
                let fresh = DiscreteModel::build(&small, k, &x, Label::Negative).closest(0);
                assert_eq!(model.instantiate(&x).closest(0), fresh, "k={}", k.get());
            }
        }
    }
}
