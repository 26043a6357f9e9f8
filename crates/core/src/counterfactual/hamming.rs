//! Counterfactuals in the discrete setting — NP-complete (Theorem 6) — with
//! the paper's two solver routes (§9.2) plus a brute-force validator:
//!
//! * [`closest_sat`]: the novel guarded-cardinality SAT encoding with
//!   incremental descending search on the distance (cardinality-cadical
//!   role). These functions build a [`DiscreteModel`] for the call and
//!   always solve by SAT, as the paper's experiments do. The batch engine
//!   serves a counterfactual by [`crate::ball::first_flip`] first, which
//!   answers exactly whenever the answer's radius fits under
//!   [`crate::ball::ENUMERATION_CAP`]; only past the cap does it call
//!   [`DiscreteModel::instantiate`]`(x).closest(floor)` on the epoch's
//!   prebuilt model, from the radius enumeration has ruled out. The SAT
//!   fallback keeps its own witnesses: it does not adopt enumeration's
//!   canonical (nearest, lexicographically first) rule;
//! * [`closest_milp`]: the IQP model, linearized exactly over binary `ȳ`
//!   (`(x̄ᵢ−ȳᵢ)²` is linear in `ȳᵢ` for fixed `x̄ᵢ ∈ {0,1}`) and solved by
//!   branch & bound (Gurobi role); k = 1 as in the paper's experiments;
//! * [`crate::brute::closest_counterfactual`]: exhaustive reference.

use crate::classifier::BooleanKnn;
use crate::satenc::DiscreteModel;
use knn_lp::Rel;
use knn_milp::{MilpConfig, MilpOutcome, MilpProblem};
use knn_space::{BitVec, BooleanDataset, Label, OddK};

/// The model [`closest_sat`] and friends need for `x`: target = the
/// opposite of `f(x)`.
fn model_for(ds: &BooleanDataset, k: OddK, x: &BitVec) -> DiscreteModel {
    DiscreteModel::new(ds, k, BooleanKnn::new(ds, k).classify(x).flip())
}

/// Closest counterfactual via the SAT encoding (any odd k).
/// Returns the witness and its Hamming distance, or `None` if the opposite
/// region is empty.
pub fn closest_sat(ds: &BooleanDataset, k: OddK, x: &BitVec) -> Option<(BitVec, usize)> {
    let out = model_for(ds, k, x).instantiate(x).closest(0);
    if let Some((z, d)) = &out {
        let knn = BooleanKnn::new(ds, k);
        debug_assert_ne!(knn.classify(z), knn.classify(x));
        debug_assert_eq!(x.hamming(z), *d);
    }
    out
}

/// Anytime variant of [`closest_sat`]: spends at most `max_conflicts` CDCL
/// conflicts per descending step, the first included. `None` when the
/// budget ran out before any witness was found; otherwise the third
/// component reports whether the returned distance was proven optimal
/// (`true`) or is only the best witness found within budget (`false`).
/// Intended for large structured instances, where proving the last
/// distance optimal costs the most.
pub fn closest_sat_budgeted(
    ds: &BooleanDataset,
    k: OddK,
    x: &BitVec,
    max_conflicts: u64,
) -> Option<Option<(BitVec, usize, bool)>> {
    let out = model_for(ds, k, x).instantiate(x).closest_budgeted(max_conflicts, 0);
    if let Some(Some((z, d, _))) = &out {
        let knn = BooleanKnn::new(ds, k);
        debug_assert_ne!(knn.classify(z), knn.classify(x));
        debug_assert_eq!(x.hamming(z), *d);
    }
    out
}

/// Decision form via SAT: counterfactual within distance `l`?
pub fn within_sat(ds: &BooleanDataset, k: OddK, x: &BitVec, l: usize) -> bool {
    model_for(ds, k, x).instantiate(x).solve_within(l).is_some()
}

/// Closest counterfactual via the linearized IQP model (k = 1, as in §9.2).
///
/// Variables: binary `y_i`; continuous `d₊, d₋` tracking
/// `min_{s∈S⁺} d_H(y,s)` and `min_{o∈S⁻} d_H(y,o)` through selector binaries;
/// the flip constraint is `d₋ ≤ d₊ − 1` (strict `<` on integers) when `x̄` is
/// positive, `d₊ ≤ d₋` when negative. Objective `d_H(x̄, ȳ)` is linear.
pub fn closest_milp(ds: &BooleanDataset, x: &BitVec) -> Option<(BitVec, usize)> {
    closest_milp_with(ds, x, MilpConfig::default())
        .expect("default node budget exhausted on discrete counterfactual MILP")
}

/// [`closest_milp`] with an explicit node budget; `Err(())` on budget
/// exhaustion (used by the Figure 5a harness to keep sweeps bounded).
pub fn closest_milp_with(
    ds: &BooleanDataset,
    x: &BitVec,
    config: MilpConfig,
) -> Result<Option<(BitVec, usize)>, ()> {
    let n = ds.dim();
    assert_eq!(x.len(), n);
    let knn = BooleanKnn::new(ds, OddK::ONE);
    let label = knn.classify(x);
    let pos = ds.indices_of(Label::Positive);
    let neg = ds.indices_of(Label::Negative);
    if pos.is_empty() || neg.is_empty() {
        return Ok(None);
    }
    let big_m = (n + 2) as f64;

    // Layout: y (n) | d+ | d- | v+ (|S+|) | v- (|S-|)
    let y0 = 0;
    let dp = n;
    let dm = n + 1;
    let vp0 = n + 2;
    let vm0 = vp0 + pos.len();
    let total = vm0 + neg.len();
    let mut m = MilpProblem::new(total);
    for i in 0..n {
        m.set_binary(y0 + i);
    }
    m.set_lower(dp, 0.0);
    m.set_upper(dp, n as f64);
    m.set_lower(dm, 0.0);
    m.set_upper(dm, n as f64);
    for j in 0..pos.len() {
        m.set_binary(vp0 + j);
    }
    for j in 0..neg.len() {
        m.set_binary(vm0 + j);
    }

    // dist(y, s) = Σ_{s_i=0} y_i + Σ_{s_i=1} (1 − y_i) = c_s + Σ ±y_i.
    let dist_expr = |s: &BitVec| -> (Vec<(usize, f64)>, f64) {
        let mut coeffs = Vec::with_capacity(n);
        let mut cnst = 0.0;
        for i in 0..n {
            if s.get(i) {
                coeffs.push((y0 + i, -1.0));
                cnst += 1.0;
            } else {
                coeffs.push((y0 + i, 1.0));
            }
        }
        (coeffs, cnst)
    };

    let add_min_constraints = |m: &mut MilpProblem, dvar: usize, v0: usize, idxs: &[usize]| {
        for (j, &pi) in idxs.iter().enumerate() {
            let (coeffs, cnst) = dist_expr(ds.point(pi));
            // d ≤ dist(y, s):  d − Σ ±y ≤ c
            let mut row = coeffs.clone();
            row.push((dvar, 1.0));
            m.add_constraint(
                row.iter().map(|&(v, c)| (v, if v == dvar { c } else { -c })).collect(),
                Rel::Le,
                cnst,
            );
            // d ≥ dist(y, s) − M(1 − v_j):  d − Σ ±y + M v_j ≥ c − M + ... →
            // encode as: Σ ±y − d + M(1−v_j) ≥ ... keep it direct:
            // d − (c + Σ ±y) ≥ −M(1 − v_j)
            let mut row2: Vec<(usize, f64)> = coeffs.iter().map(|&(v, c)| (v, -c)).collect();
            row2.push((dvar, 1.0));
            row2.push((v0 + j, -big_m));
            m.add_constraint(row2, Rel::Ge, cnst - big_m);
        }
        // Exactly one selector.
        m.add_constraint(
            idxs.iter().enumerate().map(|(j, _)| (v0 + j, 1.0)).collect(),
            Rel::Eq,
            1.0,
        );
    };
    add_min_constraints(&mut m, dp, vp0, &pos);
    add_min_constraints(&mut m, dm, vm0, &neg);

    // Flip constraint.
    match label {
        Label::Positive => {
            // want f(y) = 0: d- < d+ ⟺ d- ≤ d+ − 1 on integer distances.
            m.add_constraint(vec![(dm, 1.0), (dp, -1.0)], Rel::Le, -1.0);
        }
        Label::Negative => {
            // want f(y) = 1: d+ ≤ d-.
            m.add_constraint(vec![(dp, 1.0), (dm, -1.0)], Rel::Le, 0.0);
        }
    }

    // Objective: Hamming distance to x.
    let mut objective = vec![0.0; total];
    let mut const_term = 0.0;
    for i in 0..n {
        if x.get(i) {
            objective[y0 + i] = -1.0;
            const_term += 1.0;
        } else {
            objective[y0 + i] = 1.0;
        }
    }
    // Unless the caller chose otherwise, branch on the min-selector
    // indicators before the coordinate flips: fixing which training point
    // attains each min collapses the big-M rows to plain distance bounds.
    let mut config = config;
    if config.branch_priority.is_empty() {
        let mut prio = vec![0.0; total];
        for p in prio.iter_mut().skip(vp0) {
            *p = 1.0;
        }
        config.branch_priority = prio;
    }
    match m.solve(&objective, knn_lp::Objective::Minimize, config) {
        MilpOutcome::Optimal { x: sol, value } => {
            let y = BitVec::from_bools(&(0..n).map(|i| sol[y0 + i] > 0.5).collect::<Vec<_>>());
            let d = (value + const_term).round() as usize;
            debug_assert_eq!(x.hamming(&y), d);
            debug_assert_ne!(BooleanKnn::new(ds, OddK::ONE).classify(&y), label);
            Ok(Some((y, d)))
        }
        MilpOutcome::Infeasible => Ok(None),
        MilpOutcome::BudgetExhausted { .. } => Err(()),
        MilpOutcome::Unbounded => unreachable!("bounded binary model"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(rng: &mut StdRng, dim: usize, npts: usize) -> BooleanDataset {
        let mut ds = BooleanDataset::new(dim);
        for i in 0..npts {
            let p: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let l = if i % 2 == 0 { Label::Positive } else { Label::Negative };
            ds.push(p, l);
        }
        ds
    }

    #[test]
    fn sat_matches_brute_force_k1() {
        let mut rng = StdRng::seed_from_u64(61);
        for round in 0..40 {
            let dim = rng.gen_range(2..8usize);
            let npts = rng.gen_range(2..9usize);
            let ds = random_dataset(&mut rng, dim, npts);
            let knn = BooleanKnn::new(&ds, OddK::ONE);
            let x: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let brute = brute::closest_counterfactual(&knn, &x);
            let sat = closest_sat(&ds, OddK::ONE, &x);
            match (brute, sat) {
                (None, None) => {}
                (Some((_, bd)), Some((_, sd))) => {
                    assert_eq!(bd, sd, "round {round}: distance mismatch")
                }
                (b, s) => panic!("round {round}: {b:?} vs {s:?}"),
            }
        }
    }

    #[test]
    fn milp_matches_brute_force_k1() {
        let mut rng = StdRng::seed_from_u64(62);
        for round in 0..25 {
            let dim = rng.gen_range(2..6usize);
            let npts = rng.gen_range(2..7usize);
            let ds = random_dataset(&mut rng, dim, npts);
            let knn = BooleanKnn::new(&ds, OddK::ONE);
            let x: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let brute = brute::closest_counterfactual(&knn, &x);
            let milp = closest_milp(&ds, &x);
            match (brute, milp) {
                (None, None) => {}
                (Some((_, bd)), Some((_, md))) => {
                    assert_eq!(bd, md, "round {round}: distance mismatch")
                }
                (b, m) => panic!("round {round}: {b:?} vs {m:?}"),
            }
        }
    }

    #[test]
    fn sat_matches_brute_force_k3() {
        let mut rng = StdRng::seed_from_u64(63);
        for round in 0..25 {
            let dim = rng.gen_range(2..6usize);
            let npts = rng.gen_range(4..8usize);
            let ds = random_dataset(&mut rng, dim, npts);
            let knn = BooleanKnn::new(&ds, OddK::THREE);
            let x: BitVec = (0..dim).map(|_| rng.gen_bool(0.5)).collect();
            let brute = brute::closest_counterfactual(&knn, &x);
            let sat = closest_sat(&ds, OddK::THREE, &x);
            match (brute, sat) {
                (None, None) => {}
                (Some((_, bd)), Some((_, sd))) => {
                    assert_eq!(bd, sd, "round {round}: distance mismatch")
                }
                (b, s) => panic!("round {round}: {b:?} vs {s:?}"),
            }
        }
    }

    #[test]
    fn within_decision_consistent() {
        let mut rng = StdRng::seed_from_u64(64);
        let ds = random_dataset(&mut rng, 5, 6);
        let x: BitVec = (0..5).map(|_| rng.gen_bool(0.5)).collect();
        if let Some((_, d)) = closest_sat(&ds, OddK::ONE, &x) {
            assert!(within_sat(&ds, OddK::ONE, &x, d));
            if d > 0 {
                assert!(!within_sat(&ds, OddK::ONE, &x, d - 1));
            }
        }
    }

    #[test]
    fn moderate_size_sat_solves_quickly() {
        // A smoke test at Figure-5-like (scaled-down) parameters.
        let mut rng = StdRng::seed_from_u64(65);
        let ds = knn_datasets::random::random_boolean_dataset(&mut rng, 60, 40, 0.5);
        let x = knn_datasets::random::random_boolean_point(&mut rng, 40);
        let (z, d) = closest_sat(&ds, OddK::ONE, &x).expect("both classes present");
        assert!((1..=40).contains(&d));
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        assert_ne!(knn.classify(&z), knn.classify(&x));
    }
}
