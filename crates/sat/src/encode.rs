//! CNF encodings of cardinality constraints (sequential counter).
//!
//! These are the *baseline* against which native cardinality propagation is
//! ablated (`benches/substrates.rs`): the paper's pitch for
//! cardinality-cadical is precisely that native klauses beat CNF encodings.
//!
//! The encoding is Sinz's sequential counter for `Σ ℓᵢ ≤ k`, applied to
//! `Σ ℓᵢ ≥ b` via `Σ ¬ℓᵢ ≤ n − b`. A guard literal `g` weakens every emitted
//! clause with `¬g`, which gives exactly the guarded semantics
//! `g ⇒ (Σ ℓᵢ ≥ b)`.

use crate::lit::Lit;
use crate::solver::Solver;

/// Adds `guard ⇒ (Σ lits ≥ bound)` to `solver` as pure CNF using the
/// sequential-counter encoding (auxiliary variables are created internally).
pub fn add_card_ge_cnf(solver: &mut Solver, guard: Option<Lit>, lits: &[Lit], bound: u32) {
    if bound == 0 {
        return;
    }
    let n = lits.len();
    if (bound as usize) > n {
        match guard {
            Some(g) => {
                solver.add_clause(&[g.negate()]);
            }
            None => {
                // Unsatisfiable: encode with the empty clause.
                solver.add_clause(&[]);
            }
        }
        return;
    }
    // Σ lits ≥ bound  ⟺  Σ ¬lits ≤ n − bound.
    let k = (n as u32 - bound) as usize;
    let neg: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
    add_at_most_k(solver, guard, &neg, k);
}

/// Sinz sequential counter for `Σ lits ≤ k`, guard-weakened.
fn add_at_most_k(solver: &mut Solver, guard: Option<Lit>, lits: &[Lit], k: usize) {
    let n = lits.len();
    let emit = |solver: &mut Solver, clause: &mut Vec<Lit>| {
        if let Some(g) = guard {
            clause.push(g.negate());
        }
        solver.add_clause(clause);
    };
    if k == 0 {
        for &l in lits {
            emit(solver, &mut vec![l.negate()]);
        }
        return;
    }
    if n <= k {
        return; // trivially satisfied
    }
    // s[i][j] ⟺ at least j+1 of lits[0..=i] are true, for j < k.
    let mut s: Vec<Vec<Lit>> = Vec::with_capacity(n - 1);
    for _ in 0..n - 1 {
        s.push((0..k).map(|_| solver.new_var().pos()).collect());
    }
    // Base: l0 → s[0][0]; ¬s[0][j] for j ≥ 1.
    emit(solver, &mut vec![lits[0].negate(), s[0][0]]);
    for j in 1..k {
        emit(solver, &mut vec![s[0][j].negate()]);
    }
    for i in 1..n - 1 {
        // lᵢ → s[i][0]; s[i−1][0] → s[i][0]
        emit(solver, &mut vec![lits[i].negate(), s[i][0]]);
        emit(solver, &mut vec![s[i - 1][0].negate(), s[i][0]]);
        for j in 1..k {
            // lᵢ ∧ s[i−1][j−1] → s[i][j];  s[i−1][j] → s[i][j]
            emit(solver, &mut vec![lits[i].negate(), s[i - 1][j - 1].negate(), s[i][j]]);
            emit(solver, &mut vec![s[i - 1][j].negate(), s[i][j]]);
        }
        // Overflow: lᵢ ∧ s[i−1][k−1] → ⊥
        emit(solver, &mut vec![lits[i].negate(), s[i - 1][k - 1].negate()]);
    }
    // Last literal overflow.
    emit(solver, &mut vec![lits[n - 1].negate(), s[n - 2][k - 1].negate()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    fn count_true(s: &Solver, vars: &[crate::lit::Var]) -> usize {
        vars.iter().filter(|&&v| s.value(v) == Some(true)).count()
    }

    #[test]
    fn cnf_at_least_sat() {
        let mut s = Solver::new();
        let v = s.new_vars(5);
        let lits: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        add_card_ge_cnf(&mut s, None, &lits, 3);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(count_true(&s, &v) >= 3);
    }

    #[test]
    fn cnf_at_least_unsat_when_too_many_forced_false() {
        let mut s = Solver::new();
        let v = s.new_vars(4);
        let lits: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        add_card_ge_cnf(&mut s, None, &lits, 3);
        s.add_clause(&[v[0].neg()]);
        s.add_clause(&[v[1].neg()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn cnf_guarded_matches_native_semantics() {
        let mut s = Solver::new();
        let g = s.new_var();
        let v = s.new_vars(3);
        let lits: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        add_card_ge_cnf(&mut s, Some(g.pos()), &lits, 3);
        s.add_clause(&[v[1].neg()]);
        // Guard must be forced off.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(g), Some(false));
        // Under the guard assumption it is unsat.
        assert_eq!(s.solve_with(&[g.pos()]), SolveResult::Unsat);
    }

    #[test]
    fn cnf_and_native_agree_exhaustively() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let n = rng.gen_range(2..7usize);
            let bound = rng.gen_range(1..=n as u32);
            let forced_false = rng.gen_range(0..=n);
            let build = |native: bool| -> bool {
                let mut s = Solver::new();
                let v = s.new_vars(n);
                let lits: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
                if native {
                    s.add_card_ge(&[], &lits, bound);
                } else {
                    add_card_ge_cnf(&mut s, None, &lits, bound);
                }
                for x in v.iter().take(forced_false) {
                    s.add_clause(&[x.neg()]);
                }
                s.solve() == SolveResult::Sat
            };
            assert_eq!(build(true), build(false), "n={n} bound={bound} ff={forced_false}");
        }
    }

    #[test]
    fn bound_exceeding_length() {
        let mut s = Solver::new();
        let v = s.new_vars(2);
        let lits: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        add_card_ge_cnf(&mut s, None, &lits, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
