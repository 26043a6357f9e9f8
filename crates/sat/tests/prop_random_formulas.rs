//! Property tests for the CDCL solver: on arbitrary small formulas (clauses
//! plus cardinality constraints with zero to two conjoined guards), the
//! solver's verdict must match exhaustive enumeration, and every `Sat` model
//! must actually satisfy every constraint. Sealing and cloning must leave
//! the original solver's search untouched.

use knn_sat::{Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

/// One literal per variable index (no duplicate / complementary pairs);
/// guards may repeat or contradict each other.
#[derive(Clone, Debug)]
struct CardSpec {
    guards: Vec<(usize, bool)>,
    lits: Vec<(usize, bool)>,
    bound: u32,
}

#[derive(Clone, Debug)]
struct Formula {
    nvars: usize,
    clauses: Vec<Vec<(usize, bool)>>,
    cards: Vec<CardSpec>,
}

fn clause_strategy(nvars: usize) -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::btree_map(0..nvars, any::<bool>(), 1..=3.min(nvars))
        .prop_map(|m| m.into_iter().collect())
}

fn card_strategy(nvars: usize) -> impl Strategy<Value = CardSpec> {
    (
        prop::collection::vec((0..nvars, any::<bool>()), 0..=2),
        prop::collection::btree_map(0..nvars, any::<bool>(), 2..=nvars),
        1..=4u32,
    )
        .prop_map(|(guards, lits, bound)| CardSpec {
            guards,
            lits: lits.into_iter().collect(),
            bound,
        })
}

fn formula_over(nvars: usize) -> impl Strategy<Value = Formula> {
    (
        prop::collection::vec(clause_strategy(nvars), 0..8),
        prop::collection::vec(card_strategy(nvars), 0..4),
    )
        .prop_map(move |(clauses, cards)| Formula { nvars, clauses, cards })
}

fn formula_strategy() -> impl Strategy<Value = Formula> {
    (3..=9usize).prop_flat_map(formula_over)
}

/// Two formulas over the same variables.
fn formula_pair_strategy() -> impl Strategy<Value = (Formula, Formula)> {
    (3..=9usize).prop_flat_map(|nvars| (formula_over(nvars), formula_over(nvars)))
}

fn lit_true(assign: u32, (v, pos): (usize, bool)) -> bool {
    ((assign >> v) & 1 == 1) == pos
}

fn brute_force(f: &Formula) -> Option<u32> {
    'outer: for assign in 0u32..(1 << f.nvars) {
        for c in &f.clauses {
            if !c.iter().any(|&l| lit_true(assign, l)) {
                continue 'outer;
            }
        }
        for card in &f.cards {
            let active = card.guards.iter().all(|&g| lit_true(assign, g));
            if active {
                let sum = card.lits.iter().filter(|&&l| lit_true(assign, l)).count();
                if (sum as u32) < card.bound {
                    continue 'outer;
                }
            }
        }
        return Some(assign);
    }
    None
}

fn lits_of(spec: &[(usize, bool)]) -> Vec<Lit> {
    spec.iter().map(|&(v, pos)| Var(v as u32).lit(pos)).collect()
}

fn add_clauses(s: &mut Solver, f: &Formula) {
    for c in &f.clauses {
        s.add_clause(&lits_of(c));
    }
}

fn add_card(s: &mut Solver, card: &CardSpec) {
    s.add_card_ge(&lits_of(&card.guards), &lits_of(&card.lits), card.bound);
}

fn build_solver(f: &Formula) -> Solver {
    let mut s = Solver::new();
    s.new_vars(f.nvars);
    add_clauses(&mut s, f);
    for card in &f.cards {
        add_card(&mut s, card);
    }
    s
}

/// [`build_solver`], sealing after the first half of the cards and again
/// after the rest.
fn build_sealed(f: &Formula) -> Solver {
    let mut s = Solver::new();
    s.new_vars(f.nvars);
    add_clauses(&mut s, f);
    let half = f.cards.len() / 2;
    for card in &f.cards[..half] {
        add_card(&mut s, card);
    }
    s.seal();
    for card in &f.cards[half..] {
        add_card(&mut s, card);
    }
    s.seal();
    s
}

fn model_of(f: &Formula, s: &Solver) -> Vec<Option<bool>> {
    (0..f.nvars).map(|v| s.value(Var(v as u32))).collect()
}

fn model_satisfies(f: &Formula, s: &Solver) -> bool {
    let val = |v: usize| s.value(Var(v as u32)).unwrap_or(false);
    let lit = |(v, pos): (usize, bool)| val(v) == pos;
    f.clauses.iter().all(|c| c.iter().any(|&l| lit(l)))
        && f.cards.iter().all(|card| {
            let active = card.guards.iter().all(|&g| lit(g));
            !active || card.lits.iter().filter(|&&l| lit(l)).count() as u32 >= card.bound
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Verdict matches exhaustive enumeration; models check out.
    #[test]
    fn solver_matches_brute_force(f in formula_strategy()) {
        let brute = brute_force(&f);
        let mut s = build_solver(&f);
        match s.solve() {
            SolveResult::Sat => {
                prop_assert!(brute.is_some(), "solver SAT but brute force UNSAT");
                prop_assert!(model_satisfies(&f, &s), "model violates a constraint");
            }
            SolveResult::Unsat => {
                prop_assert!(brute.is_none(), "solver UNSAT but {:?} works", brute);
            }
        }
    }

    /// Solving twice (incremental reuse) gives the same verdict, and solving
    /// under assumptions is consistent with adding unit clauses.
    #[test]
    fn assumptions_agree_with_unit_clauses(f in formula_strategy(), pol in any::<bool>()) {
        let mut s = build_solver(&f);
        let first = s.solve();
        let again = s.solve();
        prop_assert_eq!(first, again, "re-solve changed the verdict");

        // Assume literal (v0, pol); compare with a fresh solver that adds it
        // as a unit clause.
        let assumption = Var(0).lit(pol);
        let with_assumption = s.solve_with(&[assumption]);
        let mut s2 = build_solver(&f);
        s2.add_clause(&[assumption]);
        let with_unit = s2.solve();
        prop_assert_eq!(with_assumption, with_unit);
        // And the original formula is still solvable as before afterwards.
        prop_assert_eq!(s.solve(), first, "assumptions leaked into the formula");
    }

    /// Cloning a sealed solver shares its cards; the clone's additions
    /// (clauses, cards, a fresh guard variable) answer the combined
    /// formula, and the original's next solve is exactly that of a solver
    /// that was never sealed or cloned: same verdict, same model.
    #[test]
    fn sealed_clones_leave_the_original_alone((f, extra) in formula_pair_strategy()) {
        let original = build_sealed(&f);
        let mut clone = original.clone();
        let fresh = clone.new_var().pos();
        add_clauses(&mut clone, &extra);
        for card in &extra.cards {
            let mut guards = lits_of(&card.guards);
            if guards.len() < 2 {
                guards.push(fresh);
            }
            clone.add_card_ge(&guards, &lits_of(&card.lits), card.bound);
        }
        let combined = Formula {
            nvars: f.nvars,
            clauses: f.clauses.iter().chain(&extra.clauses).cloned().collect(),
            cards: f.cards.iter().chain(&extra.cards).cloned().collect(),
        };
        let brute = brute_force(&combined);
        match clone.solve_with(&[fresh]) {
            SolveResult::Sat => {
                prop_assert!(brute.is_some(), "clone SAT but brute force UNSAT");
                prop_assert!(model_satisfies(&combined, &clone), "clone model violates a constraint");
            }
            SolveResult::Unsat => prop_assert!(brute.is_none(), "clone UNSAT but {:?} works", brute),
        }

        let mut original = original;
        let mut never_cloned = build_solver(&f);
        prop_assert_eq!(original.solve(), never_cloned.solve());
        prop_assert_eq!(model_of(&f, &original), model_of(&f, &never_cloned));
    }
}
