//! Two-phase dense-tableau simplex engine.

use crate::problem::{LpOutcome, LpProblem, Objective, Rel, Row};
use knn_num::Field;

/// How each structural variable maps into the (non-negative) standard form.
#[derive(Clone, Debug)]
enum ColMap<F> {
    /// `x = offset + x'` with `x' ≥ 0` (variable had a lower bound).
    Shifted { col: usize, offset: F },
    /// `x = offset − x'` with `x' ≥ 0` (variable had only an upper bound).
    NegShifted { col: usize, offset: F },
    /// `x = x⁺ − x⁻` (free variable).
    Split { pos: usize, neg: usize },
}

struct Tableau<F> {
    m: usize,
    ncols: usize,
    /// Row-major `(m + 1) × (ncols + 1)`; row `m` is the reduced-cost row and
    /// column `ncols` is the right-hand side.
    data: Vec<F>,
    basis: Vec<usize>,
    banned: Vec<bool>,
    bland: bool,
    pivots: usize,
}

impl<F: Field> Tableau<F> {
    fn at(&self, i: usize, j: usize) -> &F {
        &self.data[i * (self.ncols + 1) + j]
    }

    fn set(&mut self, i: usize, j: usize, v: F) {
        self.data[i * (self.ncols + 1) + j] = v;
    }

    fn rhs(&self, i: usize) -> &F {
        self.at(i, self.ncols)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.ncols + 1;
        let pv = self.at(row, col).clone();
        debug_assert!(!pv.is_zero());
        // Normalize the pivot row.
        for j in 0..w {
            let v = self.data[row * w + j].clone() / pv.clone();
            self.data[row * w + j] = v;
        }
        self.set(row, col, F::one());
        // Eliminate the pivot column from every other row (including costs).
        for i in 0..=self.m {
            if i == row {
                continue;
            }
            let factor = self.at(i, col).clone();
            if factor.is_zero() {
                continue;
            }
            for j in 0..w {
                let v =
                    self.data[i * w + j].clone() - factor.clone() * self.data[row * w + j].clone();
                self.data[i * w + j] = v;
            }
            self.set(i, col, F::zero());
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Runs simplex minimization until optimality or unboundedness.
    /// Returns `false` on unboundedness.
    fn optimize(&mut self) -> bool {
        let stall_limit = 100 + 20 * (self.m + self.ncols);
        let hard_limit = 20_000 + 400 * (self.m + self.ncols);
        loop {
            if !self.bland && self.pivots > stall_limit {
                self.bland = true;
            }
            assert!(
                self.pivots < hard_limit,
                "simplex exceeded {hard_limit} pivots; numerically stuck"
            );
            let Some(col) = self.choose_entering() else {
                return true;
            };
            let Some(row) = self.choose_leaving(col) else {
                return false;
            };
            self.pivot(row, col);
        }
    }

    fn choose_entering(&self) -> Option<usize> {
        let mut best: Option<(usize, F)> = None;
        for j in 0..self.ncols {
            if self.banned[j] {
                continue;
            }
            let r = self.at(self.m, j);
            if r.is_negative() {
                if self.bland {
                    return Some(j);
                }
                match &best {
                    Some((_, b)) if *r >= *b => {}
                    _ => best = Some((j, r.clone())),
                }
            }
        }
        best.map(|(j, _)| j)
    }

    fn choose_leaving(&self, col: usize) -> Option<usize> {
        let mut best: Option<(usize, F)> = None;
        for i in 0..self.m {
            let a = self.at(i, col);
            if !a.is_positive() {
                continue;
            }
            let ratio = self.rhs(i).clone() / a.clone();
            let better = match &best {
                None => true,
                Some((bi, br)) => ratio < *br || (ratio == *br && self.basis[i] < self.basis[*bi]),
            };
            if better {
                best = Some((i, ratio));
            }
        }
        best.map(|(i, _)| i)
    }
}

impl<F: Field> LpProblem<F> {
    /// Solves `optimize objective·x` subject to the constraints.
    ///
    /// Panics if the program contains strict rows — those are only meaningful
    /// through [`LpProblem::strict_feasible`].
    pub fn solve(&self, objective: &[F], sense: Objective) -> LpOutcome<F> {
        assert!(!self.has_strict(), "strict constraints require strict_feasible()");
        assert_eq!(objective.len(), self.n);
        solve_impl(self, objective, sense)
    }

    /// Finds any feasible point, or `None` if the system is infeasible.
    pub fn feasible_point(&self) -> Option<Vec<F>> {
        let zero = vec![F::zero(); self.n];
        match self.solve(&zero, Objective::Minimize) {
            LpOutcome::Optimal { x, .. } => Some(x),
            _ => None,
        }
    }

    /// Feasibility for systems mixing strict and non-strict rows, via the
    /// ε-maximization trick (proof of Proposition 3): each `a·x < b` becomes
    /// `a·x + ε ≤ b`, each `a·x > b` becomes `a·x − ε ≥ b`, and we maximize
    /// `ε ∈ [0, 1]`. A point satisfying all strict rows strictly exists iff
    /// the optimum has `ε > 0`; that point is returned.
    pub fn strict_feasible(&self) -> Option<Vec<F>> {
        let eps = self.n;
        let mut relaxed: LpProblem<F> = LpProblem::new(self.n + 1);
        relaxed.lower[..self.n].clone_from_slice(&self.lower);
        relaxed.upper[..self.n].clone_from_slice(&self.upper);
        relaxed.set_lower(eps, F::zero());
        relaxed.set_upper(eps, F::one());
        for row in &self.rows {
            let mut coeffs = row.coeffs.clone();
            let rel = match row.rel {
                Rel::Lt => {
                    coeffs.push((eps, F::one()));
                    Rel::Le
                }
                Rel::Gt => {
                    coeffs.push((eps, -F::one()));
                    Rel::Ge
                }
                r => r,
            };
            relaxed.rows.push(Row { coeffs, rel, rhs: row.rhs.clone() });
        }
        let mut objective = vec![F::zero(); self.n + 1];
        objective[eps] = F::one();
        match relaxed.solve(&objective, Objective::Maximize) {
            LpOutcome::Optimal { mut x, value } if value.is_positive() => {
                x.truncate(self.n);
                Some(x)
            }
            _ => None,
        }
    }
}

fn solve_impl<F: Field>(problem: &LpProblem<F>, objective: &[F], sense: Objective) -> LpOutcome<F> {
    crate::tally::bump_lp_solves();
    // --- Standard-form transformation -------------------------------------
    let mut ncols = 0usize;
    let mut colmap: Vec<ColMap<F>> = Vec::with_capacity(problem.n);
    let mut extra_rows: Vec<Row<F>> = Vec::new();
    for j in 0..problem.n {
        match (&problem.lower[j], &problem.upper[j]) {
            (Some(l), u) => {
                colmap.push(ColMap::Shifted { col: ncols, offset: l.clone() });
                if let Some(u) = u {
                    extra_rows.push(Row {
                        coeffs: vec![(j, F::one())],
                        rel: Rel::Le,
                        rhs: u.clone(),
                    });
                }
                ncols += 1;
            }
            (None, Some(u)) => {
                colmap.push(ColMap::NegShifted { col: ncols, offset: u.clone() });
                ncols += 1;
            }
            (None, None) => {
                colmap.push(ColMap::Split { pos: ncols, neg: ncols + 1 });
                ncols += 2;
            }
        }
    }

    let all_rows: Vec<&Row<F>> = problem.rows.iter().chain(extra_rows.iter()).collect();
    let m = all_rows.len();

    // Transformed dense rows over standard columns.
    let mut dense: Vec<Vec<F>> = Vec::with_capacity(m);
    let mut rels: Vec<Rel> = Vec::with_capacity(m);
    let mut rhs: Vec<F> = Vec::with_capacity(m);
    for row in &all_rows {
        let mut a = vec![F::zero(); ncols];
        let mut b = row.rhs.clone();
        for (j, c) in &row.coeffs {
            match &colmap[*j] {
                ColMap::Shifted { col, offset } => {
                    a[*col] = a[*col].clone() + c.clone();
                    b = b - c.clone() * offset.clone();
                }
                ColMap::NegShifted { col, offset } => {
                    a[*col] = a[*col].clone() - c.clone();
                    b = b - c.clone() * offset.clone();
                }
                ColMap::Split { pos, neg } => {
                    a[*pos] = a[*pos].clone() + c.clone();
                    a[*neg] = a[*neg].clone() - c.clone();
                }
            }
        }
        dense.push(a);
        rels.push(row.rel);
        rhs.push(b);
    }

    // Slack columns; flip rows so every rhs is non-negative.
    let n_struct = ncols;
    let mut slack_cols: Vec<Option<(usize, bool)>> = vec![None; m]; // (col, coeff_is_plus_one)
    for (i, rel) in rels.iter().enumerate() {
        match rel {
            Rel::Le => {
                slack_cols[i] = Some((ncols, true));
                ncols += 1;
            }
            Rel::Ge => {
                slack_cols[i] = Some((ncols, false));
                ncols += 1;
            }
            Rel::Eq => {}
            Rel::Lt | Rel::Gt => unreachable!("strict rows filtered earlier"),
        }
    }
    let mut negated = vec![false; m];
    for i in 0..m {
        if rhs[i].is_negative() {
            negated[i] = true;
            rhs[i] = -rhs[i].clone();
            for v in dense[i].iter_mut() {
                *v = -v.clone();
            }
        }
    }

    // Artificial columns where the slack cannot start basic.
    let mut artificial_cols: Vec<Option<usize>> = vec![None; m];
    for i in 0..m {
        let slack_usable = matches!(slack_cols[i], Some((_, plus)) if plus != negated[i]);
        if !slack_usable {
            artificial_cols[i] = Some(ncols);
            ncols += 1;
        }
    }

    // --- Tableau assembly ---------------------------------------------------
    let w = ncols + 1;
    let mut tab = Tableau {
        m,
        ncols,
        data: vec![F::zero(); (m + 1) * w],
        basis: vec![0; m],
        banned: vec![false; ncols],
        bland: false,
        pivots: 0,
    };
    for i in 0..m {
        for (j, v) in dense[i].iter().enumerate() {
            if !v.is_zero() {
                tab.set(i, j, v.clone());
            }
        }
        if let Some((col, plus)) = slack_cols[i] {
            let coeff = if plus != negated[i] { F::one() } else { -F::one() };
            tab.set(i, col, coeff);
        }
        tab.set(i, ncols, rhs[i].clone());
        if let Some(col) = artificial_cols[i] {
            tab.set(i, col, F::one());
            tab.basis[i] = col;
        } else {
            tab.basis[i] = slack_cols[i].expect("row without artificial has slack").0;
        }
    }

    // --- Phase 1: minimize the sum of artificials ---------------------------
    let has_artificials = artificial_cols.iter().any(|a| a.is_some());
    if has_artificials {
        for col in artificial_cols.iter().flatten() {
            tab.set(m, *col, F::one());
        }
        // Make reduced costs consistent with the starting basis.
        for i in 0..m {
            if artificial_cols[i].is_some() {
                let factor = tab.at(m, tab.basis[i]).clone();
                if !factor.is_zero() {
                    for j in 0..w {
                        let v = tab.data[m * w + j].clone()
                            - factor.clone() * tab.data[i * w + j].clone();
                        tab.data[m * w + j] = v;
                    }
                }
            }
        }
        let bounded = tab.optimize();
        debug_assert!(bounded, "phase-1 objective is bounded below by zero");
        let p1_value = -tab.rhs(m).clone();
        if p1_value.is_positive() {
            return LpOutcome::Infeasible;
        }
        // Drive remaining artificials out of the basis (or detect redundancy).
        let is_artificial = |j: usize| artificial_cols.contains(&Some(j));
        for i in 0..m {
            if is_artificial(tab.basis[i]) {
                let mut pivot_col = None;
                for j in 0..n_struct + m {
                    if j < ncols && !is_artificial(j) && !tab.at(i, j).is_zero() {
                        pivot_col = Some(j);
                        break;
                    }
                }
                if let Some(j) = pivot_col {
                    tab.pivot(i, j);
                }
                // A fully-zero row is redundant; its artificial stays basic
                // at value 0, which is harmless.
            }
        }
        for col in artificial_cols.iter().flatten() {
            tab.banned[*col] = true;
        }
        // Reset the cost row for phase 2.
        for j in 0..w {
            tab.data[m * w + j] = F::zero();
        }
        tab.bland = false;
        tab.pivots = 0;
    }

    // --- Phase 2 -------------------------------------------------------------
    // Cost per standard column (minimization).
    let mut costs = vec![F::zero(); ncols];
    for j in 0..problem.n {
        let c = match sense {
            Objective::Minimize => objective[j].clone(),
            Objective::Maximize => -objective[j].clone(),
        };
        if c.is_zero() {
            continue;
        }
        match &colmap[j] {
            ColMap::Shifted { col, .. } => costs[*col] = costs[*col].clone() + c,
            ColMap::NegShifted { col, .. } => costs[*col] = costs[*col].clone() - c,
            ColMap::Split { pos, neg } => {
                costs[*pos] = costs[*pos].clone() + c.clone();
                costs[*neg] = costs[*neg].clone() - c;
            }
        }
    }
    for (j, c) in costs.iter().enumerate() {
        tab.set(m, j, c.clone());
    }
    // Eliminate basic columns from the cost row.
    for i in 0..m {
        let factor = tab.at(m, tab.basis[i]).clone();
        if !factor.is_zero() {
            for j in 0..w {
                let v = tab.data[m * w + j].clone() - factor.clone() * tab.data[i * w + j].clone();
                tab.data[m * w + j] = v;
            }
        }
    }
    if !tab.optimize() {
        return LpOutcome::Unbounded;
    }

    // --- Extraction -----------------------------------------------------------
    let mut std_vals = vec![F::zero(); ncols];
    for i in 0..m {
        std_vals[tab.basis[i]] = tab.rhs(i).clone();
    }
    let mut x = Vec::with_capacity(problem.n);
    for j in 0..problem.n {
        let v = match &colmap[j] {
            ColMap::Shifted { col, offset } => offset.clone() + std_vals[*col].clone(),
            ColMap::NegShifted { col, offset } => offset.clone() - std_vals[*col].clone(),
            ColMap::Split { pos, neg } => std_vals[*pos].clone() - std_vals[*neg].clone(),
        };
        x.push(v);
    }
    let mut value = knn_num::field::dot(objective, &x);
    // Guard against -0.0 style artifacts in the float instantiation.
    if value.is_zero() {
        value = F::zero();
    }
    LpOutcome::Optimal { x, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_num::Rat;

    fn r(p: i64, q: i64) -> Rat {
        Rat::frac(p, q)
    }

    #[test]
    fn simple_max_f64() {
        // max x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6, x,y ≥ 0 → optimum at (8/5, 6/5), value 14/5
        let mut lp = LpProblem::<f64>::new(2);
        lp.set_lower(0, 0.0);
        lp.set_lower(1, 0.0);
        lp.add_dense(&[1.0, 2.0], Rel::Le, 4.0);
        lp.add_dense(&[3.0, 1.0], Rel::Le, 6.0);
        match lp.solve(&[1.0, 1.0], Objective::Maximize) {
            LpOutcome::Optimal { x, value } => {
                assert!((value - 2.8).abs() < 1e-9);
                assert!((x[0] - 1.6).abs() < 1e-9 && (x[1] - 1.2).abs() < 1e-9);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn simple_max_exact() {
        let mut lp = LpProblem::<Rat>::new(2);
        lp.set_lower(0, Rat::zero());
        lp.set_lower(1, Rat::zero());
        lp.add_dense(&[r(1, 1), r(2, 1)], Rel::Le, r(4, 1));
        lp.add_dense(&[r(3, 1), r(1, 1)], Rel::Le, r(6, 1));
        match lp.solve(&[r(1, 1), r(1, 1)], Objective::Maximize) {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(value, r(14, 5));
                assert_eq!(x, vec![r(8, 5), r(6, 5)]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn free_variables_and_equalities() {
        // min x s.t. x + y = 3, y ≤ 1, both free → x ≥ 2, optimum x = 2.
        let mut lp = LpProblem::<Rat>::new(2);
        lp.add_dense(&[r(1, 1), r(1, 1)], Rel::Eq, r(3, 1));
        lp.add_dense(&[r(0, 1), r(1, 1)], Rel::Le, r(1, 1));
        match lp.solve(&[r(1, 1), r(0, 1)], Objective::Minimize) {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(value, r(2, 1));
                assert_eq!(x[0].clone() + x[1].clone(), r(3, 1));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpProblem::<Rat>::new(1);
        lp.add_dense(&[r(1, 1)], Rel::Ge, r(2, 1));
        lp.add_dense(&[r(1, 1)], Rel::Le, r(1, 1));
        assert_eq!(lp.solve(&[r(1, 1)], Objective::Minimize), LpOutcome::Infeasible);
        assert!(lp.feasible_point().is_none());
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::<Rat>::new(1);
        lp.add_dense(&[r(1, 1)], Rel::Ge, r(0, 1));
        assert_eq!(lp.solve(&[r(1, 1)], Objective::Maximize), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows() {
        // x ≥ -5 written as -x ≤ 5 and x ≤ -1: feasible, max x = -1.
        let mut lp = LpProblem::<Rat>::new(1);
        lp.add_dense(&[r(-1, 1)], Rel::Le, r(5, 1));
        lp.add_dense(&[r(1, 1)], Rel::Le, r(-1, 1));
        match lp.solve(&[r(1, 1)], Objective::Maximize) {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(value, r(-1, 1));
                assert_eq!(x[0], r(-1, 1));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn strict_feasibility_open_interval() {
        // 0 < x < 1 is strict-feasible; 0 < x < 0 is not.
        let mut lp = LpProblem::<Rat>::new(1);
        lp.add_dense(&[r(1, 1)], Rel::Gt, r(0, 1));
        lp.add_dense(&[r(1, 1)], Rel::Lt, r(1, 1));
        let p = lp.strict_feasible().expect("open interval nonempty");
        assert!(p[0] > r(0, 1) && p[0] < r(1, 1));

        let mut bad = LpProblem::<Rat>::new(1);
        bad.add_dense(&[r(1, 1)], Rel::Gt, r(0, 1));
        bad.add_dense(&[r(1, 1)], Rel::Lt, r(0, 1));
        assert!(bad.strict_feasible().is_none());
    }

    #[test]
    fn strict_feasibility_boundary_only() {
        // x ≥ 1, x ≤ 1, x > 1: the non-strict system is feasible but only at
        // the boundary, so the strict system must be reported infeasible.
        let mut lp = LpProblem::<Rat>::new(1);
        lp.add_dense(&[r(1, 1)], Rel::Ge, r(1, 1));
        lp.add_dense(&[r(1, 1)], Rel::Le, r(1, 1));
        lp.add_dense(&[r(1, 1)], Rel::Gt, r(1, 1));
        assert!(lp.strict_feasible().is_none());
    }

    #[test]
    fn strict_mixed_with_equalities() {
        // x + y = 1, x > 0, y > 0 → strict-feasible (interior of a segment).
        let mut lp = LpProblem::<Rat>::new(2);
        lp.add_dense(&[r(1, 1), r(1, 1)], Rel::Eq, r(1, 1));
        lp.add_dense(&[r(1, 1), r(0, 1)], Rel::Gt, r(0, 1));
        lp.add_dense(&[r(0, 1), r(1, 1)], Rel::Gt, r(0, 1));
        let p = lp.strict_feasible().expect("segment interior nonempty");
        assert_eq!(p[0].clone() + p[1].clone(), r(1, 1));
        assert!(p[0].is_positive() && p[1].is_positive());
    }

    #[test]
    fn fix_var_equality() {
        let mut lp = LpProblem::<Rat>::new(2);
        lp.add_constraint(vec![(0, r(1, 1))], Rel::Eq, r(7, 2));
        lp.add_dense(&[r(1, 1), r(1, 1)], Rel::Le, r(5, 1));
        match lp.solve(&[r(0, 1), r(1, 1)], Objective::Maximize) {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(x[0], r(7, 2));
                assert_eq!(value, r(3, 2));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// With no variables every row reads `0 (rel) b`: the system is
    /// feasible iff each `0 ≤ b` holds, and strictly feasible iff each
    /// `0 < b` does (a check with every feature fixed).
    #[test]
    fn zero_variable_rows() {
        for b in [-1, 0, 1] {
            let mut lp = LpProblem::<Rat>::new(0);
            lp.add_constraint(vec![], Rel::Le, r(2, 1));
            lp.add_constraint(vec![], Rel::Le, r(b, 1));
            assert_eq!(lp.feasible_point(), (b >= 0).then(Vec::new), "0 ≤ {b}");
            let mut strict = LpProblem::<Rat>::new(0);
            strict.add_constraint(vec![], Rel::Lt, r(2, 1));
            strict.add_constraint(vec![], Rel::Lt, r(b, 1));
            assert_eq!(strict.strict_feasible(), (b > 0).then(Vec::new), "0 < {b}");
        }
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate example; Bland fallback must terminate.
        let mut lp = LpProblem::<Rat>::new(3);
        for j in 0..3 {
            lp.set_lower(j, Rat::zero());
        }
        lp.add_dense(&[r(1, 4), r(-8, 1), r(-1, 1)], Rel::Le, r(0, 1));
        lp.add_dense(&[r(1, 2), r(-12, 1), r(-1, 2)], Rel::Le, r(0, 1));
        lp.add_dense(&[r(0, 1), r(0, 1), r(1, 1)], Rel::Le, r(1, 1));
        match lp.solve(&[r(3, 4), r(-20, 1), r(1, 2)], Objective::Maximize) {
            LpOutcome::Optimal { value, .. } => {
                assert!(value >= Rat::zero());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn upper_bounded_variables() {
        let mut lp = LpProblem::<f64>::new(2);
        lp.set_lower(0, 0.0);
        lp.set_upper(0, 2.0);
        lp.set_upper(1, 3.0); // only an upper bound: variable otherwise free
        lp.add_dense(&[1.0, 1.0], Rel::Ge, 1.0);
        match lp.solve(&[1.0, 1.0], Objective::Maximize) {
            LpOutcome::Optimal { x, value } => {
                assert!((value - 5.0).abs() < 1e-9);
                assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 3.0).abs() < 1e-9);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn exact_and_float_agree_on_random_lps() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let n = rng.gen_range(1..4usize);
            let m = rng.gen_range(1..5usize);
            let mut lpr = LpProblem::<Rat>::new(n);
            let mut lpf = LpProblem::<f64>::new(n);
            for j in 0..n {
                lpr.set_lower(j, Rat::zero());
                lpf.set_lower(j, 0.0);
                lpr.set_upper(j, Rat::from_int(10i64));
                lpf.set_upper(j, 10.0);
            }
            for _ in 0..m {
                let a: Vec<i64> = (0..n).map(|_| rng.gen_range(-3i64..4)).collect();
                let b = rng.gen_range(-5i64..10);
                let ar: Vec<Rat> = a.iter().map(|&v| Rat::from_int(v)).collect();
                let af: Vec<f64> = a.iter().map(|&v| v as f64).collect();
                lpr.add_dense(&ar, Rel::Le, Rat::from_int(b));
                lpf.add_dense(&af, Rel::Le, b as f64);
            }
            let c: Vec<i64> = (0..n).map(|_| rng.gen_range(-3i64..4)).collect();
            let cr: Vec<Rat> = c.iter().map(|&v| Rat::from_int(v)).collect();
            let cf: Vec<f64> = c.iter().map(|&v| v as f64).collect();
            let outr = lpr.solve(&cr, Objective::Maximize);
            let outf = lpf.solve(&cf, Objective::Maximize);
            match (outr, outf) {
                (LpOutcome::Optimal { value: vr, .. }, LpOutcome::Optimal { value: vf, .. }) => {
                    assert!(
                        (vr.to_f64() - vf).abs() < 1e-6,
                        "objective mismatch: exact {vr} vs float {vf}"
                    );
                }
                (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                (a, b) => panic!("outcome class mismatch: {a:?} vs {b:?}"),
            }
        }
    }
}
