//! Closed polyhedra `{y : Gy ≤ h, Ey = e}` and their LP views.

use knn_lp::{LpProblem, Rel};
use knn_num::Field;

/// A closed polyhedron in `ℝⁿ`, given by inequalities `a·y ≤ b` and
/// equalities `a·y = b`.
///
/// The open polyhedra of Proposition 1 (`f = 0` regions) are represented by
/// the closure here plus strictness handled at the call sites (Theorem 2's
/// closure argument, implemented in `knn-core`).
#[derive(Clone, Debug)]
pub struct Polyhedron<F> {
    n: usize,
    ineqs: Vec<(Vec<F>, F)>,
    eqs: Vec<(Vec<F>, F)>,
}

impl<F: Field> Polyhedron<F> {
    /// The whole space `ℝⁿ`.
    pub fn whole_space(n: usize) -> Self {
        Polyhedron { n, ineqs: Vec::new(), eqs: Vec::new() }
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Adds `a·y ≤ b`.
    pub fn add_le(&mut self, a: Vec<F>, b: F) {
        assert_eq!(a.len(), self.n);
        self.ineqs.push((a, b));
    }

    /// Adds `a·y ≥ b` (stored as `−a·y ≤ −b`).
    pub fn add_ge(&mut self, a: Vec<F>, b: F) {
        self.add_le(a.into_iter().map(|c| -c).collect(), -b);
    }

    /// Adds `a·y = b`.
    pub fn add_eq(&mut self, a: Vec<F>, b: F) {
        assert_eq!(a.len(), self.n);
        self.eqs.push((a, b));
    }

    /// Fixes coordinate `i` to `v` (the affine subspaces `U(X, x̄)` of Prop 3).
    pub fn fix_coord(&mut self, i: usize, v: F) {
        let mut a = vec![F::zero(); self.n];
        a[i] = F::one();
        self.add_eq(a, v);
    }

    /// The inequality rows `(a, b)` meaning `a·y ≤ b`.
    pub fn ineqs(&self) -> &[(Vec<F>, F)] {
        &self.ineqs
    }

    /// The equality rows.
    pub fn eqs(&self) -> &[(Vec<F>, F)] {
        &self.eqs
    }

    /// Evaluates membership of `y` (closed semantics).
    pub fn contains(&self, y: &[F]) -> bool {
        self.ineqs.iter().all(|(a, b)| !(knn_num::field::dot(a, y) - b.clone()).is_positive())
            && self.eqs.iter().all(|(a, b)| (knn_num::field::dot(a, y) - b.clone()).is_zero())
    }

    /// Evaluates strict membership (all inequalities strictly satisfied;
    /// equalities still exactly satisfied).
    pub fn contains_strictly(&self, y: &[F]) -> bool {
        self.ineqs.iter().all(|(a, b)| (knn_num::field::dot(a, y) - b.clone()).is_negative())
            && self.eqs.iter().all(|(a, b)| (knn_num::field::dot(a, y) - b.clone()).is_zero())
    }

    /// Builds the corresponding LP feasibility problem.
    pub fn to_lp(&self) -> LpProblem<F> {
        let mut lp = LpProblem::new(self.n);
        for (a, b) in &self.ineqs {
            lp.add_dense(a, Rel::Le, b.clone());
        }
        for (a, b) in &self.eqs {
            lp.add_dense(a, Rel::Eq, b.clone());
        }
        lp
    }

    /// Builds the LP with every inequality made strict (the *interior*, given
    /// the equalities): used for open-polyhedron nonemptiness (Prop 1 f=0 side).
    pub fn to_strict_lp(&self) -> LpProblem<F> {
        let mut lp = LpProblem::new(self.n);
        for (a, b) in &self.ineqs {
            lp.add_dense(a, Rel::Lt, b.clone());
        }
        for (a, b) in &self.eqs {
            lp.add_dense(a, Rel::Eq, b.clone());
        }
        lp
    }

    /// Any feasible point of the closed polyhedron.
    pub fn feasible_point(&self) -> Option<Vec<F>> {
        self.to_lp().feasible_point()
    }

    /// Any point satisfying all inequalities strictly (and equalities exactly).
    pub fn strict_feasible_point(&self) -> Option<Vec<F>> {
        self.to_strict_lp().strict_feasible()
    }

    /// Like [`Polyhedron::feasible_point`] restricted to the affine subspace
    /// `{y : yᵢ = v ∀(i, v) ∈ fixed}`, without mutating (or cloning) the
    /// polyhedron — the memoized-regions hot path of the batch engine. The
    /// returned point carries every fixed `v` exactly.
    pub fn feasible_point_fixed(&self, fixed: &[(usize, F)]) -> Option<Vec<F>> {
        let mut lp = self.to_lp();
        for (i, v) in fixed {
            lp.fix_var(*i, v.clone());
        }
        lp.feasible_point().map(|y| pin(y, fixed))
    }

    /// Like [`Polyhedron::strict_feasible_point`] restricted to an affine
    /// subspace, without mutating the polyhedron; fixed values are exact.
    pub fn strict_feasible_point_fixed(&self, fixed: &[(usize, F)]) -> Option<Vec<F>> {
        let mut lp = self.to_strict_lp();
        for (i, v) in fixed {
            lp.fix_var(*i, v.clone());
        }
        lp.strict_feasible().map(|y| pin(y, fixed))
    }
}

/// Writes the fixed values back into an LP point. The simplex solves for
/// a pinned coordinate like any other, so in `f64` it returns `v` plus a
/// rounding error; a point of `U(X, x̄)` must equal `x̄` on `X` bit for bit.
/// In an exact field this is the identity.
fn pin<F: Field>(mut y: Vec<F>, fixed: &[(usize, F)]) -> Vec<F> {
    for (i, v) in fixed {
        y[*i] = v.clone();
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_num::Rat;

    fn r(p: i64, q: i64) -> Rat {
        Rat::frac(p, q)
    }

    fn unit_box() -> Polyhedron<Rat> {
        let mut p = Polyhedron::whole_space(2);
        p.add_ge(vec![r(1, 1), r(0, 1)], r(0, 1));
        p.add_le(vec![r(1, 1), r(0, 1)], r(1, 1));
        p.add_ge(vec![r(0, 1), r(1, 1)], r(0, 1));
        p.add_le(vec![r(0, 1), r(1, 1)], r(1, 1));
        p
    }

    #[test]
    fn membership() {
        let p = unit_box();
        assert!(p.contains(&[r(1, 2), r(1, 2)]));
        assert!(p.contains(&[r(0, 1), r(1, 1)]));
        assert!(!p.contains(&[r(3, 2), r(1, 2)]));
        assert!(p.contains_strictly(&[r(1, 2), r(1, 2)]));
        assert!(!p.contains_strictly(&[r(0, 1), r(1, 2)]));
    }

    #[test]
    fn feasible_points() {
        let p = unit_box();
        let y = p.feasible_point().unwrap();
        assert!(p.contains(&y));
        let ys = p.strict_feasible_point().unwrap();
        assert!(p.contains_strictly(&ys));
    }

    #[test]
    fn empty_interior() {
        // A segment: 0 ≤ x ≤ 1, y = 0 — closed nonempty, but x-strict interior
        // exists while adding contradictory strict rows kills it.
        let mut p = Polyhedron::whole_space(1);
        p.add_ge(vec![r(1, 1)], r(0, 1));
        p.add_le(vec![r(1, 1)], r(0, 1));
        assert!(p.feasible_point().is_some());
        assert!(p.strict_feasible_point().is_none());
    }

    /// The `*_fixed` LPs return the fixed values themselves: on this
    /// instance the simplex solves `y₂ = 2.2` as `2.1999999999999997`.
    #[test]
    fn fixed_values_returned_exactly() {
        let mut p = Polyhedron::whole_space(3);
        p.add_le(vec![-2.0, -2.7, 1.1], 1.4);
        p.add_le(vec![-2.6, -2.1, 2.9], 1.3);
        p.add_le(vec![-2.1, -1.5, -1.2], 2.3);
        p.add_le(vec![-3.0, -1.4, 0.2], 3.9);
        let fixed = [(0, 0.2), (2, 2.2)];
        for y in [p.feasible_point_fixed(&fixed), p.strict_feasible_point_fixed(&fixed)] {
            let y = y.expect("the rows meet the fixed line");
            for (i, v) in &fixed {
                assert_eq!(y[*i].to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn fixed_coordinates() {
        let mut p = unit_box();
        p.fix_coord(0, r(1, 4));
        let y = p.feasible_point().unwrap();
        assert_eq!(y[0], r(1, 4));
    }
}
