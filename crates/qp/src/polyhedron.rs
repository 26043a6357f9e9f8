//! Closed polyhedra `{y : Gy ≤ h}` and their LP views.

use knn_lp::{LpProblem, Rel};
use knn_num::Field;

/// A closed polyhedron in `ℝⁿ`, given by inequalities `a·y ≤ b`.
///
/// The open polyhedra of Proposition 1 (`f = 0` regions) are represented by
/// the closure here plus strictness handled at the call sites (Theorem 2's
/// closure argument, implemented in `knn-core`).
#[derive(Clone, Debug)]
pub struct Polyhedron<F> {
    n: usize,
    ineqs: Vec<(Vec<F>, F)>,
}

impl<F: Field> Polyhedron<F> {
    /// The whole space `ℝⁿ`.
    pub fn whole_space(n: usize) -> Self {
        Polyhedron { n, ineqs: Vec::new() }
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

    /// The inequality rows `(a, b)` meaning `a·y ≤ b`.
    pub fn ineqs(&self) -> &[(Vec<F>, F)] {
        &self.ineqs
    }

    /// Evaluates membership of `y` (closed semantics).
    pub fn contains(&self, y: &[F]) -> bool {
        self.ineqs.iter().all(|(a, b)| !(knn_num::field::dot(a, y) - b.clone()).is_positive())
    }

    /// Evaluates strict membership (all inequalities strictly satisfied).
    pub fn contains_strictly(&self, y: &[F]) -> bool {
        self.ineqs.iter().all(|(a, b)| (knn_num::field::dot(a, y) - b.clone()).is_negative())
    }

    /// Builds the corresponding LP feasibility problem.
    pub fn to_lp(&self) -> LpProblem<F> {
        let mut lp = LpProblem::new(self.n);
        for (a, b) in &self.ineqs {
            lp.add_dense(a, Rel::Le, b.clone());
        }
        lp
    }

    /// Builds the LP with every inequality made strict (the *interior*):
    /// used for open-polyhedron nonemptiness (Prop 1 f=0 side).
    pub fn to_strict_lp(&self) -> LpProblem<F> {
        let mut lp = LpProblem::new(self.n);
        for (a, b) in &self.ineqs {
            lp.add_dense(a, Rel::Lt, b.clone());
        }
        lp
    }

    /// Any feasible point of the closed polyhedron.
    pub fn feasible_point(&self) -> Option<Vec<F>> {
        self.to_lp().feasible_point()
    }

    /// Any point satisfying all inequalities strictly.
    pub fn strict_feasible_point(&self) -> Option<Vec<F>> {
        self.to_strict_lp().strict_feasible()
    }

    /// The trace on `U = {y : yᵢ = xᵢ ∀i ∉ free}` (Prop 3's `U(X, x̄)`) in
    /// its own coordinates `z = y_free`: each row `a·y ≤ b` becomes
    /// `a_F·z ≤ b − Σ_{i∉F} aᵢxᵢ`, fixed terms taken in index order.
    /// `free` holds distinct coordinates.
    pub fn restrict(&self, x: &[F], free: &[usize]) -> Polyhedron<F> {
        assert_eq!(x.len(), self.n);
        let mut fixed = vec![true; self.n];
        free.iter().for_each(|&i| fixed[i] = false);
        let row = |(a, b): &(Vec<F>, F)| {
            let b = (0..self.n)
                .filter(|&i| fixed[i])
                .fold(b.clone(), |b, i| b - a[i].clone() * x[i].clone());
            (free.iter().map(|&i| a[i].clone()).collect(), b)
        };
        Polyhedron { n: free.len(), ineqs: self.ineqs.iter().map(row).collect() }
    }
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

    /// `restrict` decides what the full-space LP with one equality row per
    /// fixed coordinate decides, closed and strict, for |F| = 0, 1 and
    /// d − 1 free coordinates, and a point it finds lifts (x̄ off F) into
    /// the original polyhedron. Small
    /// integer rows and queries make the fixed subspace touch a
    /// polyhedron's boundary only (closed but not strict) now and then.
    #[test]
    fn restriction_decides_like_fixed_coordinates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut touched = 0;
        for _ in 0..200 {
            let d = rng.gen_range(1..=4usize);
            let mut p = Polyhedron::whole_space(d);
            for _ in 0..rng.gen_range(1..=6) {
                let a = (0..d).map(|_| r(rng.gen_range(-2..=2), 1)).collect();
                p.add_le(a, r(rng.gen_range(-3..=3), 1));
            }
            let x: Vec<Rat> = (0..d).map(|_| r(rng.gen_range(-2..=2), 1)).collect();
            let mut frees = vec![Vec::new(), vec![rng.gen_range(0..d)]];
            let skip = rng.gen_range(0..d);
            frees.push((0..d).filter(|&i| i != skip).collect());
            for free in frees {
                let pinned = |mut lp: LpProblem<Rat>| {
                    for i in (0..d).filter(|i| !free.contains(i)) {
                        lp.add_constraint(vec![(i, Rat::one())], Rel::Eq, x[i].clone());
                    }
                    lp
                };
                let sub = p.restrict(&x, &free);
                assert_eq!(sub.dim(), free.len());
                let lift = |z: Vec<Rat>| {
                    let mut y = x.clone();
                    for (&i, v) in free.iter().zip(z) {
                        y[i] = v;
                    }
                    y
                };
                let want_closed = pinned(p.to_lp()).feasible_point().is_some();
                let want_strict = pinned(p.to_strict_lp()).strict_feasible().is_some();
                let closed = sub.feasible_point().map(lift);
                let strict = sub.strict_feasible_point().map(lift);
                assert_eq!(closed.is_some(), want_closed);
                assert_eq!(strict.is_some(), want_strict);
                assert!(closed.is_none_or(|y| p.contains(&y)));
                assert!(strict.is_none_or(|y| p.contains_strictly(&y)));
                touched += usize::from(want_closed && !want_strict);
            }
        }
        assert!(touched > 0, "no instance touched a boundary only");
    }

    #[test]
    fn fixed_coordinates() {
        let p = unit_box();
        let mut lp = p.to_lp();
        lp.add_constraint(vec![(0, r(1, 1))], Rel::Eq, r(1, 4));
        let y = lp.feasible_point().unwrap();
        assert_eq!(y[0], r(1, 4));
        assert!(p.contains(&y));
    }
}
