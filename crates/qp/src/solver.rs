//! Active-set projection onto a polyhedron.

use crate::linalg::{gram, independent_rows, mat_vec, solve_square};
use crate::polyhedron::Polyhedron;
use knn_num::field::{dot, norm_sq};
use knn_num::Field;

/// Result of a projection QP.
#[derive(Clone, Debug, PartialEq)]
pub enum QpOutcome<F> {
    /// The closest point of the polyhedron to `x` and the squared distance.
    Optimal {
        /// The projection of `x` onto the polyhedron.
        y: Vec<F>,
        /// `‖x − y‖²`.
        dist_sq: F,
    },
    /// The polyhedron is empty.
    Infeasible,
}

impl<F: Field> QpOutcome<F> {
    /// The optimal point, if any.
    pub fn point(&self) -> Option<&[F]> {
        match self {
            QpOutcome::Optimal { y, .. } => Some(y),
            QpOutcome::Infeasible => None,
        }
    }

    /// The squared distance, if feasible.
    pub fn dist_sq(&self) -> Option<&F> {
        match self {
            QpOutcome::Optimal { dist_sq, .. } => Some(dist_sq),
            QpOutcome::Infeasible => None,
        }
    }
}

/// Minimizes `‖x − y‖²` over the closed polyhedron (Theorem 2's subproblem).
///
/// Strictly convex objective ⇒ the active-set iteration terminates finitely;
/// with the exact field it is exact. The multiplier *drop* rule picks the most
/// negative multiplier (lowest index on ties) and the *add* rule picks the
/// first blocking constraint, which avoids cycling in practice; a generous
/// iteration cap guards the float instantiation. The converged point is then
/// polished (see [`project_onto_polyhedron_from`]).
pub fn project_onto_polyhedron<F: Field>(x: &[F], poly: &Polyhedron<F>) -> QpOutcome<F> {
    project_onto_polyhedron_from(x, poly, None)
}

/// [`project_onto_polyhedron`] with an optional warm start: when `start` is a
/// feasible point of the polyhedron, the phase-1 LP is skipped entirely —
/// the dominant cost when projecting onto many Voronoi-type cells whose
/// owning data point is trivially feasible (Theorem 2's inner loop). An
/// infeasible `start` falls back to phase 1.
///
/// The answer does not depend on the start. Once the active set has
/// converged at `y`, one fixed KKT solve *polishes* it: the rows tight at
/// `y` (every inequality with `a·y − b` zero under the field's `is_zero`,
/// in index order) are reduced to an independent subset
/// `A y = b`, and the result is `y* = x − Aᵀ(AAᵀ)⁻¹(Ax − b)` with `‖x − y*‖²`
/// computed from `y*` (`y* = x` when nothing is tight). That is a function
/// of `x`, the polyhedron and the tight set only, so a cold and a warm solve
/// that reach the same face return the same `f64` bits. With an exact field
/// `y` already is the projection onto its face's affine hull, so the polish
/// is the identity. Should the reduction or the solve fail, or `y*` leave
/// the polyhedron, the active-set point is kept.
pub fn project_onto_polyhedron_from<F: Field>(
    x: &[F],
    poly: &Polyhedron<F>,
    start: Option<&[F]>,
) -> QpOutcome<F> {
    crate::tally::bump_qp_solves();
    match active_set(x, poly, start) {
        Some(y) => {
            let y = polish(x, poly, &y).unwrap_or(y);
            let diff: Vec<F> = x.iter().zip(&y).map(|(a, b)| a.clone() - b.clone()).collect();
            QpOutcome::Optimal { dist_sq: norm_sq(&diff), y }
        }
        None => QpOutcome::Infeasible,
    }
}

/// The active-set iteration: the (unpolished) projection of `x`, or `None`
/// when the polyhedron is empty.
fn active_set<F: Field>(x: &[F], poly: &Polyhedron<F>, start: Option<&[F]>) -> Option<Vec<F>> {
    let n = poly.dim();
    assert_eq!(x.len(), n);

    let warm = start.filter(|s| poly.contains(s)).map(|s| s.to_vec());
    let mut y = warm.or_else(|| poly.feasible_point())?;

    let ineqs = poly.ineqs();
    let mut working: Vec<usize> = Vec::new(); // indices into ineqs
    let cap = 200 + 20 * (n + ineqs.len());

    for _iter in 0..cap {
        // Active matrix A: the working inequalities.
        let active: Vec<&Vec<F>> = working.iter().map(|&j| &ineqs[j].0).collect();
        let r: Vec<F> = x.iter().zip(&y).map(|(xi, yi)| xi.clone() - yi.clone()).collect();

        // Project r onto the null space of A.
        let p = if active.is_empty() {
            r.clone()
        } else {
            let a_rows: Vec<Vec<F>> = active.iter().map(|a| (*a).clone()).collect();
            let g = gram(&a_rows);
            let ar = mat_vec(&a_rows, &r);
            match solve_square(&g, &ar) {
                Some(z) => {
                    let mut p = r.clone();
                    for (zi, row) in z.iter().zip(&a_rows) {
                        for (pk, ak) in p.iter_mut().zip(row) {
                            *pk = pk.clone() - zi.clone() * ak.clone();
                        }
                    }
                    p
                }
                None => {
                    // Dependent working set (can only happen through degenerate
                    // additions); drop the most recently added inequality.
                    working.pop();
                    continue;
                }
            }
        };

        if norm_sq(&p).is_zero() {
            // Stationary on the active set: check multipliers.
            if working.is_empty() {
                return Some(y);
            }
            let a_rows: Vec<Vec<F>> = working.iter().map(|&j| ineqs[j].0.clone()).collect();
            let g = gram(&a_rows);
            let two_r: Vec<F> = r.iter().map(|v| v.clone() + v.clone()).collect();
            let rhs = mat_vec(&a_rows, &two_r);
            let Some(lambda) = solve_square(&g, &rhs) else {
                working.pop();
                continue;
            };
            let mut worst: Option<(usize, F)> = None;
            for (pos, l) in lambda.iter().enumerate() {
                if l.is_negative() {
                    match &worst {
                        Some((_, w)) if *l >= *w => {}
                        _ => worst = Some((pos, l.clone())),
                    }
                }
            }
            match worst {
                None => return Some(y),
                Some((pos, _)) => {
                    working.remove(pos);
                }
            }
            continue;
        }

        // Line search toward y + p, blocked by inactive inequalities.
        let mut alpha = F::one();
        let mut blocker: Option<usize> = None;
        for (j, (a, b)) in ineqs.iter().enumerate() {
            if working.contains(&j) {
                continue;
            }
            let d = dot(a, &p);
            if d.is_positive() {
                let slack = b.clone() - dot(a, &y);
                let t = slack / d;
                let t = if t.is_negative() { F::zero() } else { t };
                if t < alpha {
                    alpha = t;
                    blocker = Some(j);
                }
            }
        }
        if !alpha.is_zero() {
            for (yk, pk) in y.iter_mut().zip(&p) {
                *yk = yk.clone() + alpha.clone() * pk.clone();
            }
        }
        if let Some(j) = blocker {
            working.push(j);
        }
    }
    panic!("active-set QP exceeded {cap} iterations; numerically stuck");
}

/// The KKT polish of a converged active-set point `y` (see
/// [`project_onto_polyhedron_from`]): the projection of `x` onto the affine
/// hull of the rows tight at `y`, or `None` when that cannot be computed or
/// is not a point of the polyhedron.
fn polish<F: Field>(x: &[F], poly: &Polyhedron<F>, y: &[F]) -> Option<Vec<F>> {
    let tight: Vec<(Vec<F>, F)> =
        poly.ineqs().iter().filter(|(a, b)| (dot(a, y) - b.clone()).is_zero()).cloned().collect();
    let rows: Vec<&(Vec<F>, F)> =
        independent_rows(&tight)?.into_iter().map(|i| &tight[i]).collect();
    let mut out = x.to_vec();
    if !rows.is_empty() {
        let a: Vec<Vec<F>> = rows.iter().map(|(a, _)| a.clone()).collect();
        let resid: Vec<F> = rows.iter().map(|(a, b)| dot(a, x) - b.clone()).collect();
        let z = solve_square(&gram(&a), &resid)?;
        for (zi, row) in z.iter().zip(&a) {
            for (o, ak) in out.iter_mut().zip(row) {
                *o = o.clone() - zi.clone() * ak.clone();
            }
        }
    }
    poly.contains(&out).then_some(out)
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
    fn interior_point_projects_to_itself() {
        let x = [r(1, 2), r(1, 3)];
        match project_onto_polyhedron(&x, &unit_box()) {
            QpOutcome::Optimal { y, dist_sq } => {
                assert_eq!(y, vec![r(1, 2), r(1, 3)]);
                assert!(dist_sq.is_zero());
            }
            _ => panic!("feasible box"),
        }
    }

    #[test]
    fn face_projection() {
        let x = [r(2, 1), r(1, 2)];
        match project_onto_polyhedron(&x, &unit_box()) {
            QpOutcome::Optimal { y, dist_sq } => {
                assert_eq!(y, vec![r(1, 1), r(1, 2)]);
                assert_eq!(dist_sq, r(1, 1));
            }
            _ => panic!("feasible box"),
        }
    }

    #[test]
    fn corner_projection() {
        let x = [r(3, 1), r(4, 1)];
        match project_onto_polyhedron(&x, &unit_box()) {
            QpOutcome::Optimal { y, dist_sq } => {
                assert_eq!(y, vec![r(1, 1), r(1, 1)]);
                assert_eq!(dist_sq, r(13, 1)); // 2² + 3²
            }
            _ => panic!("feasible box"),
        }
    }

    #[test]
    fn projection_onto_affine_line() {
        // Project the origin onto {x + y = 1}: closest point (1/2, 1/2).
        let mut p = Polyhedron::whole_space(2);
        p.add_le(vec![r(1, 1), r(1, 1)], r(1, 1));
        p.add_ge(vec![r(1, 1), r(1, 1)], r(1, 1));
        match project_onto_polyhedron(&[r(0, 1), r(0, 1)], &p) {
            QpOutcome::Optimal { y, dist_sq } => {
                assert_eq!(y, vec![r(1, 2), r(1, 2)]);
                assert_eq!(dist_sq, r(1, 2));
            }
            _ => panic!("line is nonempty"),
        }
    }

    #[test]
    fn projection_onto_simplex() {
        // {x ≥ 0, y ≥ 0, x + y ≤ 1} from (2,2) → (1/2, 1/2).
        let mut p = Polyhedron::whole_space(2);
        p.add_ge(vec![r(1, 1), r(0, 1)], r(0, 1));
        p.add_ge(vec![r(0, 1), r(1, 1)], r(0, 1));
        p.add_le(vec![r(1, 1), r(1, 1)], r(1, 1));
        match project_onto_polyhedron(&[r(2, 1), r(2, 1)], &p) {
            QpOutcome::Optimal { y, dist_sq } => {
                assert_eq!(y, vec![r(1, 2), r(1, 2)]);
                assert_eq!(dist_sq, r(9, 2));
            }
            _ => panic!("simplex is nonempty"),
        }
    }

    #[test]
    fn infeasible_polyhedron() {
        let mut p = Polyhedron::whole_space(1);
        p.add_ge(vec![r(1, 1)], r(1, 1));
        p.add_le(vec![r(1, 1)], r(0, 1));
        assert_eq!(project_onto_polyhedron(&[r(0, 1)], &p), QpOutcome::Infeasible);
    }

    #[test]
    fn redundant_constraints_tolerated() {
        let mut p = unit_box();
        // Duplicate a face twice more.
        p.add_le(vec![r(1, 1), r(0, 1)], r(1, 1));
        p.add_le(vec![r(2, 1), r(0, 1)], r(2, 1));
        match project_onto_polyhedron(&[r(5, 1), r(1, 2)], &p) {
            QpOutcome::Optimal { y, .. } => assert_eq!(y, vec![r(1, 1), r(1, 2)]),
            _ => panic!("feasible"),
        }
    }

    #[test]
    fn exact_and_float_agree_on_random_projections() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..25 {
            let n = rng.gen_range(1..4usize);
            let m = rng.gen_range(1..6usize);
            let mut pr = Polyhedron::<Rat>::whole_space(n);
            let mut pf = Polyhedron::<f64>::whole_space(n);
            for _ in 0..m {
                let a: Vec<i64> = (0..n).map(|_| rng.gen_range(-3i64..4)).collect();
                if a.iter().all(|&v| v == 0) {
                    continue;
                }
                let b = rng.gen_range(0i64..8);
                pr.add_le(a.iter().map(|&v| Rat::from_int(v)).collect(), Rat::from_int(b));
                pf.add_le(a.iter().map(|&v| v as f64).collect(), b as f64);
            }
            let x: Vec<i64> = (0..n).map(|_| rng.gen_range(-5i64..6)).collect();
            let xr: Vec<Rat> = x.iter().map(|&v| Rat::from_int(v)).collect();
            let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
            let or = project_onto_polyhedron(&xr, &pr);
            let of = project_onto_polyhedron(&xf, &pf);
            match (or, of) {
                (
                    QpOutcome::Optimal { dist_sq: dr, y: yr },
                    QpOutcome::Optimal { dist_sq: df, .. },
                ) => {
                    assert!(
                        (dr.to_f64() - df).abs() < 1e-6,
                        "distance mismatch: exact {dr} vs float {df}"
                    );
                    assert!(pr.contains(&yr), "exact projection must stay feasible");
                }
                (QpOutcome::Infeasible, QpOutcome::Infeasible) => {}
                (a, b) => panic!("outcome class mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    /// The polish moves an `f64` active-set point by rounding only: on
    /// Voronoi cells of random points, started cold and from the cell's
    /// point, the polished point is feasible and its `dist²` is within
    /// 1e-12 relative of the unpolished one (1e-24 absolute when `x` lies
    /// inside the cell).
    #[test]
    fn polish_is_a_rounding_level_correction() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let n = rng.gen_range(1..=6usize);
            let points: Vec<Vec<f64>> = (0..rng.gen_range(2..=40usize))
                .map(|_| (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let a = &points[0];
            let mut poly = Polyhedron::whole_space(n);
            for c in &points[1..] {
                let g: Vec<f64> = a.iter().zip(c).map(|(ai, ci)| 2.0 * (ci - ai)).collect();
                poly.add_le(g, dot(c, c) - dot(a, a));
            }
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            for start in [None, Some(a.as_slice())] {
                let y = active_set(&x, &poly, start).expect("the cell contains its point");
                let polished = polish(&x, &poly, &y).expect("no fallback on random cells");
                assert!(poly.contains(&polished));
                let d = |p: &[f64]| x.iter().zip(p).map(|(u, v)| (u - v) * (u - v)).sum::<f64>();
                let (du, dp) = (d(&y), d(&polished));
                assert!((dp - du).abs() <= 1e-12 * du + 1e-24, "{du} vs {dp}");
            }
        }
    }

    #[test]
    fn optimality_dominates_random_feasible_points() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let poly = unit_box();
        for _ in 0..40 {
            let x =
                [Rat::frac(rng.gen_range(-40i64..40), 8), Rat::frac(rng.gen_range(-40i64..40), 8)];
            let QpOutcome::Optimal { dist_sq, .. } = project_onto_polyhedron(&x, &poly) else {
                panic!("box feasible");
            };
            for _ in 0..10 {
                let z =
                    [Rat::frac(rng.gen_range(0i64..=8), 8), Rat::frac(rng.gen_range(0i64..=8), 8)];
                let d: Rat = norm_sq(&[x[0].clone() - z[0].clone(), x[1].clone() - z[1].clone()]);
                assert!(d >= dist_sq, "random feasible point beats 'optimal' projection");
            }
        }
    }
}
