//! Property tests for warm-started projections: a solve started from a
//! feasible point must return exactly what the cold solve (phase-1 LP
//! start) returns — equal values in `Rat`, equal bits in `f64` — because
//! both end in the same KKT polish on the tight rows.
//!
//! Two instance families:
//! * the anchored random polyhedra of `prop_projection.rs` (every halfspace
//!   offset to keep a designated anchor feasible), started from the anchor;
//! * Voronoi cells of random point sets in up to 6 dimensions (the k = 1
//!   regions of the ℓ2 counterfactual), started from the cell's own point.

use knn_num::field::norm_sq;
use knn_num::{Field, Rat};
use knn_qp::{project_onto_polyhedron, project_onto_polyhedron_from, Polyhedron, QpOutcome};
use proptest::prelude::*;

/// A nonempty polyhedron `{y : a·y ≤ b}`, a feasible start and a point to
/// project, with coordinates on the grid `1/8 · ℤ` so that `f64` and `Rat`
/// hold the same instance exactly.
#[derive(Clone, Debug)]
struct Instance {
    n: usize,
    start: Vec<i64>,
    rows: Vec<(Vec<i64>, i64)>,
    x: Vec<i64>,
}

const GRID: i64 = 8;

/// `prop_projection.rs`'s anchored instances: rows through the anchor plus
/// a nonnegative slack.
fn anchored_strategy() -> impl Strategy<Value = Instance> {
    (1..=4usize).prop_flat_map(|n| {
        (
            prop::collection::vec(-16i64..=16, n),
            prop::collection::vec((prop::collection::vec(-16i64..=16, n), 0i64..=12), 1..=6),
            prop::collection::vec(-24i64..=24, n),
        )
            .prop_map(move |(anchor, rows, x)| {
                let rows = rows
                    .into_iter()
                    .filter(|(a, _)| a.iter().any(|&c| c != 0))
                    // Slack up to 12/GRID = 1.5, as in `prop_projection.rs`.
                    .map(|(a, slack)| {
                        let b = dot_i(&a, &anchor) + slack;
                        (a, b)
                    })
                    .collect();
                Instance { n, start: anchor, rows, x }
            })
    })
}

/// The Voronoi cell of `points[0]` against the rest:
/// `2(c − a)·y ≤ c·c − a·a` for every other point `c`, started from `a`.
fn voronoi_strategy() -> impl Strategy<Value = Instance> {
    (1..=6usize).prop_flat_map(|n| {
        (
            prop::collection::vec(prop::collection::vec(-16i64..=16, n), 2..=12),
            prop::collection::vec(-24i64..=24, n),
        )
            .prop_map(move |(points, x)| {
                let a = &points[0];
                let rows = points[1..]
                    .iter()
                    .filter(|c| *c != a)
                    .map(|c| {
                        let g: Vec<i64> = a.iter().zip(c).map(|(ai, ci)| 2 * (ci - ai)).collect();
                        // For grid points a/GRID and c/GRID the bisector,
                        // times GRID, is 2(c − a)·y ≤ (c·c − a·a)/GRID.
                        (g, dot_i(c, c) - dot_i(a, a))
                    })
                    .collect();
                Instance { n, start: a.clone(), rows, x }
            })
    })
}

fn dot_i(a: &[i64], b: &[i64]) -> i64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The instance in field `F`: row `(a, b)` is `a·y ≤ b/GRID`, and a grid
/// vector `v` is the point `v/GRID`.
fn build<F: Field>(inst: &Instance, of: impl Fn(i64) -> F) -> (Polyhedron<F>, Vec<F>, Vec<F>) {
    let scale = |v: i64| of(v) / of(GRID);
    let mut poly = Polyhedron::whole_space(inst.n);
    for (a, b) in &inst.rows {
        poly.add_le(a.iter().map(|&c| of(c)).collect(), scale(*b));
    }
    let start = inst.start.iter().map(|&v| scale(v)).collect();
    let x = inst.x.iter().map(|&v| scale(v)).collect();
    (poly, start, x)
}

fn optimal<F: Field>(out: QpOutcome<F>) -> (Vec<F>, F) {
    match out {
        QpOutcome::Optimal { y, dist_sq } => (y, dist_sq),
        QpOutcome::Infeasible => panic!("the start point is feasible by construction"),
    }
}

fn check_rat(inst: &Instance) -> Result<(), TestCaseError> {
    let (poly, start, x) = build(inst, Rat::from_int);
    prop_assert!(poly.contains(&start));
    let (yc, dc) = optimal(project_onto_polyhedron(&x, &poly));
    let (yw, dw) = optimal(project_onto_polyhedron_from(&x, &poly, Some(&start)));
    prop_assert_eq!(&yw, &yc, "warm and cold projections differ in Rat");
    prop_assert_eq!(&dw, &dc);
    prop_assert!(poly.contains(&yw));
    let diff: Vec<Rat> = x.iter().zip(&yw).map(|(a, b)| a.clone() - b.clone()).collect();
    prop_assert_eq!(norm_sq(&diff), dw);
    Ok(())
}

fn check_f64(inst: &Instance) -> Result<(), TestCaseError> {
    let (poly, start, x) = build(inst, |v| v as f64);
    prop_assert!(poly.contains(&start));
    let (yc, dc) = optimal(project_onto_polyhedron(&x, &poly));
    let (yw, dw) = optimal(project_onto_polyhedron_from(&x, &poly, Some(&start)));
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&yw), bits(&yc), "warm {:?} vs cold {:?}", yw, yc);
    prop_assert_eq!(dw.to_bits(), dc.to_bits(), "warm {} vs cold {}", dw, dc);
    prop_assert!(poly.contains(&yw), "polished projection {:?} is infeasible", yw);
    // Agreement with the exact projection of the same instance.
    let (exact_poly, _, exact_x) = build(inst, Rat::from_int);
    let exact = optimal(project_onto_polyhedron(&exact_x, &exact_poly)).1.to_f64();
    prop_assert!(
        (dw - exact).abs() <= 1e-9 * exact.max(1.0),
        "f64 dist² {} vs exact {}",
        dw,
        exact
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn anchored_warm_equals_cold_in_rat(inst in anchored_strategy()) {
        check_rat(&inst)?;
    }

    #[test]
    fn anchored_warm_equals_cold_in_f64(inst in anchored_strategy()) {
        check_f64(&inst)?;
    }

    #[test]
    fn voronoi_warm_equals_cold_in_rat(inst in voronoi_strategy()) {
        check_rat(&inst)?;
    }

    #[test]
    fn voronoi_warm_equals_cold_in_f64(inst in voronoi_strategy()) {
        check_f64(&inst)?;
    }
}
