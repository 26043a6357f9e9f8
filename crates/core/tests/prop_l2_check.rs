//! Properties of ℓ2 Check-SR ([`L2Abductive::check`]) on random instances,
//! served over a shared [`LazyRegions`] view as the batch engine does:
//!
//! * the verdict equals that of a full-space LP reference written here from
//!   the public API: the query's pruned, nearest-anchor-first
//!   [`RegionStream::for_query`], and per region the Prop 3 LPs (strict,
//!   then closed, for the positive region; strict for the negative) in all
//!   `d` coordinates, with one equality row per fixed feature — not the
//!   served substitution of `x̄` into the free coordinates;
//! * a "not sufficient" witness equals `x̄` exactly on the fixed features
//!   (bit for bit in `f64`) and [`ContinuousKnn`] gives it the flipped label.
//!
//! Data is exact `Rat` on a ½ grid and `f64` on a 0.1 grid, most of whose
//! values binary floating point cannot represent, at k ∈ {1, 3}, up to 5
//! dimensions and 8 points per class (5 at k = 3). Every query is checked
//! with the empty fixed set, the full one, all but one, two and three
//! features fixed (the greedy-deletion steps), and random ones in between.

use knn_core::abductive::l2::L2Abductive;
use knn_core::regions::{LazyRegions, RegionStream};
use knn_core::{ContinuousKnn, SrCheck};
use knn_lp::{LpProblem, Rel};
use knn_num::{Field, Rat};
use knn_space::{ContinuousDataset, Label, LpMetric, OddK};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Instance {
    pos: Vec<Vec<i64>>,
    neg: Vec<Vec<i64>>,
    k3: bool,
    queries: Vec<Vec<i64>>,
    masks: Vec<u32>,
    /// The first of the features left free in the all-but-r fixed sets.
    offset: usize,
}

/// Coordinates are integers in `-span..=span`, scaled by the caller. At
/// k = 3 a class holds at most 5 points: a "sufficient" verdict runs one LP
/// per region, and the k = 3 decomposition of two 8-point classes takes
/// seconds per check in an unoptimized build.
fn instance_strategy(span: i64) -> impl Strategy<Value = Instance> {
    (1..=5usize, any::<bool>()).prop_flat_map(move |(dim, k3)| {
        let pt = || prop::collection::vec(-span..=span, dim);
        let per_class = if k3 { 1..=5 } else { 1..=8 };
        (
            prop::collection::vec(pt(), per_class.clone()),
            prop::collection::vec(pt(), per_class),
            prop::collection::vec(pt(), 1..=2),
            prop::collection::vec(0u32..(1 << dim), 2),
            0..dim,
        )
            .prop_map(move |(pos, neg, queries, masks, offset)| Instance {
                pos,
                neg,
                k3,
                queries,
                masks,
                offset,
            })
    })
}

fn k_of(inst: &Instance) -> OddK {
    if inst.k3 && inst.pos.len() + inst.neg.len() >= 3 {
        OddK::THREE
    } else {
        OddK::ONE
    }
}

fn dataset<F: Field>(inst: &Instance, conv: impl Fn(i64) -> F) -> ContinuousDataset<F> {
    let set = |pts: &[Vec<i64>]| -> Vec<Vec<F>> {
        pts.iter().map(|p| p.iter().map(|&c| conv(c)).collect()).collect()
    };
    ContinuousDataset::from_sets(set(&inst.pos), set(&inst.neg))
}

/// The fixed sets every query is checked under: ∅, all features, all but
/// r ∈ {1, 2, 3} of them (r consecutive features free, cyclically from the
/// instance's offset), and the instance's random masks.
fn fixed_sets(inst: &Instance, dim: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new(), (0..dim).collect()];
    for r in 1..dim.min(4) {
        let free = |i: usize| (i + dim - inst.offset) % dim < r;
        sets.push((0..dim).filter(|&i| !free(i)).collect());
    }
    for &m in &inst.masks {
        sets.push((0..dim).filter(|&i| m >> i & 1 == 1).collect());
    }
    sets
}

/// Prop 3 by LPs alone: is there a region of the opposite label that meets
/// `U(X, x̄)`? Each region's LP is cut down to `U(X, x̄)` by one equality
/// row per fixed feature, in all `d` coordinates. The same classifier guard as the engine
/// discards a float LP point a rounding error onto the wrong side of a
/// bisector; it reads the point with `x̄` written back on `X`, since the
/// simplex returns a fixed coordinate with a rounding error of its own.
fn lp_only_sufficient<F: Field>(
    ds: &ContinuousDataset<F>,
    k: OddK,
    x: &[F],
    fixed: &[usize],
) -> bool {
    let knn = ContinuousKnn::new(ds, LpMetric::L2, k);
    let target = knn.classify(x).flip();
    for (poly, _) in RegionStream::for_query(ds, k, target, x, None) {
        let pinned = |mut lp: LpProblem<F>| {
            for &i in fixed {
                lp.add_constraint(vec![(i, F::one())], Rel::Eq, x[i].clone());
            }
            lp
        };
        let strict = || pinned(poly.to_strict_lp()).strict_feasible();
        let witness = match target {
            Label::Positive => strict().or_else(|| pinned(poly.to_lp()).feasible_point()),
            Label::Negative => strict(),
        };
        let on_x = |mut w: Vec<F>| {
            for &i in fixed {
                w[i] = x[i].clone();
            }
            w
        };
        if witness.map(on_x).is_some_and(|w| knn.classify(&w) == target) {
            return false;
        }
    }
    true
}

/// Checks every query of `inst` under every fixed set; `same` compares a
/// witness coordinate with `x̄`'s.
fn check_instance<F: Field>(
    inst: &Instance,
    conv: impl Fn(i64) -> F + Copy,
    same: impl Fn(&F, &F) -> bool,
) -> Result<(), TestCaseError> {
    let ds = dataset(inst, conv);
    let k = k_of(inst);
    let lazy = LazyRegions::new(&ds, k);
    let ab = L2Abductive::with_lazy_regions(&ds, &lazy);
    let knn = ContinuousKnn::new(&ds, LpMetric::L2, k);
    for q in &inst.queries {
        let x: Vec<F> = q.iter().map(|&c| conv(c)).collect();
        let target = knn.classify(&x).flip();
        for fixed in fixed_sets(inst, ds.dim()) {
            let got = ab.check(&x, &fixed);
            prop_assert_eq!(
                got.is_sufficient(),
                lp_only_sufficient(&ds, k, &x, &fixed),
                "verdict for x = {:?}, X = {:?}",
                q,
                fixed
            );
            if let SrCheck::NotSufficient { witness } = got {
                for &i in &fixed {
                    prop_assert!(
                        same(&witness[i], &x[i]),
                        "witness {:?} leaves x̄ = {:?} on fixed feature {}",
                        witness,
                        x,
                        i
                    );
                }
                prop_assert_eq!(knn.classify(&witness), target);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exact_check_matches_lp_reference(inst in instance_strategy(6)) {
        check_instance(&inst, |c| Rat::frac(c, 2), |a: &Rat, b: &Rat| a == b)?;
    }

    #[test]
    fn float_check_matches_lp_reference(inst in instance_strategy(30)) {
        check_instance(&inst, |c| c as f64 / 10.0, |a: &f64, b: &f64| a.to_bits() == b.to_bits())?;
    }
}
