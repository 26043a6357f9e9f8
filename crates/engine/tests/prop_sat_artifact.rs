//! The Hamming SAT routes answer from one shared model per epoch and
//! `(k, target)`, instantiated afresh for every query. Two properties pin
//! that down over small random 0/1 datasets (at most 8 dimensions):
//!
//! * **Correct by the paper's definitions.** Every SAT route's answer is
//!   checked against `knn_core::brute`, code independent of the encoding:
//!   a counterfactual sits at the brute-force optimum (or, budgeted and
//!   unproven, no closer than it) with the flipped label; a Check-SR verdict
//!   matches, and a counterexample agrees with x on the fixed features and
//!   flips the label; a minimal reason is sufficient and no single deletion
//!   of it is; a minimum reason has the brute-force minimum size.
//! * **Nothing leaks through the shared model.** A shuffled request stream
//!   served by one engine, with inserts and removals that drop the models,
//!   answers every request byte-for-byte as a fresh engine over the same
//!   data does.

use knn_core::brute;
use knn_core::classifier::BooleanKnn;
use knn_engine::{
    textfmt, EngineConfig, EngineData, ExplanationEngine, Mutation, Outcome, Request, Response,
};
use knn_space::{BitVec, ContinuousDataset, Label, OddK};
use proptest::prelude::*;

const CMDS: [&str; 4] = ["counterfactual", "check-sr", "minimal-sr", "minimum-sr"];

/// One request: command, k, query point and check-SR features as bit masks.
#[derive(Clone, Debug)]
struct QuerySpec {
    cmd: usize,
    k: u32,
    bits: u16,
    features: u16,
}

fn query_strategy(dim: usize) -> impl Strategy<Value = QuerySpec> {
    (0..CMDS.len(), prop::sample::select(vec![1u32, 3]), 0..(1u16 << dim), 0..(1u16 << dim))
        .prop_map(|(cmd, k, bits, features)| QuerySpec { cmd, k, bits, features })
}

/// A dataset (bit masks and labels, at least 3 points) and queries over it.
fn case_strategy() -> impl Strategy<Value = (usize, Vec<(u16, bool)>, Vec<QuerySpec>)> {
    (2..=8usize).prop_flat_map(|dim| {
        (
            Just(dim),
            prop::collection::vec((0..(1u16 << dim), any::<bool>()), 3..=10),
            prop::collection::vec(query_strategy(dim), 1..=8),
        )
    })
}

fn coords(bits: u16, dim: usize) -> Vec<f64> {
    (0..dim).map(|j| f64::from((bits >> j) & 1)).collect()
}

fn engine(dim: usize, points: &[(u16, bool)], effort_budget: Option<u64>) -> ExplanationEngine {
    let mut ds = ContinuousDataset::new(dim);
    for &(bits, positive) in points {
        ds.push(coords(bits, dim), if positive { Label::Positive } else { Label::Negative });
    }
    let config = EngineConfig { workers: 1, cache_capacity: 0, effort_budget };
    ExplanationEngine::new(EngineData::from_continuous(ds), config)
}

fn request(q: &QuerySpec, dim: usize, id: usize) -> Request {
    let point: Vec<String> = coords(q.bits, dim).iter().map(f64::to_string).collect();
    let features: Vec<String> =
        (0..dim).filter(|j| (q.features >> j) & 1 == 1).map(|j| j.to_string()).collect();
    let line = format!(
        r#"{{"id":"q{id}","cmd":"{}","metric":"hamming","k":{},"point":[{}],"features":[{}]}}"#,
        CMDS[q.cmd],
        q.k,
        point.join(","),
        features.join(",")
    );
    Request::from_json_line(&line, "0").unwrap()
}

fn bits_of(point: &[f64]) -> BitVec {
    BitVec::from_bools(&point.iter().map(|&v| v == 1.0).collect::<Vec<_>>())
}

/// Checks one served response against the brute-force definitions.
fn check_answer(engine: &ExplanationEngine, req: &Request, resp: &Response) -> Result<(), String> {
    let data = engine.data();
    let ds = data.boolean.as_ref().expect("0/1 data has the boolean view");
    let k = OddK::new(req.k).unwrap();
    let knn = BooleanKnn::new(ds, k);
    let x = bits_of(&req.point);
    let fx = knn.classify(&x);
    let fixed = req.features.as_deref().unwrap_or(&[]);
    let outcome = resp.result.as_ref().map_err(|e| format!("error response: {e}"))?;
    let sufficient = |set: &[usize]| brute::is_sufficient_reason(&knn, &x, set);
    match outcome {
        Outcome::NoCounterfactual => match brute::closest_counterfactual(&knn, &x) {
            None => Ok(()),
            Some((_, d)) => Err(format!("no counterfactual served, brute force found one at {d}")),
        },
        Outcome::Counterfactual { point, dist, proven } => {
            let y = bits_of(point);
            let (_, best) = brute::closest_counterfactual(&knn, &x)
                .ok_or("counterfactual served, brute force found none")?;
            let d = x.hamming(&y);
            if knn.classify(&y) == fx || d as f64 != *dist {
                return Err(format!("witness at {d} (reported {dist}) keeps the label"));
            }
            // Proven means optimal; a budget-best witness is merely no
            // closer than the optimum.
            if if *proven { d == best } else { d >= best } {
                Ok(())
            } else {
                Err(format!("distance {d}, proven {proven}, brute-force optimum {best}"))
            }
        }
        Outcome::Check { sufficient: verdict, witness } => {
            if *verdict != sufficient(fixed) {
                return Err(format!("verdict {verdict} on {fixed:?} disagrees with brute force"));
            }
            if let Some(w) = witness {
                let y = bits_of(w);
                if fixed.iter().any(|&i| y.get(i) != x.get(i)) || knn.classify(&y) == fx {
                    return Err(format!("counterexample {w:?} is not one for {fixed:?}"));
                }
            }
            Ok(())
        }
        Outcome::Reason { features, optimal } => {
            if !sufficient(features) {
                return Err(format!("reason {features:?} is not sufficient"));
            }
            let minimal = (0..features.len()).all(|i| {
                let mut sub = features.clone();
                sub.remove(i);
                !sufficient(&sub)
            });
            if !minimal && req.kind.name() == "minimal-sr" {
                return Err(format!("reason {features:?} is not minimal"));
            }
            let min = brute::minimum_sufficient_reason(&knn, &x).len();
            if req.kind.name() == "minimum-sr" && *optimal && features.len() != min {
                return Err(format!("reason {features:?} claimed minimum, brute force has {min}"));
            }
            Ok(())
        }
        Outcome::Label(_) => Err("classify is not a SAT route".into()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every Hamming route, exact and under a tiny conflict budget (which
    /// demotes counterfactuals to `hamming-sat-budgeted` and minimum-SR to
    /// the greedy hitting set), answers by the paper's definitions.
    #[test]
    fn sat_routes_match_brute_force((dim, points, queries) in case_strategy()) {
        for budget in [None, Some(2)] {
            let engine = engine(dim, &points, budget);
            for (i, q) in queries.iter().enumerate() {
                let req = request(q, dim, i);
                let resp = engine.run(&req);
                if let Err(e) = check_answer(&engine, &req, &resp) {
                    prop_assert!(false, "{} ({}): {e}", req.to_json_line(), resp.route);
                }
            }
        }
    }

    /// One engine serves the queries shuffled and repeated, with mutations
    /// between them; each response equals a fresh engine's.
    #[test]
    fn shared_models_leak_nothing_between_queries(
        (dim, points, queries) in case_strategy(),
        stream in prop::collection::vec((0..10u8, 0..64usize, any::<u16>(), any::<bool>()), 4..=20),
    ) {
        let served = engine(dim, &points, None);
        for (step, &(kind, pick, bits, positive)) in stream.iter().enumerate() {
            match kind {
                0 => {
                    let point = coords(bits & ((1 << dim) - 1), dim);
                    let label = if positive { Label::Positive } else { Label::Negative };
                    served.apply(Mutation::Insert { point, label }).unwrap();
                }
                1 if served.data().continuous.len() > 3 => {
                    let id = pick % served.data().continuous.len();
                    served.apply(Mutation::Remove { id }).unwrap();
                }
                _ => {
                    let req = request(&queries[pick % queries.len()], dim, step);
                    let fresh = ExplanationEngine::new(
                        textfmt::parse_dataset(&served.dataset_text()).unwrap(),
                        served.config().clone(),
                    );
                    prop_assert_eq!(
                        served.run(&req).to_json_line(),
                        fresh.run(&req).to_json_line(),
                        "step {} epoch {}", step, served.epoch()
                    );
                }
            }
        }
    }
}

/// The cap-boundary tenant: 512 points in 12 dimensions, copies of `0¹²`
/// (positive) and of the weight-`w` point `1ʷ0¹²⁻ʷ` (negative). The ball
/// fits under `ENUMERATION_CAP` up to radius 5, not radius 6, and the
/// counterfactual of either centre flips ⌊w/2⌋ + 1 coordinates: radius 5
/// at w = 9 (enumerated), radius 6 at w = 11 (SAT from floor 6).
fn cap_boundary_engine(w: u32) -> (usize, u16, ExplanationEngine) {
    use knn_core::ball::ENUMERATION_CAP;
    let (dim, n) = (12, 512);
    let ball = |radius: usize| (0..=radius).map(|r| binomial(dim, r)).sum::<usize>() * n;
    assert!(ball(5) <= ENUMERATION_CAP && ball(6) > ENUMERATION_CAP);
    let far = (1u16 << w) - 1;
    let points: Vec<(u16, bool)> =
        (0..n).map(|i| if i % 2 == 0 { (0, true) } else { (far, false) }).collect();
    (dim, far, engine(dim, &points, None))
}

fn binomial(m: usize, r: usize) -> usize {
    (1..=r).fold(1, |acc, i| acc * (m - r + i) / i)
}

/// The routes share one model per (k, target) within an epoch: many
/// queries, few builds — and a mutation drops the models, so the next
/// epoch builds its own. Every counterfactual here lies past the
/// enumeration cap (a route fetches its model only then).
#[test]
fn one_model_per_target_serves_an_epoch() {
    let (dim, far, served) = cap_boundary_engine(11);
    // Each centre, and each with the coordinate outside `far` set: 6 flips
    // from a counterfactual, two per target.
    let queries: Vec<QuerySpec> = [0, 1 << 11, far, far | 1 << 11]
        .iter()
        .cycle()
        .take(8)
        .map(|&bits| QuerySpec { cmd: 0, k: 1, bits, features: 0 })
        .collect();
    for (i, q) in queries.iter().enumerate() {
        served.run(&request(q, dim, i));
    }
    let stats = served.stats();
    assert!(stats.artifacts_built_total <= 2, "one model per target, got {stats:?}");
    served.apply(Mutation::Remove { id: 0 }).unwrap();
    assert_eq!(served.stats().artifacts_built, 0, "the mutation drops the models");
    served.run(&request(&queries[0], dim, 0));
    assert_eq!(served.stats().artifacts_built, 1);
}

/// A tenant whose Hamming counterfactuals all fit under the enumeration
/// cap never builds a SAT model: at 300 × 16 every radius up to 4 fits, and
/// every answer here lies within it.
#[test]
fn enumerated_counterfactuals_build_no_model() {
    use knn_datasets::random::{random_boolean_dataset, random_boolean_point};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let (n, dim) = (300, 16);
    let mut rng = StdRng::seed_from_u64(16);
    let ds = random_boolean_dataset(&mut rng, n, dim, 0.5);
    let bits = |p: &BitVec| (0..dim).filter(|&j| p.get(j)).map(|j| 1u16 << j).sum::<u16>();
    let points: Vec<(u16, bool)> =
        ds.iter().map(|(p, l)| (bits(p), l == Label::Positive)).collect();
    for budget in [None, Some(2)] {
        let served = engine(dim, &points, budget);
        for i in 0..40 {
            let q = QuerySpec {
                cmd: 0,
                k: [1, 3][i % 2],
                bits: bits(&random_boolean_point(&mut rng, dim)),
                features: 0,
            };
            let req = request(&q, dim, i);
            let resp = served.run(&req);
            match &resp.result {
                Ok(Outcome::Counterfactual { dist, proven: true, .. }) => assert!(*dist <= 4.0),
                other => panic!("{}: {other:?}", req.to_json_line()),
            }
        }
        assert_eq!(served.stats().artifacts_built, 0, "budget {budget:?}");
    }
}

/// An answer at the last radius that fits under the cap, and one a radius
/// beyond it, are both proven at the brute-force distance; only the second
/// builds the SAT model.
#[test]
fn answers_on_both_sides_of_the_cap_are_proven() {
    for (w, radius) in [(9, 5), (11, 6)] {
        let (dim, _, served) = cap_boundary_engine(w);
        let req = request(&QuerySpec { cmd: 0, k: 1, bits: 0, features: 0 }, dim, 0);
        let resp = served.run(&req);
        match &resp.result {
            Ok(Outcome::Counterfactual { dist, proven: true, .. }) => {
                assert_eq!(*dist, radius as f64, "w = {w}")
            }
            other => panic!("w = {w}: {other:?}"),
        }
        check_answer(&served, &req, &resp).unwrap();
        assert_eq!(served.stats().artifacts_built, usize::from(radius == 6), "w = {w}");
    }
}
