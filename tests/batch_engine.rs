//! Integration: the batch engine must agree exactly with the single-query
//! CLI path (`cli::run_query`) across all three metric settings, and the
//! `xknn batch` subcommand must serve deterministic JSON-lines end-to-end.

use explainable_knn::cli::{self, run_query, MetricChoice, QueryOutput};
use explainable_knn::prelude::*;
use knn_engine::{EngineConfig, EngineData, Metric, Outcome, QueryKind, Request};
use std::io::Write;
use std::process::{Command, Stdio};

// The exact ℓ2 reference of knn-core's tests; this file uses part of it.
#[allow(dead_code)]
#[path = "../crates/core/tests/exhaustive/mod.rs"]
mod exhaustive;

const BOOL: &str = "+ 1 1 1 0 0\n+ 1 1 0 0 0\n+ 1 0 1 0 0\n- 0 0 0 1 1\n- 0 0 1 1 1\n- 0 1 0 1 1\n";
const CONT: &str = "+ 2.0 2.0\n+ 3.0 1.5\n+ 1.0 2.5\n- -1.0 -1.0\n- 0.0 -2.0\n- -2.0 0.5\n";

fn engine_for(text: &str, workers: usize) -> (cli::ParsedData, ExplanationEngine) {
    let data = cli::parse_dataset(text).unwrap();
    let engine =
        cli::batch_engine(&data, cli::BatchOptions { workers, ..cli::BatchOptions::default() });
    (data, engine)
}

fn request(kind: &str, metric: &str, k: u32, point: &[f64], features: Option<&[usize]>) -> Request {
    Request {
        id: "t".into(),
        kind: QueryKind::parse(kind).unwrap(),
        metric: Metric::parse(metric).unwrap(),
        k,
        point: point.to_vec(),
        features: features.map(|f| f.to_vec()),
    }
}

/// Engine outcome == CLI outcome, field by field.
fn assert_agrees(
    data: &cli::ParsedData,
    engine: &ExplanationEngine,
    kind: &str,
    metric_s: &str,
    k: u32,
    point: &[f64],
    features: Option<&[usize]>,
) {
    let metric = MetricChoice::parse(metric_s).unwrap();
    let cli_out = run_query(data, metric, k, kind, point, features);
    let resp = engine.run(&request(kind, metric_s, k, point, features));
    match (cli_out, resp.result) {
        (Err(_), Err(_)) => {}
        (Ok(QueryOutput::Label(a)), Ok(Outcome::Label(b))) => {
            assert_eq!(a, b, "{kind}/{metric_s}/k={k}/{point:?}")
        }
        (Ok(QueryOutput::Reason(a)), Ok(Outcome::Reason { features: b, optimal: true })) => {
            assert_eq!(a, b, "{kind}/{metric_s}/k={k}/{point:?}")
        }
        (
            Ok(QueryOutput::Check { sufficient: a, witness: wa }),
            Ok(Outcome::Check { sufficient: b, witness: wb }),
        ) => {
            assert_eq!(a, b, "{kind}/{metric_s}/k={k}/{point:?}");
            assert_eq!(wa.is_some(), wb.is_some());
        }
        (
            Ok(QueryOutput::Counterfactual { point: pa, dist: da, proven: va }),
            Ok(Outcome::Counterfactual { point: pb, dist: db, proven: vb }),
        ) => {
            assert_eq!(pa, pb, "{kind}/{metric_s}/k={k}/{point:?}");
            assert_eq!(da, db);
            assert_eq!(va, vb);
        }
        (Ok(QueryOutput::NoCounterfactual), Ok(Outcome::NoCounterfactual)) => {}
        (a, b) => panic!("{kind}/{metric_s}/k={k}/{point:?}: CLI {a:?} vs engine {b:?}"),
    }
}

#[test]
fn engine_matches_cli_on_hamming() {
    let (data, engine) = engine_for(BOOL, 3);
    let points: [&[f64]; 3] =
        [&[1.0, 1.0, 0.0, 1.0, 0.0], &[0.0, 0.0, 0.0, 0.0, 0.0], &[1.0, 0.0, 1.0, 0.0, 1.0]];
    for point in points {
        for k in [1, 3] {
            for kind in ["classify", "minimal-sr", "minimum-sr", "counterfactual"] {
                assert_agrees(&data, &engine, kind, "hamming", k, point, None);
            }
            assert_agrees(&data, &engine, "check-sr", "hamming", k, point, Some(&[0, 3]));
        }
    }
}

#[test]
fn engine_matches_cli_on_l2() {
    let (data, engine) = engine_for(CONT, 3);
    let points: [&[f64]; 3] = [&[1.5, 1.0], &[-0.5, 0.25], &[0.0, 0.0]];
    for point in points {
        for k in [1, 3] {
            for kind in ["classify", "minimal-sr", "minimum-sr", "counterfactual"] {
                assert_agrees(&data, &engine, kind, "l2", k, point, None);
            }
            assert_agrees(&data, &engine, "check-sr", "l2", k, point, Some(&[0]));
        }
    }
}

#[test]
fn engine_matches_cli_on_l1() {
    let (data, engine) = engine_for(CONT, 3);
    let points: [&[f64]; 2] = [&[1.5, 1.0], &[-0.5, -0.5]];
    for point in points {
        // k = 1: the only exact ℓ1 regime (Table 1).
        for kind in ["classify", "minimal-sr", "minimum-sr", "counterfactual"] {
            assert_agrees(&data, &engine, kind, "l1", 1, point, None);
        }
        assert_agrees(&data, &engine, "check-sr", "l1", 1, point, Some(&[1]));
        // k = 3: both sides must refuse the abductive cells identically.
        for kind in ["minimal-sr", "minimum-sr", "check-sr"] {
            let metric = MetricChoice::parse("l1").unwrap();
            assert!(run_query(&data, metric, 3, kind, point, Some(&[0])).is_err());
            let resp = engine.run(&request(kind, "l1", 3, point, Some(&[0])));
            assert!(resp.result.is_err(), "engine must also refuse {kind} l1 k=3");
        }
    }
}

/// The served ℓ2 answers against the exhaustive oracle: for every ℓ2
/// abductive / counterfactual query kind, on both demo datasets, across
/// k ∈ {1, 3, 5}, the engine's `f64` answers (served from its lazy, pruned
/// region view) must agree with the exact oracle, which walks every
/// canonical region cold. The check verdict is the oracle's, and its
/// counterexample equals x̄ on the fixed feature; the minimal reason is the
/// oracle's greedy one; the minimum reason has the brute-force size; and the
/// counterfactual distance is the oracle's infimum, with a witness inside
/// the served radius that flips the label under the exact classifier and
/// under the plain `f64` one.
#[test]
fn served_l2_answers_match_the_exhaustive_oracle() {
    let exact = |y: &[f64]| -> Vec<Rat> { y.iter().map(|&v| Rat::from_f64(v)).collect() };
    for text in [BOOL, CONT] {
        let data = cli::parse_dataset(text).unwrap();
        let ds = &data.continuous;
        let exact_ds = ds.map_field(|&v| Rat::from_f64(v));
        let engine = ExplanationEngine::new(
            EngineData::new(ds.clone(), data.boolean.clone()),
            EngineConfig::default(),
        );
        let dim = ds.dim();
        let points: Vec<Vec<f64>> = vec![
            vec![0.25; dim],
            vec![1.0; dim],
            (0..dim).map(|i| if i % 2 == 0 { -0.5 } else { 2.0 }).collect(),
        ];
        for k in [1, 3, 5] {
            let odd = OddK::of(k);
            let knn = knn_core::ContinuousKnn::new(ds, LpMetric::L2, odd);
            for x in &points {
                let oracle = exhaustive::Exhaustive::new(&exact_ds, odd, &exact(x));
                let flips = |y: &[f64]| knn.classify(y) == oracle.target();
                let serve = |kind: &str, features: Option<&[usize]>| {
                    engine
                        .run(&request(kind, "l2", k, x, features))
                        .result
                        .unwrap_or_else(|e| panic!("{kind} k={k} at {x:?} must be served: {e}"))
                };
                match serve("check-sr", Some(&[0])) {
                    Outcome::Check { sufficient, witness } => {
                        assert_eq!(sufficient, oracle.sufficient(&[0]), "check-sr k={k} at {x:?}");
                        if let Some(w) = witness {
                            assert!(oracle.is_counterexample(&exact(&w), &[0]), "{w:?}");
                            assert!(flips(&w), "check-sr witness {w:?} must flip in f64");
                        }
                    }
                    other => panic!("check-sr k={k} at {x:?}: {other:?}"),
                }
                match serve("minimal-sr", None) {
                    Outcome::Reason { features, optimal: true } => {
                        assert_eq!(features, oracle.minimal(), "minimal-sr k={k} at {x:?}")
                    }
                    other => panic!("minimal-sr k={k} at {x:?}: {other:?}"),
                }
                match serve("minimum-sr", None) {
                    Outcome::Reason { features, optimal: true } => {
                        assert_eq!(features.len(), oracle.minimum_size(), "{features:?}");
                        assert!(oracle.sufficient(&features), "minimum-sr {features:?}");
                    }
                    other => panic!("minimum-sr k={k} at {x:?}: {other:?}"),
                }
                match (serve("counterfactual", None), oracle.infimum()) {
                    (Outcome::NoCounterfactual, None) => {}
                    (Outcome::Counterfactual { point, dist, proven: true }, Some(inf)) => {
                        let want = inf.to_f64().sqrt();
                        assert!(
                            (dist - want).abs() <= 1e-9 * (1.0 + want),
                            "counterfactual k={k} at {x:?}: {dist} vs {want}"
                        );
                        // The served radius, plus the f64 comparison tolerance.
                        let radius = Rat::from_f64(dist * dist * 1.0001 + 1e-6 + 1e-9);
                        assert!(oracle.is_counterfactual(&exact(&point), &radius), "{point:?}");
                        assert!(flips(&point), "counterfactual {point:?} must flip in f64");
                    }
                    (served, oracle) => {
                        panic!("counterfactual k={k} at {x:?}: {served:?} vs {oracle:?}")
                    }
                }
            }
        }
    }
}

/// k = 5 at a size where materializing the decomposition cannot serve
/// (2 × C(14,3)·C(14,2) ≈ 66k polyhedra built before the first answer — the
/// `region_enumeration` bench quantifies the blowup): the lazy engine must
/// answer counterfactual and check-sr queries directly, with valid
/// witnesses. Witnesses are verified with the exact
/// `Rat` classifier: positive-target witnesses may sit exactly on a bisector
/// (the closed region's boundary), where f64 tie-breaking is unreliable but
/// the paper's optimistic rule is well-defined.
#[test]
fn lazy_regions_serve_k5_beyond_eager_reach() {
    // Two interleaved 3-D lattice clusters, 14 points per class.
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for i in 0..14i64 {
        let (a, b, c) = (i % 3, (i / 3) % 3, i / 9);
        pos.push(vec![a as f64, b as f64, c as f64]);
        neg.push(vec![a as f64 + 4.0, b as f64 + 0.5, c as f64 + 0.25]);
    }
    let ds = knn_space::ContinuousDataset::from_sets(pos, neg);
    let engine =
        ExplanationEngine::new(EngineData::from_continuous(ds.clone()), EngineConfig::default());
    let k = 5u32;
    let exact_ds = ds.map_field(|&v| knn_num::Rat::from_f64(v));
    let exact_knn =
        knn_core::ContinuousKnn::new(&exact_ds, knn_space::LpMetric::L2, knn_space::OddK::of(k));
    let classify = |p: &[f64]| {
        exact_knn.classify(&p.iter().map(|&v| knn_num::Rat::from_f64(v)).collect::<Vec<_>>())
    };

    for (i, x) in [vec![1.0, 1.0, 1.0], vec![4.5, 1.5, 1.0]].iter().enumerate() {
        let label = classify(x);
        let cf = engine.run(&Request {
            id: format!("cf{i}"),
            kind: QueryKind::Counterfactual,
            metric: Metric::L2,
            k,
            point: x.clone(),
            features: None,
        });
        match cf.result.expect("k = 5 counterfactual must be served") {
            Outcome::Counterfactual { point, dist, proven } => {
                assert!(proven, "ℓ2 region route is exact");
                assert!(dist > 0.0);
                assert_eq!(classify(&point), label.flip(), "witness must flip the label");
            }
            other => panic!("expected a counterfactual, got {other:?}"),
        }
        let check = engine.run(&Request {
            id: format!("chk{i}"),
            kind: QueryKind::CheckSr,
            metric: Metric::L2,
            k,
            point: x.clone(),
            features: Some(vec![1]),
        });
        match check.result.expect("k = 5 check-sr must be served") {
            Outcome::Check { sufficient, witness } => {
                // One pinned coordinate never suffices here: the clusters are
                // separated along coordinate 0.
                assert!(!sufficient, "{{1}} cannot pin the label at x = {x:?}");
                let w = witness.expect("failing check carries a witness");
                assert_eq!(w[1], x[1], "witness must agree on the fixed coordinate");
                assert_eq!(classify(&w), label.flip());
            }
            other => panic!("expected a check outcome, got {other:?}"),
        }
    }
}

/// ℓ2 counterfactuals at k = 3 on a 300 × 16 set are served by one gated
/// region walk: every witness flips the label under the exact `Rat`
/// classifier, and the lazy enumerator yields at most
/// `MAX_YIELDS_PER_QUERY` regions per query (read from the engine's route
/// work counters, so the gate is a count, not a clock). A walk that fetched
/// every region of every anchor set and tested each one did not finish one
/// such query in two minutes.
#[test]
fn l2_counterfactual_k3_serves_at_300_by_16() {
    use rand::{Rng, SeedableRng};
    const QUERIES: u64 = 4;
    const MAX_YIELDS_PER_QUERY: u64 = 1_000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(24);
    let ds = explainable_knn::datasets::random::random_real_dataset(&mut rng, 300, 16, 0.5);
    let engine =
        ExplanationEngine::new(EngineData::from_continuous(ds.clone()), EngineConfig::default());
    let exact_ds = ds.map_field(|&v| Rat::from_f64(v));
    let exact_knn = ContinuousKnn::new(&exact_ds, LpMetric::L2, OddK::THREE);
    let classify =
        |p: &[f64]| exact_knn.classify(&p.iter().map(|&v| Rat::from_f64(v)).collect::<Vec<_>>());
    for i in 0..QUERIES {
        let x: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let resp = engine.run(&Request {
            id: format!("cf{i}"),
            kind: QueryKind::Counterfactual,
            metric: Metric::L2,
            k: 3,
            point: x.clone(),
            features: None,
        });
        match resp.result.expect("k = 3 counterfactual must be served") {
            Outcome::Counterfactual { point, dist, proven } => {
                assert!(proven, "ℓ2 region route is exact");
                assert!(dist > 0.0);
                assert_eq!(classify(&point), classify(&x).flip(), "witness must flip the label");
            }
            other => panic!("expected a counterfactual, got {other:?}"),
        }
    }
    let work = engine.work_stats();
    let cf = work.iter().find(|w| w.route == "l2-qp-regions").expect("ℓ2 CF route ran");
    assert_eq!(cf.computes, QUERIES);
    assert!(
        cf.region_yields <= MAX_YIELDS_PER_QUERY * QUERIES,
        "{} region yields over {QUERIES} queries",
        cf.region_yields
    );
}

/// The full binary: mixed batch over stdin, parallel workers, proven output.
#[test]
fn xknn_batch_subcommand_end_to_end() {
    let dir = std::env::temp_dir().join("xknn-batch-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let data_path = dir.join("bool.txt");
    std::fs::write(&data_path, BOOL).unwrap();

    let requests = concat!(
        "{\"id\":\"cls\",\"cmd\":\"classify\",\"metric\":\"hamming\",\"k\":3,\"point\":[1,1,0,1,0]}\n",
        "{\"id\":\"sr\",\"cmd\":\"minimal-sr\",\"metric\":\"hamming\",\"point\":[1,1,0,1,0]}\n",
        "{\"id\":\"cf\",\"cmd\":\"counterfactual\",\"metric\":\"hamming\",\"point\":[1,1,0,1,0]}\n",
        "{\"id\":\"cf2\",\"cmd\":\"counterfactual\",\"metric\":\"l2\",\"point\":[1,1,0,1,0]}\n",
        "{\"id\":\"cf3\",\"cmd\":\"counterfactual\",\"metric\":\"l1\",\"point\":[1,1,0,1,0]}\n",
        "{\"id\":\"bad\",\"cmd\":\"minimal-sr\",\"metric\":\"l1\",\"k\":3,\"point\":[1,1,0,1,0]}\n",
    );

    let mut runs = Vec::new();
    for workers in ["1", "4"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_xknn"))
            .args(["batch", "--data", data_path.to_str().unwrap(), "--workers", workers])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("xknn batch runs");
        child.stdin.as_mut().unwrap().write_all(requests.as_bytes()).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        runs.push(String::from_utf8(out.stdout).unwrap());
    }
    assert_eq!(runs[0], runs[1], "worker count must not change a byte");

    let lines: Vec<&str> = runs[0].lines().collect();
    assert_eq!(lines.len(), 6);
    assert!(lines[0].contains(r#""label":"+""#), "{}", lines[0]);
    assert!(lines[1].contains(r#""reason":"#), "{}", lines[1]);
    for cf_line in &lines[2..5] {
        assert!(cf_line.contains(r#""proven":true"#), "{cf_line}");
    }
    assert!(lines[5].contains(r#""ok":false"#), "{}", lines[5]);
}
