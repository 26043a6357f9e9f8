//! Parsing and dispatch for the `xknn` command-line tool.
//!
//! The tool reads a labeled dataset from a plain-text file (one point per
//! line, `+`/`-` label first, then whitespace- or comma-separated feature
//! values; `#` starts a comment) and answers the paper's explanation queries
//! from the shell. Everything testable lives here; `src/bin/xknn.rs` is a
//! thin wrapper.

use crate::prelude::*;

/// Which metric space family the query runs in (§2 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricChoice {
    /// Continuous, ℓ2 — every explanation problem except Minimum-SR is
    /// polynomial (Table 1, first row).
    L2,
    /// Continuous, ℓ1 — Check-SR is polynomial only at k = 1 (second row).
    L1,
    /// Continuous, general ℓp (`p ⩾ 3`) — complexity open (§10); served by
    /// the heuristic engine.
    Lp(u32),
    /// Discrete `{0,1}ⁿ` with the Hamming distance (third row).
    Hamming,
}

impl From<MetricChoice> for knn_engine::Metric {
    fn from(m: MetricChoice) -> knn_engine::Metric {
        match m {
            MetricChoice::L2 => knn_engine::Metric::L2,
            MetricChoice::L1 => knn_engine::Metric::L1,
            MetricChoice::Lp(p) => knn_engine::Metric::Lp(p),
            MetricChoice::Hamming => knn_engine::Metric::Hamming,
        }
    }
}

impl MetricChoice {
    /// Parses `l2`, `l1`, `hamming`, or `lp:<p>`.
    pub fn parse(s: &str) -> Result<MetricChoice, String> {
        match s {
            "l2" => Ok(MetricChoice::L2),
            "l1" => Ok(MetricChoice::L1),
            "hamming" | "h" => Ok(MetricChoice::Hamming),
            other => {
                if let Some(p) = other.strip_prefix("lp:") {
                    let p: u32 = p.parse().map_err(|_| format!("bad ℓp exponent in `{other}`"))?;
                    if p == 0 {
                        return Err("ℓp exponent must be positive".into());
                    }
                    Ok(match p {
                        1 => MetricChoice::L1,
                        2 => MetricChoice::L2,
                        _ => MetricChoice::Lp(p),
                    })
                } else {
                    Err(format!("unknown metric `{other}` (try l2, l1, lp:<p>, hamming)"))
                }
            }
        }
    }
}

/// A dataset parsed from text — continuous always; boolean view when every
/// value is 0/1. This is the engine's [`knn_engine::EngineData`]: the CLI,
/// the batch engine, and the network server all share one dataset type.
pub type ParsedData = knn_engine::EngineData;

pub use knn_engine::textfmt::{parse_dataset, parse_point};

/// Parses a comma-separated feature-index list (`0,3,7`).
pub fn parse_indices(s: &str, dim: usize) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for t in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let i: usize = t.parse().map_err(|_| format!("bad index `{t}`"))?;
        if i >= dim {
            return Err(format!("index {i} out of range (dimension {dim})"));
        }
        out.push(i);
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// One executed query's result, rendered for the terminal.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// `classify`.
    Label(Label),
    /// `minimal-sr` / `minimum-sr`: feature indices.
    Reason(Vec<usize>),
    /// `check-sr`: verdict plus a counterexample when not sufficient.
    Check {
        /// Whether the given feature set is a sufficient reason.
        sufficient: bool,
        /// A counterexample completion when it is not.
        witness: Option<Vec<f64>>,
    },
    /// `counterfactual`: witness, distance, and whether it was proven optimal.
    Counterfactual {
        /// The differently-classified point.
        point: Vec<f64>,
        /// Its distance from the query under the chosen metric.
        dist: f64,
        /// `true` for exact engines; `false` for the ℓp heuristic.
        proven: bool,
    },
    /// No counterfactual exists (a class is empty).
    NoCounterfactual,
}

/// Runs one query against the parsed data, through the batch engine's
/// planner and executor (`knn_engine::exec`) — the CLI and the engine used to
/// carry two copies of the Table-1 dispatch; this is now the only one.
/// `k` must be odd. Returns a human-readable error for unsupported
/// (metric, k, command) combinations — the CLI surfaces Table 1's boundaries
/// rather than silently approximating.
pub fn run_query(
    data: &ParsedData,
    metric: MetricChoice,
    k: u32,
    command: &str,
    x: &[f64],
    features: Option<&[usize]>,
) -> Result<QueryOutput, String> {
    let kind = knn_engine::QueryKind::parse(command).map_err(|_| {
        format!(
            "unknown command `{command}` (try classify, minimal-sr, minimum-sr, check-sr, counterfactual)"
        )
    })?;
    if kind == knn_engine::QueryKind::CheckSr && features.is_none() {
        return Err("check-sr needs --features".into());
    }
    let features = features.map(|f| {
        let mut idx = f.to_vec();
        idx.sort_unstable();
        idx.dedup();
        idx
    });
    let req = knn_engine::Request {
        id: "cli".into(),
        kind,
        metric: metric.into(),
        k,
        point: x.to_vec(),
        features,
    };
    // A throwaway artifact store: single queries build only the artifacts
    // they touch (the store is lazy), which costs no more than the direct
    // calls the CLI used to make.
    let resp = knn_engine::exec::execute(data, &knn_engine::ArtifactStore::new(), &req, None);
    let outcome = resp.result?;
    Ok(match outcome {
        knn_engine::Outcome::Label(l) => QueryOutput::Label(l),
        knn_engine::Outcome::Reason { features, .. } => QueryOutput::Reason(features),
        knn_engine::Outcome::Check { sufficient, witness } => {
            QueryOutput::Check { sufficient, witness }
        }
        knn_engine::Outcome::Counterfactual { point, dist, proven } => {
            QueryOutput::Counterfactual { point, dist, proven }
        }
        knn_engine::Outcome::NoCounterfactual => QueryOutput::NoCounterfactual,
    })
}

/// Options for the `batch` subcommand.
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Worker threads (`0` = all cores).
    pub workers: usize,
    /// Explanation-cache capacity (`0` disables).
    pub cache_capacity: usize,
    /// Deterministic effort budget for the hard routes (SAT conflicts /
    /// greedy hitting sets); `None` = exact.
    pub budget: Option<u64>,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        let d = knn_engine::EngineConfig::default();
        BatchOptions { workers: d.workers, cache_capacity: d.cache_capacity, budget: None }
    }
}

/// Builds a batch engine over parsed data.
pub fn batch_engine(data: &ParsedData, opts: BatchOptions) -> knn_engine::ExplanationEngine {
    knn_engine::ExplanationEngine::new(
        data.clone(),
        knn_engine::EngineConfig {
            workers: opts.workers,
            cache_capacity: opts.cache_capacity,
            effort_budget: opts.budget,
        },
    )
}

/// Runs a JSON-lines request stream against parsed data: the `xknn batch`
/// entry point. Returns the JSON-lines responses plus a human-readable
/// one-line summary (for stderr).
pub fn run_batch(data: &ParsedData, input: &str, opts: BatchOptions) -> (String, String) {
    let engine = batch_engine(data, opts);
    let (out, stats) = engine.run_jsonl(input);
    let summary = format!(
        "batch: {} requests, {} errors, {} cache hits, {} workers, {:.3}s",
        stats.requests,
        stats.errors,
        stats.cache_hits,
        stats.workers,
        stats.wall.as_secs_f64()
    );
    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOOL_DATA: &str = "\
# a comment line
+ 1 1 1
+ 1,1,0   # trailing comment
- 0 0 0
- 0 0 1
";

    const CONT_DATA: &str = "\
+ 2.0 2.0
+ 3.0 1.5
- -1.0 -1.0
- 0.0 -2.0
";

    #[test]
    fn parses_boolean_dataset_with_both_views() {
        let d = parse_dataset(BOOL_DATA).unwrap();
        assert_eq!(d.continuous.len(), 4);
        assert_eq!(d.continuous.dim(), 3);
        let b = d.boolean.expect("all-binary file gets a boolean view");
        assert_eq!(b.count_of(Label::Positive), 2);
    }

    #[test]
    fn continuous_dataset_has_no_boolean_view() {
        let d = parse_dataset(CONT_DATA).unwrap();
        assert!(d.boolean.is_none());
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(parse_dataset("").is_err());
        assert!(parse_dataset("x 1 2").is_err(), "missing label");
        assert!(parse_dataset("+ 1 2\n- 1 2 3").is_err(), "dimension mismatch");
        assert!(parse_dataset("+ 1 two").is_err(), "non-numeric");
        assert!(parse_dataset("+\n").is_err(), "empty point");
        assert!(parse_dataset("+ 1e309 0").is_err(), "overflowing literal → inf");
        assert!(parse_dataset("+ NaN 0").is_err(), "NaN rejected");
    }

    #[test]
    fn metric_parsing() {
        assert_eq!(MetricChoice::parse("l2"), Ok(MetricChoice::L2));
        assert_eq!(MetricChoice::parse("lp:2"), Ok(MetricChoice::L2));
        assert_eq!(MetricChoice::parse("lp:1"), Ok(MetricChoice::L1));
        assert_eq!(MetricChoice::parse("lp:3"), Ok(MetricChoice::Lp(3)));
        assert_eq!(MetricChoice::parse("hamming"), Ok(MetricChoice::Hamming));
        assert!(MetricChoice::parse("lp:0").is_err());
        assert!(MetricChoice::parse("cosine").is_err());
    }

    #[test]
    fn index_parsing_bounds_checked() {
        assert_eq!(parse_indices("2, 0, 2", 3).unwrap(), vec![0, 2]);
        assert!(parse_indices("3", 3).is_err());
        assert!(parse_indices("x", 3).is_err());
    }

    #[test]
    fn classify_and_explain_roundtrip_hamming() {
        let d = parse_dataset(BOOL_DATA).unwrap();
        let x = [0.0, 1.0, 0.0];
        let out = run_query(&d, MetricChoice::Hamming, 1, "classify", &x, None).unwrap();
        assert!(matches!(out, QueryOutput::Label(_)));
        let QueryOutput::Reason(sr) =
            run_query(&d, MetricChoice::Hamming, 1, "minimal-sr", &x, None).unwrap()
        else {
            panic!()
        };
        let QueryOutput::Check { sufficient, .. } =
            run_query(&d, MetricChoice::Hamming, 1, "check-sr", &x, Some(&sr)).unwrap()
        else {
            panic!()
        };
        assert!(sufficient, "a minimal SR must check as sufficient");
        let QueryOutput::Counterfactual { dist, proven, .. } =
            run_query(&d, MetricChoice::Hamming, 1, "counterfactual", &x, None).unwrap()
        else {
            panic!()
        };
        assert!(proven);
        assert!(dist >= 1.0);
    }

    #[test]
    fn classify_and_explain_roundtrip_l2() {
        let d = parse_dataset(CONT_DATA).unwrap();
        let x = [1.0, 1.0];
        let QueryOutput::Counterfactual { point, dist, proven } =
            run_query(&d, MetricChoice::L2, 1, "counterfactual", &x, None).unwrap()
        else {
            panic!()
        };
        assert!(proven);
        assert!(dist > 0.0);
        let knn = ContinuousKnn::new(&d.continuous, LpMetric::L2, OddK::ONE);
        assert_ne!(knn.classify(&point), knn.classify(&x));
    }

    #[test]
    fn lp3_counterfactual_is_heuristic() {
        let d = parse_dataset(CONT_DATA).unwrap();
        let out =
            run_query(&d, MetricChoice::Lp(3), 1, "counterfactual", &[1.0, 1.0], None).unwrap();
        match out {
            QueryOutput::Counterfactual { proven, .. } => assert!(!proven),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn table1_boundaries_are_surfaced() {
        let d = parse_dataset(CONT_DATA).unwrap();
        // ℓ1 with k = 3: Check-SR is coNP-complete — refused, not approximated.
        let err = run_query(&d, MetricChoice::L1, 3, "minimal-sr", &[1.0, 1.0], None).unwrap_err();
        assert!(err.contains("k = 1"), "{err}");
        // even k rejected.
        assert!(run_query(&d, MetricChoice::L2, 2, "classify", &[1.0, 1.0], None).is_err());
        // dimension mismatch rejected.
        assert!(run_query(&d, MetricChoice::L2, 1, "classify", &[1.0], None).is_err());
    }
}
