//! The engine's central guarantee, pinned as a property test: for a fixed
//! dataset and config, `run_batch` output is **byte-identical** per request
//! across worker counts (1/2/8), request permutations, cache states, and
//! repeated runs — equal to the fresh sequential oracle. The concurrent
//! engines run with **telemetry enabled** — plus an aggressive SLO
//! objective, and resource/work accounting scraped mid-stream — while the
//! oracle runs with everything disabled, pinning the observability plane's
//! out-of-band contract: tracing, phase timing, the slow-query ring,
//! byte/work gauges, and burn-rate evaluation never change a byte.

use knn_engine::{EngineConfig, EngineData, ExplanationEngine, Request};
use knn_space::ContinuousDataset;
use knn_telemetry::{QuerySpans, SloObjective, Telemetry};
use proptest::prelude::*;
use std::collections::HashMap;

/// A small 0/1 dataset (both views exist, so every metric is servable).
fn dataset(pos_bits: &[u8], neg_bits: &[u8], dim: usize) -> ContinuousDataset<f64> {
    let decode = |bits: &[u8]| -> Vec<Vec<f64>> {
        bits.iter().map(|&b| (0..dim).map(|j| f64::from((b >> j) & 1)).collect()).collect()
    };
    ContinuousDataset::from_sets(decode(pos_bits), decode(neg_bits))
}

#[derive(Clone, Debug)]
struct BatchSpec {
    dim: usize,
    pos: Vec<u8>,
    neg: Vec<u8>,
    requests: Vec<String>,
    /// Permutation seeds: how the shuffled copies reorder the batch.
    shuffle: Vec<usize>,
}

fn batch_strategy() -> impl Strategy<Value = BatchSpec> {
    (2..=4usize).prop_flat_map(|dim| {
        let point_bits = 0..(1u8 << dim);
        (
            prop::collection::vec(point_bits.clone(), 2..=4),
            prop::collection::vec(point_bits.clone(), 2..=4),
            prop::collection::vec(
                (
                    prop::sample::select(vec![
                        "classify",
                        "minimal-sr",
                        "minimum-sr",
                        "check-sr",
                        "counterfactual",
                    ]),
                    prop::sample::select(vec!["l2", "l1", "hamming", "lp:3"]),
                    prop::sample::select(vec![1u32, 3]),
                    point_bits,
                    any::<bool>(),
                ),
                1..=10,
            ),
            prop::collection::vec(0..1000usize, 8),
        )
            .prop_map(move |(pos, neg, reqs, shuffle)| {
                let requests = reqs
                    .iter()
                    .enumerate()
                    .map(|(i, (cmd, metric, k, bits, dup))| {
                        // Duplicate some payloads (ignoring `dup` ids) so the
                        // cache sees same-batch hits.
                        let bits = if *dup { bits & 1 } else { *bits };
                        let point: Vec<String> = (0..dim)
                            .map(|j| f64::from((bits >> j) & 1).to_string())
                            .collect();
                        let features = if *cmd == "check-sr" {
                            format!(",\"features\":[{}]", (bits as usize) % dim)
                        } else {
                            String::new()
                        };
                        format!(
                            r#"{{"id":"q{i}","cmd":"{cmd}","metric":"{metric}","k":{k},"point":[{}]{features}}}"#,
                            point.join(",")
                        )
                    })
                    .collect();
                BatchSpec { dim, pos, neg, requests, shuffle }
            })
    })
}

fn parse_batch(lines: &[String]) -> Vec<Request> {
    lines
        .iter()
        .enumerate()
        .map(|(i, l)| Request::from_json_line(l, &i.to_string()).unwrap())
        .collect()
}

/// `id → serialized response` for comparison across permutations.
fn by_id(responses: &[knn_engine::Response]) -> HashMap<String, String> {
    responses.iter().map(|r| (r.id.clone(), r.to_json_line())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_batch_is_worker_count_and_order_invariant(spec in batch_strategy()) {
        let requests = parse_batch(&spec.requests);

        // The oracle: a fresh single-worker engine, cold cache, telemetry
        // disabled (the construction default).
        let oracle_engine = ExplanationEngine::new(
            EngineData::from_continuous(dataset(&spec.pos, &spec.neg, spec.dim)),
            EngineConfig { workers: 1, ..EngineConfig::default() },
        );
        let oracle = by_id(&oracle_engine.run_batch(&requests));

        for workers in [1usize, 2, 8] {
            // Telemetry ON for every concurrent engine: recording must be
            // invisible in the response bytes.
            let telemetry = Telemetry::new();
            telemetry.set_enabled(true);
            let engine = ExplanationEngine::with_telemetry(
                EngineData::from_continuous(dataset(&spec.pos, &spec.neg, spec.dim)),
                EngineConfig { workers, ..EngineConfig::default() },
                telemetry,
                "prop",
            );
            // An SLO objective that every query violates (threshold 0µs):
            // burn-rate evaluation and forced violation spans are accounting
            // work and must stay out-of-band.
            engine
                .telemetry()
                .slo()
                .set("prop", SloObjective { quantile: 0.5, threshold_us: 0, windows: 2 })
                .unwrap();

            // Straight order, twice: the second pass runs against a warm
            // cache and must not change a byte. Resource/work accounting is
            // scraped between and during passes, like a live `top` poller.
            for pass in 0..2 {
                let got = engine.run_batch(&requests);
                let stats = engine.stats();
                prop_assert!(stats.resources.dataset_bytes > 0);
                prop_assert!(!engine.work_stats().is_empty());
                engine.telemetry().observe_slo("prop");
                prop_assert_eq!(got.len(), requests.len());
                for (req, resp) in requests.iter().zip(&got) {
                    prop_assert_eq!(&resp.id, &req.id);
                    prop_assert_eq!(
                        &resp.to_json_line(),
                        &oracle[&req.id],
                        "workers={} pass={} id={}", workers, pass, req.id
                    );
                }
            }

            // A shuffled copy of the batch: same responses, permuted.
            let mut shuffled = requests.clone();
            for (i, s) in spec.shuffle.iter().enumerate() {
                let j = i % shuffled.len();
                let l = s % shuffled.len();
                shuffled.swap(j, l);
            }
            let got = engine.run_batch(&shuffled);
            for (req, resp) in shuffled.iter().zip(&got) {
                prop_assert_eq!(&resp.id, &req.id, "shuffled batch stays aligned");
                prop_assert_eq!(
                    &resp.to_json_line(),
                    &oracle[&req.id],
                    "shuffled, workers={} id={}", workers, req.id
                );
            }

            // A traced pass: every query runs through the one traced entry
            // point and the span emitter records its family under a trace
            // id (forced path, not the sampler) — without changing a byte.
            let recorder = engine.telemetry().recorder();
            for req in &requests {
                let (resp, qt) = engine.run_with_trace(req);
                let line = resp.to_json_line();
                let trace = format!("t-{}", req.id);
                recorder.record_query(&QuerySpans {
                    trace: &trace,
                    tenant: "prop",
                    id: &resp.id,
                    route: &resp.route,
                    qt: &qt,
                    err: resp.result.is_err(),
                    slow: false,
                    total_us: qt.plan_us + qt.solve_us,
                    admission_us: None,
                    conn: 0,
                    seq: 0,
                });
                prop_assert_eq!(
                    &line,
                    &oracle[&req.id],
                    "traced, workers={} id={}", workers, req.id
                );
                prop_assert!(
                    !recorder.spans_for(&trace).is_empty(),
                    "forced trace {} captured no spans", trace
                );
            }
        }
    }
}

/// The same invariant for the JSON-lines entry point, including malformed
/// lines (which must produce error lines in place, deterministically).
#[test]
fn jsonl_batches_are_deterministic_across_workers() {
    let ds = dataset(&[0b011, 0b110], &[0b000, 0b101], 3);
    let input = concat!(
        "{\"id\":\"a\",\"cmd\":\"classify\",\"metric\":\"hamming\",\"point\":[1,1,0]}\n",
        "garbage line\n",
        "{\"id\":\"b\",\"cmd\":\"counterfactual\",\"metric\":\"l2\",\"point\":[0.2,0.8,0.5]}\n",
        "{\"id\":\"c\",\"cmd\":\"minimum-sr\",\"metric\":\"hamming\",\"k\":3,\"point\":[1,0,1]}\n",
        "{\"id\":\"b2\",\"cmd\":\"counterfactual\",\"metric\":\"l2\",\"point\":[0.2,0.8,0.5]}\n",
    );
    let mut outputs = Vec::new();
    for workers in [1usize, 2, 8] {
        let engine = ExplanationEngine::new(
            EngineData::from_continuous(ds.clone()),
            EngineConfig { workers, ..EngineConfig::default() },
        );
        let (out, stats) = engine.run_jsonl(input);
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.errors, 1);
        outputs.push(out);
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 workers");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 workers");
    // b and b2 carry identical payloads: identical bodies modulo the id.
    let lines: Vec<&str> = outputs[0].lines().collect();
    assert_eq!(
        lines[2].replace("\"id\":\"b\"", ""),
        lines[4].replace("\"id\":\"b2\"", ""),
        "duplicate payloads produce identical bodies (cache-hit transparency)"
    );
}
