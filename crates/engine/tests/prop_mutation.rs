//! The mutation layer's governing contract, pinned as a property test:
//! after **any** interleaving of inserts, removals, and query batches, every
//! batch's responses — at 1, 2, and 8 workers — are byte-identical to a
//! **fresh engine loaded with the dataset as it stood at that batch's
//! epoch** (the fresh-load sequential oracle). This covers at once:
//!
//! * point-order preservation under mutation (the oracle parses the mutated
//!   engine's own serialized text);
//! * selective artifact invalidation (a wrongly retained index would answer
//!   stale bytes);
//! * epoch-keyed caching and single-flight (same keys recur across epochs);
//! * guard revalidation soundness (revalidated classify hits must equal
//!   what the oracle computes from scratch — an unsound guard is exactly a
//!   byte difference here).

use knn_engine::{textfmt, EngineConfig, EngineData, ExplanationEngine, Mutation, Request};
use knn_space::{ContinuousDataset, Label};
use proptest::prelude::*;

/// A small 0/1 dataset (both views exist, so every metric is servable).
/// Mutations insert 0/1 points, so the boolean view survives every epoch.
fn dataset(pos_bits: &[u8], neg_bits: &[u8], dim: usize) -> ContinuousDataset<f64> {
    let decode = |bits: &[u8]| -> Vec<Vec<f64>> {
        bits.iter().map(|&b| (0..dim).map(|j| f64::from((b >> j) & 1)).collect()).collect()
    };
    ContinuousDataset::from_sets(decode(pos_bits), decode(neg_bits))
}

#[derive(Clone, Debug)]
enum OpSpec {
    Insert { bits: u8, positive: bool },
    Remove { seed: usize },
    Batch { requests: Vec<String> },
}

#[derive(Clone, Debug)]
struct StreamSpec {
    dim: usize,
    pos: Vec<u8>,
    neg: Vec<u8>,
    ops: Vec<OpSpec>,
}

fn op_strategy(dim: usize) -> impl Strategy<Value = OpSpec> {
    let point_bits = 0..(1u8 << dim);
    let request = (
        prop::sample::select(vec!["classify", "minimal-sr", "check-sr", "counterfactual"]),
        prop::sample::select(vec!["l2", "l1", "hamming"]),
        prop::sample::select(vec![1u32, 3]),
        point_bits.clone(),
    )
        .prop_map(move |(cmd, metric, k, bits)| {
            let point: Vec<String> =
                (0..dim).map(|j| f64::from((bits >> j) & 1).to_string()).collect();
            let features = if cmd == "check-sr" {
                format!(",\"features\":[{}]", (bits as usize) % dim)
            } else {
                String::new()
            };
            format!(
                r#"{{"cmd":"{cmd}","metric":"{metric}","k":{k},"point":[{}]{features}}}"#,
                point.join(",")
            )
        });
    // No `prop_oneof` in the offline proptest stand-in: draw every variant's
    // raw material plus a weighted selector and map down.
    (0..6u8, point_bits, any::<bool>(), 0..1000usize, prop::collection::vec(request, 1..=6))
        .prop_map(|(kind, bits, positive, seed, requests)| match kind {
            0 | 1 => OpSpec::Insert { bits, positive },
            2 => OpSpec::Remove { seed },
            _ => OpSpec::Batch { requests },
        })
}

fn stream_strategy() -> impl Strategy<Value = StreamSpec> {
    (2..=3usize).prop_flat_map(|dim| {
        let point_bits = 0..(1u8 << dim);
        (
            prop::collection::vec(point_bits.clone(), 2..=3),
            prop::collection::vec(point_bits, 2..=3),
            prop::collection::vec(op_strategy(dim), 2..=7),
        )
            .prop_map(move |(pos, neg, ops)| StreamSpec { dim, pos, neg, ops })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mutated_batches_equal_the_fresh_load_oracle(spec in stream_strategy()) {
        for workers in [1usize, 2, 8] {
            let engine = ExplanationEngine::new(
                EngineData::from_continuous(dataset(&spec.pos, &spec.neg, spec.dim)),
                EngineConfig { workers, ..EngineConfig::default() },
            );
            for (step, op) in spec.ops.iter().enumerate() {
                match op {
                    OpSpec::Insert { bits, positive } => {
                        let point: Vec<f64> =
                            (0..spec.dim).map(|j| f64::from((bits >> j) & 1)).collect();
                        let label = if *positive { Label::Positive } else { Label::Negative };
                        engine.apply(Mutation::Insert { point, label }).unwrap();
                    }
                    OpSpec::Remove { seed } => {
                        let len = engine.data().continuous.len();
                        // The last point may not be removed (the engine
                        // rejects emptying the dataset); skipping keeps the
                        // op stream identical across worker counts.
                        if len > 1 {
                            engine.apply(Mutation::Remove { id: seed % len }).unwrap();
                        }
                    }
                    OpSpec::Batch { requests } => {
                        let reqs: Vec<Request> = requests
                            .iter()
                            .enumerate()
                            .map(|(i, l)| Request::from_json_line(l, &i.to_string()).unwrap())
                            .collect();
                        let got = engine.run_batch(&reqs);
                        // The oracle: a fresh, cold, sequential engine over
                        // the dataset as it stands at this epoch.
                        let oracle_engine = ExplanationEngine::new(
                            textfmt::parse_dataset(&engine.dataset_text()).unwrap(),
                            EngineConfig { workers: 1, ..EngineConfig::default() },
                        );
                        for (req, resp) in reqs.iter().zip(&got) {
                            prop_assert_eq!(
                                resp.to_json_line(),
                                oracle_engine.run(req).to_json_line(),
                                "workers={} step={} epoch={} req={}",
                                workers, step, engine.epoch(), req.to_json_line()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A directed regression: the same classify keys queried at every epoch of
/// an insert/remove ping-pong — the maximal stress on guard revalidation
/// (entries repeatedly cross epochs, sometimes surviving, sometimes not) —
/// stay oracle-identical throughout, and at least one hit actually crosses
/// an epoch (the optimization is exercised, not just vacuously sound).
#[test]
fn classify_keys_requeried_across_epoch_pingpong_stay_oracle_identical() {
    let ds = dataset(&[0b011, 0b110], &[0b000, 0b101], 3);
    let engine = ExplanationEngine::new(EngineData::from_continuous(ds), EngineConfig::default());
    let queries: Vec<Request> = (0..8u8)
        .map(|bits| {
            let point: Vec<String> = (0..3).map(|j| ((bits >> j) & 1).to_string()).collect();
            Request::from_json_line(
                &format!(
                    r#"{{"id":"q{bits}","cmd":"classify","metric":"l2","k":1,"point":[{}]}}"#,
                    point.join(",")
                ),
                "0",
            )
            .unwrap()
        })
        .collect();

    let mutations = [
        Mutation::Insert { point: vec![1.0, 1.0, 1.0], label: Label::Positive },
        Mutation::Remove { id: 4 },
        Mutation::Insert { point: vec![0.0, 0.0, 1.0], label: Label::Negative },
        Mutation::Insert { point: vec![1.0, 0.0, 0.0], label: Label::Positive },
        Mutation::Remove { id: 0 },
    ];
    engine.run_batch(&queries); // warm every key at epoch 0
    for m in mutations {
        engine.apply(m).unwrap();
        let oracle = ExplanationEngine::new(
            textfmt::parse_dataset(&engine.dataset_text()).unwrap(),
            EngineConfig::default(),
        );
        for q in &queries {
            assert_eq!(
                engine.run(q).to_json_line(),
                oracle.run(q).to_json_line(),
                "epoch {} id {}",
                engine.epoch(),
                q.id
            );
        }
    }
    let s = engine.stats();
    assert!(s.revalidated > 0, "no classify entry ever crossed an epoch: {s:?}");
}
