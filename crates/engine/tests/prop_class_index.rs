//! Patched class indexes equal fresh builds. Over random insert/remove
//! streams, [`ArtifactStore::carry_over`] patches each class scan (one row
//! appended or removed) instead of rebuilding it. After every step, every
//! class index of the new epoch must equal the index a fresh store builds
//! from that epoch's data, and looking it up must build nothing. The streams
//! include non-0/1 inserts, which drop the Hamming indexes, and the removals
//! that make the data binary again, after which the Hamming indexes are
//! built fresh.
//!
//! Over the same streams, ℓ1/ℓ2/ℓ3 classify on a binary tenant is answered
//! from the Hamming scans; its label and guard statistics must equal, bit
//! for bit, what the per-class ℓp scans give.

use knn_delta::{AppliedMutation, ClassifyGuard, GuardMetric};
use knn_engine::exec::execute_phased;
use knn_engine::{ArtifactStore, EngineData, Metric, Outcome, QueryKind, Request};
use knn_space::{ContinuousDataset, Label, OddK};
use knn_telemetry::QueryTrace;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert { bits: Vec<bool>, positive: bool, non_binary: bool },
    Remove { seed: usize },
}

fn op_strategy(dim: usize) -> impl Strategy<Value = Op> {
    (0..10u8, prop::collection::vec(any::<bool>(), dim), any::<bool>(), 0..10_000usize).prop_map(
        |(kind, bits, positive, seed)| match kind {
            0..=4 => Op::Insert { bits, positive, non_binary: false },
            5 => Op::Insert { bits, positive, non_binary: true },
            _ => Op::Remove { seed },
        },
    )
}

/// Dimensions 3 and 70: one packed word per Hamming row, or two with the
/// second partly padding.
fn stream_strategy() -> impl Strategy<Value = (usize, Vec<(Vec<bool>, bool)>, Vec<Op>)> {
    prop::sample::select(vec![3usize, 70]).prop_flat_map(|dim| {
        (
            Just(dim),
            prop::collection::vec(
                (prop::collection::vec(any::<bool>(), dim), any::<bool>()),
                4..=12,
            ),
            prop::collection::vec(op_strategy(dim), 1..=24),
        )
    })
}

fn label(positive: bool) -> Label {
    if positive {
        Label::Positive
    } else {
        Label::Negative
    }
}

fn bits_to_point(bits: &[bool]) -> Vec<f64> {
    bits.iter().map(|&b| f64::from(u8::from(b))).collect()
}

fn seed_data(dim: usize, seed: &[(Vec<bool>, bool)]) -> EngineData {
    let mut ds = ContinuousDataset::new(dim);
    for (bits, positive) in seed {
        ds.push(bits_to_point(bits), label(*positive));
    }
    EngineData::from_continuous(ds)
}

/// The mutation `op` makes on `data`, or `None` for a removal that would
/// empty the dataset.
fn applied(data: &EngineData, op: Op) -> Option<AppliedMutation> {
    Some(match op {
        Op::Insert { bits, positive, non_binary } => {
            let mut point = bits_to_point(&bits);
            if non_binary {
                point[0] = 0.5;
            }
            AppliedMutation::Insert { point, label: label(positive) }
        }
        Op::Remove { seed } => {
            if data.continuous.len() <= 1 {
                return None;
            }
            // Half the removals target a non-0/1 point when there is one, so
            // streams regularly turn binary again.
            let non_binary = (0..data.continuous.len())
                .find(|&i| data.continuous.point(i).iter().any(|&v| v != 0.0 && v != 1.0));
            let id = match non_binary {
                Some(i) if seed % 2 == 0 => i,
                _ => seed % data.continuous.len(),
            };
            let point = data.continuous.point(id).to_vec();
            AppliedMutation::Remove { id, point, label: data.continuous.label(id) }
        }
    })
}

/// The next epoch's data.
fn next_data(data: &EngineData, applied: &AppliedMutation) -> EngineData {
    match applied {
        AppliedMutation::Insert { point, label } => data.with_insert(point, *label),
        AppliedMutation::Remove { id, .. } => data.with_remove(*id),
    }
}

/// ℓp classify answered from the per-class ℓp scans: the optimistic rule
/// over each class's `maj`-th smallest `dist^p`, with those statistics as
/// the guard.
fn lp_scan_answer(data: &EngineData, x: &[f64], p: u32, k: OddK) -> (Label, ClassifyGuard) {
    let store = ArtifactStore::new();
    let stat = |l| store.kd_class_index(data, p, l).kth_smallest(x, k.majority());
    let (pos, neg) = (stat(Label::Positive), stat(Label::Negative));
    let label = match (pos, neg) {
        (Some(rp), Some(rn)) if rp <= rn => Label::Positive,
        (Some(_), None) => Label::Positive,
        _ => Label::Negative,
    };
    let guard =
        ClassifyGuard { point: x.to_vec(), metric: GuardMetric::LpPow(p), k: k.get(), pos, neg };
    (label, guard)
}

/// Looks up every class index the data supports: ℓ1 and ℓ2 scans always,
/// Hamming scans when the boolean view exists.
fn touch_all(store: &ArtifactStore, data: &EngineData) {
    for l in [Label::Positive, Label::Negative] {
        store.kd_class_index(data, 1, l);
        store.kd_class_index(data, 2, l);
        if data.boolean.is_some() {
            store.hamming_class_index(data, l);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn patched_class_indexes_equal_fresh_builds((dim, seed, ops) in stream_strategy()) {
        let mut data = seed_data(dim, &seed);
        let mut store = ArtifactStore::new();
        touch_all(&store, &data);

        for op in ops {
            let Some(applied) = applied(&data, op) else { continue };
            let next = next_data(&data, &applied);
            // The exact-size epoch copies equal a fresh derivation.
            prop_assert_eq!(
                &next.boolean,
                &EngineData::from_continuous(next.continuous.clone()).boolean
            );
            let carried = store.carry_over(&data, &applied);
            let built = carried.metrics().snapshot().built;
            for l in [Label::Positive, Label::Negative] {
                for p in [1, 2] {
                    prop_assert_eq!(
                        &*carried.kd_class_index(&next, p, l),
                        &*ArtifactStore::new().kd_class_index(&next, p, l)
                    );
                }
                if next.boolean.is_some() {
                    prop_assert_eq!(
                        &*carried.hamming_class_index(&next, l),
                        &*ArtifactStore::new().hamming_class_index(&next, l)
                    );
                }
            }
            // Only a boolean view that (re)appeared this epoch builds: its
            // Hamming scans had nothing to be patched from.
            let fresh_hamming = next.boolean.is_some() && data.boolean.is_none();
            prop_assert_eq!(
                carried.metrics().snapshot().built - built,
                if fresh_hamming { 2 } else { 0 }
            );
            data = next;
            store = carried;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lp_classify_on_binary_tenants_matches_the_lp_scans(
        (dim, seed, ops) in stream_strategy(),
        queries in prop::collection::vec((prop::collection::vec(any::<bool>(), 70), any::<bool>()), 3),
    ) {
        let mut data = seed_data(dim, &seed);
        let mut store = ArtifactStore::new();
        let mut steps = vec![None];
        steps.extend(ops.into_iter().map(Some));
        for op in steps {
            if let Some(op) = op {
                let Some(applied) = applied(&data, op) else { continue };
                let next = next_data(&data, &applied);
                store = store.carry_over(&data, &applied);
                data = next;
            }
            for (bits, non_binary) in &queries {
                let mut x = bits_to_point(&bits[..dim]);
                if *non_binary {
                    x[dim - 1] = 0.25;
                }
                for (metric, p) in [(Metric::L1, 1), (Metric::L2, 2), (Metric::Lp(3), 3)] {
                    for k in [1u32, 3, 5] {
                        if data.continuous.len() < k as usize {
                            continue;
                        }
                        let req = Request {
                            id: "q".into(),
                            kind: QueryKind::Classify,
                            metric,
                            k,
                            point: x.clone(),
                            features: None,
                        };
                        let mut trace = QueryTrace::default();
                        let (resp, guard) =
                            execute_phased(&data, &store, &req, None, false, &mut trace);
                        let (label, want) = lp_scan_answer(&data, &x, p, OddK::new(k).unwrap());
                        prop_assert_eq!(&resp.route, "kdtree-class-index");
                        prop_assert_eq!(resp.result, Ok(Outcome::Label(label)));
                        let guard = guard.expect("classify answers carry a guard");
                        let bits = |s: Option<f64>| s.map(f64::to_bits);
                        prop_assert_eq!((bits(guard.pos), bits(guard.neg)), (bits(want.pos), bits(want.neg)));
                        prop_assert_eq!(guard, want);
                    }
                }
            }
        }
    }
}
