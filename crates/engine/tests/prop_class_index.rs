//! Patched class indexes equal fresh builds. Over random insert/remove
//! streams, [`ArtifactStore::carry_over`] patches each class scan (one row
//! appended or removed) instead of rebuilding it. After every step, every
//! class index of the new epoch must equal the index a fresh store builds
//! from that epoch's data, and looking it up must build nothing. The streams
//! include non-0/1 inserts, which drop the Hamming indexes, and the removals
//! that make the data binary again, after which the Hamming indexes are
//! built fresh.

use knn_delta::AppliedMutation;
use knn_engine::{ArtifactStore, EngineData};
use knn_space::{ContinuousDataset, Label};
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
        let mut ds = ContinuousDataset::new(dim);
        for (bits, positive) in &seed {
            ds.push(bits.iter().map(|&b| f64::from(u8::from(b))).collect(), label(*positive));
        }
        let mut data = EngineData::from_continuous(ds);
        let mut store = ArtifactStore::new();
        touch_all(&store, &data);

        for op in ops {
            let applied = match op {
                Op::Insert { bits, positive, non_binary } => {
                    let mut point: Vec<f64> = bits.iter().map(|&b| f64::from(u8::from(b))).collect();
                    if non_binary {
                        point[0] = 0.5;
                    }
                    AppliedMutation::Insert { point, label: label(positive) }
                }
                Op::Remove { seed } => {
                    if data.continuous.len() <= 1 {
                        continue;
                    }
                    // Half the removals target a non-0/1 point when there is
                    // one, so streams regularly turn binary again.
                    let non_binary = (0..data.continuous.len())
                        .find(|&i| data.continuous.point(i).iter().any(|&v| v != 0.0 && v != 1.0));
                    let id = match non_binary {
                        Some(i) if seed % 2 == 0 => i,
                        _ => seed % data.continuous.len(),
                    };
                    let point = data.continuous.point(id).to_vec();
                    AppliedMutation::Remove { id, point, label: data.continuous.label(id) }
                }
            };
            let next = match &applied {
                AppliedMutation::Insert { point, label } => data.with_insert(point, *label),
                AppliedMutation::Remove { id, .. } => data.with_remove(*id),
            };
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
