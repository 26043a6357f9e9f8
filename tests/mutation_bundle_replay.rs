//! A cross-version byte check. `tests/testdata/mutation_stream.bundle.json`
//! was exported by `xknn client --repro tenant=flat --out` from a server
//! built before the dataset went flat and the class indexes became patched
//! scans. It holds a 0/1 tenant of 500 points × 16 dims, 47 inserts and
//! removes (one of them a non-0/1 insert, later removed, so the Hamming
//! routes go away and come back), and 213 served responses: Hamming, ℓ1 and
//! ℓ2 classify at k ∈ {1, 3, 5} and Hamming check-SR at k = 1. Replaying it
//! against today's engine must reproduce every response byte.

use explainable_knn::engine::bundle::ReproBundle;
use std::process::Command;

const BUNDLE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/testdata/mutation_stream.bundle.json");

#[test]
fn recorded_mutation_stream_replays_byte_identically() {
    let bundle = ReproBundle::from_json(&std::fs::read_to_string(BUNDLE).unwrap()).unwrap();
    assert_eq!(bundle.replay.len(), 47);
    let report = bundle.replay().unwrap();
    assert_eq!(report.checked, 213);
    assert!(report.divergences.is_empty(), "diverged: {:?}", report.divergences);

    let out = Command::new(env!("CARGO_BIN_EXE_xknn")).args(["replay", BUNDLE]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}
