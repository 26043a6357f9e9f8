//! Quickstart: classify a point, explain it abductively ("which feature
//! values pin this decision?") and counterfactually ("what is the cheapest
//! change that flips it?") in both the continuous and the discrete setting.
//!
//! Run with: `cargo run --release --example quickstart`

use explainable_knn::prelude::*;

fn main() {
    continuous_demo();
    discrete_demo();
}

fn continuous_demo() {
    println!("=== Continuous setting (ℝ², ℓ2, k = 1) ===");
    // A toy 2-D dataset: positives in the upper-right, negatives lower-left.
    let ds = ContinuousDataset::from_sets(
        vec![vec![2.0, 2.0], vec![3.0, 1.5], vec![2.5, 3.0]],
        vec![vec![-1.0, -1.0], vec![0.0, -2.0], vec![-2.0, 0.5]],
    );
    let x = vec![1.5, 1.0];
    let knn = ContinuousKnn::new(&ds, LpMetric::L2, OddK::ONE);
    println!("f({x:?}) = {}", knn.classify(&x));

    // Abductive: a minimal sufficient reason (Proposition 3 / Corollary 1).
    let reason = L2Abductive::new(&ds, OddK::ONE).minimal(&x);
    println!("minimal sufficient reason (feature indices): {reason:?}");

    // Counterfactual: the infimum flip distance (Theorem 2).
    let cf = L2Counterfactual::new(&ds, OddK::ONE);
    // One walk gives the infimum and a concrete witness within a slightly
    // larger ball (Corollary 2).
    let (inf, witness) = cf.closest(&x, |d| d + 0.01).expect("both classes present");
    println!(
        "closest counterfactual distance = {:.4} (attained: {}), toward {:?}",
        inf.dist_sq.sqrt(),
        inf.attained,
        inf.closure_witness
    );
    let witness = witness.expect("witness exists");
    println!("witness {witness:?} classifies as {}", knn.classify(&witness));
    println!();
}

fn discrete_demo() {
    println!("=== Discrete setting ({{0,1}}⁵, Hamming, k = 3) ===");
    let ds = BooleanDataset::from_sets(
        vec![
            BitVec::from_bits(&[1, 1, 1, 0, 0]),
            BitVec::from_bits(&[1, 1, 0, 0, 0]),
            BitVec::from_bits(&[1, 0, 1, 0, 0]),
        ],
        vec![
            BitVec::from_bits(&[0, 0, 0, 1, 1]),
            BitVec::from_bits(&[0, 0, 1, 1, 1]),
            BitVec::from_bits(&[0, 1, 0, 1, 1]),
        ],
    );
    let x = BitVec::from_bits(&[1, 1, 0, 1, 0]);
    let knn = BooleanKnn::new(&ds, OddK::THREE);
    println!("f({x}) = {}", knn.classify(&x));

    // Abductive explanations: minimal (greedy) and minimum (exact IHS).
    let ab = HammingAbductive::new(&ds, OddK::THREE);
    let minimal = ab.minimal(&x);
    let minimum = ab.minimum(&x);
    println!("minimal sufficient reason: {minimal:?}");
    println!("minimum sufficient reason: {minimum:?} (Σ₂ᵖ-complete for k ≥ 3!)");

    // Counterfactual via the paper's SAT encoding.
    let (cf, d) =
        hamming_counterfactual::closest_sat(&ds, OddK::THREE, &x).expect("both classes present");
    println!("closest counterfactual: {cf} at Hamming distance {d}");
    println!("flipped bits: {:?}", x.diff_indices(&cf));
}
