//! A tabular, "high-stakes decision" scenario from the XAI motivation of the
//! paper's introduction: loan approval with a k-NN model over continuous
//! features, explained abductively and counterfactually.
//!
//! Features (all scaled to comparable ranges):
//!   0: income (×10k$)   1: debt ratio (×10)   2: years employed
//!   3: credit score (×100)   4: late payments
//!
//! Run with: `cargo run --release --example loan_applications`

use explainable_knn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FEATURES: [&str; 5] =
    ["income(×10k$)", "debt_ratio(×10)", "years_employed", "credit_score(×100)", "late_payments"];

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    // Synthetic historical decisions: approved applicants have high income /
    // score and low debt; rejected the opposite, with noise.
    let mut approved = Vec::new();
    let mut rejected = Vec::new();
    for _ in 0..40 {
        approved.push(vec![
            rng.gen_range(6.0..12.0),
            rng.gen_range(0.5..3.0),
            rng.gen_range(3.0..20.0),
            rng.gen_range(6.5..8.5),
            rng.gen_range(0.0..1.5),
        ]);
        rejected.push(vec![
            rng.gen_range(1.0..6.0),
            rng.gen_range(3.0..8.0),
            rng.gen_range(0.0..6.0),
            rng.gen_range(3.0..6.5),
            rng.gen_range(1.0..6.0),
        ]);
    }
    let ds = ContinuousDataset::from_sets(approved, rejected);
    let k = OddK::THREE;
    let knn = ContinuousKnn::new(&ds, LpMetric::L2, k);

    // A borderline applicant.
    let applicant = vec![5.5, 3.2, 2.0, 6.4, 1.0];
    let decision = knn.classify(&applicant);
    println!("Applicant {applicant:?}");
    println!(
        "3-NN decision: {}\n",
        if decision == Label::Positive { "APPROVED" } else { "REJECTED" }
    );

    // Abductive: which of the applicant's feature values suffice to lock in
    // this decision, no matter what the other features were?
    let reason = L2Abductive::new(&ds, k).minimal(&applicant);
    println!("Minimal sufficient reason (Prop 3 + greedy deletion):");
    for &i in &reason {
        println!("  - {} = {:.2}", FEATURES[i], applicant[i]);
    }
    if reason.is_empty() {
        println!("  (empty: every completion of any feature subset keeps the decision)");
    }

    // Counterfactual: the smallest ℓ2 change that flips the decision.
    let cf = L2Counterfactual::new(&ds, k);
    match cf.closest(&applicant, |d| d * 1.02 + 1e-9) {
        Some((inf, boundary)) => {
            println!(
                "\nSmallest decision-flipping change (Thm 2): ℓ2 distance {:.3}{}",
                inf.dist_sq.sqrt(),
                if inf.attained { "" } else { " (open boundary — approach arbitrarily closely)" }
            );
            let boundary = boundary.expect("witness within slightly enlarged ball");
            // The witness may sit exactly on the decision boundary
            // (a correct witness under the optimistic tie rule, but an exact
            // tie is rounding-sensitive to re-check in f64) — step a little
            // further along the same direction to land strictly inside.
            let mut witness = boundary.clone();
            let mut overshoot = 1.001;
            while knn.classify(&witness) == decision && overshoot < 1.2 {
                for i in 0..witness.len() {
                    witness[i] = applicant[i] + (boundary[i] - applicant[i]) * overshoot;
                }
                overshoot += 0.01;
            }
            println!("A concrete flipped profile:");
            for i in 0..FEATURES.len() {
                let delta = witness[i] - applicant[i];
                if delta.abs() > 1e-6 {
                    println!(
                        "  - {}: {:.2} → {:.2} ({:+.2})",
                        FEATURES[i], applicant[i], witness[i], delta
                    );
                }
            }
            assert_ne!(knn.classify(&witness), decision);
        }
        None => println!("\nNo counterfactual exists (the model is constant)."),
    }

    // The ℓ1 view: sparse counterfactuals (fewest total feature change).
    // ℓ1 counterfactuals are NP-complete even for singleton classes
    // (Theorem 4), and the exact MILP's branch & bound grows with the number
    // of min-selector binaries — one per training point — so the demo runs
    // it on a history subsample, the way a per-case audit would.
    let mut small = ContinuousDataset::new(ds.dim());
    for i in 0..ds.len() {
        if i % 8 == 0 {
            small.push(ds.point(i).to_vec(), ds.label(i));
        }
    }
    let ds = small;
    let l1 = L1Counterfactual::new(&ds);
    // 1-NN for the ℓ1 engine (Theorem 4 setting).
    if let Some((w, d)) = l1.closest(&applicant) {
        println!("\nℓ1 (sparsity-seeking) counterfactual for the 1-NN view: total change {d:.3}");
        for i in 0..FEATURES.len() {
            let delta = w[i] - applicant[i];
            if delta.abs() > 1e-6 {
                println!("  - {}: {:+.3}", FEATURES[i], delta);
            }
        }
    }
}
