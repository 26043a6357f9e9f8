//! Figure 1 harness: the digit-counterfactual demo with configurable size.
//! (The `mnist_counterfactual` example is the narrative version; this binary
//! sweeps seeds and reports the counterfactual sizes, echoing the "13 pixels"
//! observation of the paper.)
//!
//! cargo run --release -p knn-bench --bin fig1_counterfactual_demo -- [--side 16] [--per-class 40] [--trials 5]

use knn_bench::arg_value;
use knn_core::counterfactual::hamming::closest_sat_budgeted;
use knn_core::{BooleanKnn, OddK};
use knn_datasets::digits::{binarize, binary_digits_dataset, render_digit, DigitsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let side: usize = arg_value("--side").map(|s| s.parse().unwrap()).unwrap_or(12);
    let per_class: usize = arg_value("--per-class").map(|s| s.parse().unwrap()).unwrap_or(30);
    let trials: usize = arg_value("--trials").map(|s| s.parse().unwrap()).unwrap_or(3);
    let cfg = DigitsConfig::new(side);

    println!("Figure 1 — counterfactual sizes for digit 4 vs 9 at {side}×{side} ({per_class} images/class)\n");
    let mut sizes = Vec::new();
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(4000 + trial as u64);
        let ds = binary_digits_dataset(&mut rng, &cfg, &[4, 9], 4, per_class);
        let test = binarize(&render_digit(&mut rng, 4, &cfg), 0.5);
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        let before = knn.classify(&test);
        let (cf, d, proven) = closest_sat_budgeted(&ds, OddK::ONE, &test, 100_000)
            .expect("budget too small for a first witness")
            .expect("counterfactual exists");
        assert_ne!(knn.classify(&cf), before);
        println!(
            "trial {trial}: classified {before}; closest counterfactual flips {d} of {} pixels{}",
            side * side,
            if proven { " (proven minimal)" } else { " (budget-best)" }
        );
        sizes.push(d);
    }
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    println!(
        "\nmean counterfactual size: {mean:.1} pixels — the paper's instance needed 13 of 784."
    );
}
