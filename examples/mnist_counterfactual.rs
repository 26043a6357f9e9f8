//! Figure 1 reproduction: a 1-NN counterfactual on binarized digit images,
//! 4 vs 9 — the paper's motivating example ("13 pixels flip a 4 into a 9").
//!
//! MNIST is substituted by the stroke-rendered digits of `knn-datasets`
//! (DESIGN.md §1); the qualitative phenomenon is identical: a small set of
//! structurally meaningful pixels separates the two digit classes.
//!
//! Run with: `cargo run --release --example mnist_counterfactual`

use explainable_knn::datasets::digits::{
    ascii_art_binary, binarize, binary_digits_dataset, render_digit, DigitsConfig,
};
use explainable_knn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2025);
    let side = 12;
    let cfg = DigitsConfig::new(side);

    // Training set: digit 4 positive, digit 9 negative (one-vs-rest protocol).
    let ds = binary_digits_dataset(&mut rng, &cfg, &[4, 9], 4, 40);
    let knn = BooleanKnn::new(&ds, OddK::ONE);

    // A fresh test image of a 4.
    let test = binarize(&render_digit(&mut rng, 4, &cfg), 0.5);
    let label = knn.classify(&test);
    println!("(a) test image — classified {label} ({} = digit 4)\n", Label::Positive);
    println!("{}", ascii_art_binary(&test, side, &[]));

    // Its nearest neighbor (panel b); ties go to the lowest index.
    let nearest =
        |q: &BitVec| ds.iter().enumerate().map(|(i, (p, _))| (p.hamming(q), i)).min().unwrap();
    let (nn_d, nn_idx) = nearest(&test);
    println!("(b) nearest neighbor of (a): point #{nn_idx} at distance {nn_d}\n");
    println!("{}", ascii_art_binary(&ds.point(nn_idx).to_bitvec(), side, &[]));

    // The closest counterfactual via the paper's SAT encoding (panel c). The
    // anytime budget keeps the demo snappy; `proven` reports whether the
    // final optimality proof completed within it.
    let (cf, cf_d, proven) =
        hamming_counterfactual::closest_sat_budgeted(&ds, OddK::ONE, &test, 150_000)
            .expect("budget too small for a first witness")
            .expect("counterfactual exists");
    assert_ne!(knn.classify(&cf), label);
    println!(
        "(c) closest counterfactual — {cf_d} pixels flipped{}, now classified as a 9\n",
        if proven { " (proven minimal)" } else { " (best found within solver budget)" }
    );
    println!("{}", ascii_art_binary(&cf, side, &[]));

    // Its nearest neighbor (panel d).
    let (nn2_d, nn2_idx) = nearest(&cf);
    println!("(d) nearest neighbor of (c): point #{nn2_idx} at distance {nn2_d}\n");
    println!("{}", ascii_art_binary(&ds.point(nn2_idx).to_bitvec(), side, &[]));

    // Diff maps (panels e–g): changed pixels marked with '*'.
    let diff_ac = test.diff_indices(&cf);
    println!(
        "(e) diff map between (a) and (c): the {} pixels of the counterfactual explanation\n",
        diff_ac.len()
    );
    println!("{}", ascii_art_binary(&test, side, &diff_ac));

    let diff_ab = test.diff_indices(&ds.point(nn_idx).to_bitvec());
    println!("(f) diff map between (a) and (b): {} pixels\n", diff_ab.len());
    println!("{}", ascii_art_binary(&test, side, &diff_ab));

    let diff_cd = cf.diff_indices(&ds.point(nn2_idx).to_bitvec());
    println!("(g) diff map between (c) and (d): {} pixels\n", diff_cd.len());
    println!("{}", ascii_art_binary(&cf, side, &diff_cd));

    println!(
        "Summary: {cf_d} pixel flips (out of {} features) change the classification, \
         echoing the paper's 13-pixel example.",
        side * side
    );
}
