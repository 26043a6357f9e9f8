//! Figure 5: runtimes for discrete counterfactual explanations over random
//! `{0,1}ⁿ` data — SAT (panel b) vs IQP/MILP (panel a).
//!
//! Usage:
//!   cargo run --release -p knn-bench --bin fig5 -- --method sat
//!   cargo run --release -p knn-bench --bin fig5 -- --method iqp
//!   ... [--dims 50,100,...] [--sizes 300,500,...] [--repeats 30] [--full]
//!
//! Defaults are scaled down so the sweep completes in minutes; `--full`
//! restores the paper's parameters (dims 50..350, N up to 2000/900, 30
//! repeats). Our MILP is a from-scratch branch & bound, not Gurobi on 8
//! threads, so the IQP panel is expected to be slower in absolute terms.

use knn_bench::{arg_flag, arg_value, parse_list, print_row, time_runs};
use knn_core::counterfactual::hamming::{closest_milp_with, closest_sat};
use knn_core::OddK;
use knn_datasets::random::{random_boolean_dataset, random_boolean_point};
use knn_milp::MilpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let method = arg_value("--method").unwrap_or_else(|| "sat".to_string());
    let full = arg_flag("--full");
    let repeats: usize =
        arg_value("--repeats").map(|s| s.parse().unwrap()).unwrap_or(if full { 30 } else { 3 });
    let dims = arg_value("--dims").map(|s| parse_list(&s)).unwrap_or_else(|| {
        if full {
            vec![50, 100, 150, 200, 250, 300, 350]
        } else {
            vec![30, 60, 90, 120]
        }
    });
    let sizes = arg_value("--sizes").map(|s| parse_list(&s)).unwrap_or_else(|| {
        match (method.as_str(), full) {
            ("sat", true) => vec![300, 500, 700, 900],
            ("sat", false) => vec![100, 200, 300],
            (_, true) => vec![500, 1000, 1500, 2000],
            (_, false) => vec![30, 60],
        }
    });

    println!(
        "Figure 5{} — discrete counterfactuals via {}",
        if method == "sat" { "b" } else { "a" },
        method.to_uppercase()
    );
    println!("dims = {dims:?}, N = {sizes:?}, repeats = {repeats}\n");
    println!("series = N (total training points), x = dimension n, y = seconds\n");

    for &n_points in &sizes {
        for &dim in &dims {
            let mut skipped = 0usize;
            let stats = time_runs(repeats, |run| {
                let mut rng = StdRng::seed_from_u64((n_points * 1000 + dim) as u64 + run as u64);
                let ds = random_boolean_dataset(&mut rng, n_points, dim, 0.5);
                let x = random_boolean_point(&mut rng, dim);
                match method.as_str() {
                    "sat" => {
                        let out = closest_sat(&ds, OddK::ONE, &x);
                        assert!(out.is_some(), "both classes are guaranteed nonempty");
                    }
                    "iqp" | "milp" => {
                        // A bounded node budget keeps adversarial seeds from
                        // stalling the sweep; exhaustions are reported.
                        let cfg = MilpConfig {
                            max_nodes: 200_000,
                            rounding_heuristic: true,
                            ..Default::default()
                        };
                        match closest_milp_with(&ds, &x, cfg) {
                            Ok(out) => assert!(out.is_some()),
                            Err(()) => skipped += 1,
                        }
                    }
                    other => panic!("unknown --method {other}"),
                }
            });
            print_row(&format!("N={n_points}"), dim, stats);
            if skipped > 0 {
                println!("              ({skipped}/{repeats} runs hit the MILP node budget)");
            }
        }
        println!();
    }
}
