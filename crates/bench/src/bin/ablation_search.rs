//! Ablation for the counterfactual distance-search strategy (DESIGN.md §4½):
//! §9.2 suggests binary or linear search on the SAT distance bound; because
//! UNSAT (optimality-proof) queries dominate CDCL runtime, this repository
//! defaults to a *descending* search with exactly one final UNSAT call. This
//! harness measures both on the same instances, reporting wall time and
//! solver conflicts.
//!
//! Usage: cargo run --release -p knn-bench --bin ablation_search
//!        [--rounds 10] [--dims 30,60] [--points 100,200]

use knn_bench::{arg_value, parse_list, Stats};
use knn_core::satenc::DiscreteModel;
use knn_core::{BooleanKnn, OddK};
use knn_datasets::random::{random_boolean_dataset, random_boolean_point};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let rounds: usize = arg_value("--rounds").map(|s| s.parse().unwrap()).unwrap_or(10);
    let dims = arg_value("--dims").map(|s| parse_list(&s)).unwrap_or_else(|| vec![30, 60]);
    let sizes = arg_value("--points").map(|s| parse_list(&s)).unwrap_or_else(|| vec![100, 200]);

    println!("SAT distance-search ablation: descending vs binary (k = 1)\n");
    for &n_points in &sizes {
        for &dim in &dims {
            let mut t_desc = Vec::new();
            let mut t_bin = Vec::new();
            let mut c_desc = 0u64;
            let mut c_bin = 0u64;
            for run in 0..rounds {
                let mut rng = StdRng::seed_from_u64((n_points * 7919 + dim) as u64 + run as u64);
                let ds = random_boolean_dataset(&mut rng, n_points, dim, 0.5);
                let x = random_boolean_point(&mut rng, dim);
                let knn = BooleanKnn::new(&ds, OddK::ONE);
                let target = knn.classify(&x).flip();

                let t0 = Instant::now();
                let mut m = DiscreteModel::build(&ds, OddK::ONE, &x, target);
                let a = m.closest(0);
                t_desc.push(t0.elapsed().as_secs_f64());
                c_desc += m.conflicts();

                let t0 = Instant::now();
                let mut m = DiscreteModel::build(&ds, OddK::ONE, &x, target);
                let b = m.closest_binary_search();
                t_bin.push(t0.elapsed().as_secs_f64());
                c_bin += m.conflicts();

                assert_eq!(
                    a.as_ref().map(|(_, d)| *d),
                    b.as_ref().map(|(_, d)| *d),
                    "strategies must agree on the optimal distance"
                );
            }
            let sd = Stats::from_samples(&t_desc);
            let sb = Stats::from_samples(&t_bin);
            println!(
                "N={n_points:<5} n={dim:<5} descending {:>9.4}s ±{:.4} ({} conflicts)   binary {:>9.4}s ±{:.4} ({} conflicts)",
                sd.mean, sd.ci95, c_desc / rounds as u64, sb.mean, sb.ci95, c_bin / rounds as u64
            );
        }
    }
}
