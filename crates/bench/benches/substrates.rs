//! Substrate microbenches and the design ablation called out in DESIGN.md:
//! native guarded-cardinality propagation vs the sequential-counter CNF
//! encoding (what cardinality-cadical buys the paper's encoding), plus the
//! classifier, LP and QP baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use knn_datasets::random::{random_boolean_dataset, random_boolean_point};
use knn_sat::encode::add_card_ge_cnf;
use knn_sat::{Lit, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ablation: one counterfactual-shaped query (selector clause + guarded
/// at-least constraints + distance bound) with native cards vs CNF cards.
fn cardinality_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cardinality");
    group.sample_size(10);
    for &native in &[true, false] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if native { "native" } else { "cnf_seqcounter" }),
            &native,
            |b, &native| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(9);
                    let n = 60usize;
                    let groups = 30usize;
                    let mut s = Solver::new();
                    let z = s.new_vars(n);
                    let sel: Vec<Lit> = (0..groups).map(|_| s.new_var().pos()).collect();
                    s.add_clause(&sel);
                    for g in &sel {
                        let width = rng.gen_range(10..30usize);
                        let lits: Vec<Lit> = (0..width)
                            .map(|_| z[rng.gen_range(0..n)].lit(rng.gen_bool(0.5)))
                            .collect();
                        let mut uniq = lits.clone();
                        uniq.sort();
                        uniq.dedup();
                        // Drop complementary pairs to keep the constraint well-formed.
                        let clean: Vec<Lit> =
                            uniq.iter().copied().filter(|l| !uniq.contains(&l.negate())).collect();
                        if clean.len() < 3 {
                            continue;
                        }
                        let bound = (clean.len() / 2 + 1) as u32;
                        if native {
                            s.add_card_ge(&[*g], &clean, bound);
                        } else {
                            add_card_ge_cnf(&mut s, Some(*g), &clean, bound);
                        }
                    }
                    criterion::black_box(s.solve())
                });
            },
        );
    }
    group.finish();
}

fn classifier_and_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.sample_size(10);

    group.bench_function("hamming_classifier_N500_n128", |b| {
        let mut rng = StdRng::seed_from_u64(10);
        let ds = random_boolean_dataset(&mut rng, 500, 128, 0.5);
        let knn = knn_core::BooleanKnn::new(&ds, knn_core::OddK::THREE);
        let x = random_boolean_point(&mut rng, 128);
        b.iter(|| criterion::black_box(knn.classify(&x)));
    });

    // Hamming k = 1 minimal-SR: greedy deletion over the projected-witness
    // test, one query point per size.
    for (points, dim) in [(300, 16), (10_000, 32)] {
        group.bench_function(format!("hamming_minimal_k1_N{points}_n{dim}"), |b| {
            let mut rng = StdRng::seed_from_u64(11);
            let ds = random_boolean_dataset(&mut rng, points, dim, 0.5);
            let ab = knn_core::abductive::hamming::HammingAbductive::new(&ds, knn_core::OddK::ONE);
            let x = random_boolean_point(&mut rng, dim);
            b.iter(|| criterion::black_box(ab.minimal(&x)));
        });
    }

    group.bench_function("lp_simplex_f64_40x60", |b| {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 60usize;
        let m = 40usize;
        let mut lp = knn_lp::LpProblem::<f64>::new(n);
        for j in 0..n {
            lp.set_lower(j, 0.0);
            lp.set_upper(j, 10.0);
        }
        for _ in 0..m {
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..3.0)).collect();
            lp.add_dense(&a, knn_lp::Rel::Le, rng.gen_range(5.0..50.0));
        }
        let c_vec: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..2.0)).collect();
        b.iter(|| criterion::black_box(lp.solve(&c_vec, knn_lp::Objective::Maximize)));
    });

    group.bench_function("qp_projection_f64_d50_m30", |b| {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 50usize;
        let mut poly = knn_qp::Polyhedron::<f64>::whole_space(n);
        for _ in 0..30 {
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            poly.add_le(a, rng.gen_range(0.5..2.0));
        }
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        b.iter(|| criterion::black_box(knn_qp::project_onto_polyhedron(&x, &poly)));
    });

    group.finish();
}

/// Ablation: MILP node-order and rounding-heuristic options on the Figure-5a
/// counterfactual model (the design choices added on top of plain DFS B&B).
fn milp_ablation(c: &mut Criterion) {
    use knn_core::counterfactual::hamming::closest_milp_with;
    use knn_milp::{MilpConfig, NodeOrder};
    let mut group = c.benchmark_group("ablation_milp");
    group.sample_size(10);
    let configs: [(&str, MilpConfig); 3] = [
        ("dfs", MilpConfig::default()),
        ("dfs+rounding", MilpConfig { rounding_heuristic: true, ..Default::default() }),
        (
            "best_bound+rounding",
            MilpConfig {
                node_order: NodeOrder::BestBound,
                rounding_heuristic: true,
                ..Default::default()
            },
        ),
    ];
    for (name, cfg) in configs {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut rng = StdRng::seed_from_u64(15);
            let ds = random_boolean_dataset(&mut rng, 25, 12, 0.5);
            let x = random_boolean_point(&mut rng, 12);
            b.iter(|| criterion::black_box(closest_milp_with(&ds, &x, cfg.clone()).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, cardinality_ablation, classifier_and_solvers, milp_ablation);
criterion_main!(benches);
