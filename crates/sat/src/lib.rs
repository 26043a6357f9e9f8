//! A CDCL SAT solver with **native guarded cardinality constraints**.
//!
//! The paper's novel SAT encoding for discrete counterfactual explanations
//! (§9.2) targets `cardinality-cadical` [Reeves, Heule, Bryant 2024], whose
//! distinguishing feature is native propagation of (guarded) cardinality
//! constraints `g ⇒ (Σ ℓᵢ ≥ b)` — "klauses". This crate provides the same
//! capability:
//!
//! * classic CDCL machinery: two-watched-literal clause propagation, 1-UIP
//!   conflict analysis with local (self-subsumption) learned-clause
//!   minimization, VSIDS branching with phase saving, Luby restarts and
//!   activity-based learned-clause deletion;
//! * counter-based propagation for guarded at-least-`b` cardinality
//!   constraints — up to two conjoined guard literals each — with lazily
//!   materialized reason clauses so learning works across both constraint
//!   types;
//! * a sealed, `Arc`-shared prefix of cardinality constraints
//!   ([`Solver::seal`]), so a solver built once can be cloned per query for
//!   the cost of its clauses and counters;
//! * incremental solving under assumptions, which the counterfactual search
//!   uses to binary-search the explanation distance with one solver instance;
//! * a CNF *sequential-counter* fallback encoding ([`encode`]) used by the
//!   ablation benchmark to quantify what native propagation buys.
//!
//! ```
//! use knn_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let v = s.new_vars(4);
//! // (v0 ∨ v1) and a guarded cardinality constraint g ⇒ (Σ vᵢ ≥ 3).
//! s.add_clause(&[v[0].pos(), v[1].pos()]);
//! let g = s.new_var().pos();
//! s.add_card_ge(&[g], &[v[0].pos(), v[1].pos(), v[2].pos(), v[3].pos()], 3);
//! assert_eq!(s.solve_with(&[g]), SolveResult::Sat);           // guard on
//! let trues = (0..4).filter(|&i| s.value(v[i]) == Some(true)).count();
//! assert!(trues >= 3);
//! s.add_clause(&[v[2].neg()]);
//! s.add_clause(&[v[3].neg()]);
//! assert_eq!(s.solve_with(&[g]), SolveResult::Unsat);         // 2 < 3
//! assert_eq!(s.solve(), SolveResult::Sat);                    // guard free
//! ```

#![warn(missing_docs)]

pub mod encode;
pub mod lit;
pub mod solver;

pub use lit::{Lit, Var};
pub use solver::{SolveResult, Solver};
