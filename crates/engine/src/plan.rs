//! The query planner: Table 1 of the paper, as a routing function.
//!
//! Every `(query kind, metric, k)` cell of Table 1 is either polynomial,
//! NP-hard-but-solvable (SAT / MILP / implicit hitting set), Σ₂ᵖ-complete, or
//! open. The planner maps each request onto the concrete algorithm the
//! workspace implements for that cell, refuses combinations with no sound
//! engine (mirroring the CLI's stance: surface the tractability boundary, do
//! not silently approximate), and — when the engine is configured with a
//! deterministic effort budget — swaps the exponential-tail routes for their
//! anytime/greedy counterparts, flagging the response as unproven.
//!
//! Budgets are expressed in *logical* units (CDCL conflicts for the SAT
//! paths, greedy relaxation of the hitting-set loop) rather than wall-clock
//! time: the batch engine guarantees byte-identical output for any worker
//! count and schedule, and a wall-clock cutoff would make results depend on
//! machine load.

use crate::request::{Metric, QueryKind, Request};

/// A concrete algorithm choice for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Optimistic label via the per-class Hamming scans.
    ClassifyHamming,
    /// Optimistic label via the per-class ℓp scans (any ℓp).
    ClassifyContinuous,
    /// Check-SR(ℝ, ℓ2): LP feasibility over the lazily-enumerated Prop 1
    /// regions (nearest-anchor-first, pruned, memoized per visit).
    L2Check,
    /// Minimal-SR(ℝ, ℓ2): greedy deletion over LP checks (Cor 1).
    L2Minimal,
    /// Minimum-SR(ℝ, ℓ2): implicit hitting set (exact or greedy).
    L2Minimum,
    /// ℓ2 counterfactual: projection QPs over the lazily-enumerated regions
    /// (Thm 2).
    L2Cf,
    /// Check-SR(ℝ, ℓ1), k = 1: witness substitution (Prop 4).
    L1Check,
    /// Minimal-SR(ℝ, ℓ1), k = 1 (Cor 3).
    L1Minimal,
    /// Minimum-SR(ℝ, ℓ1), k = 1: implicit hitting set.
    L1Minimum,
    /// ℓ1 counterfactual, k = 1: exact MILP (Thm 4).
    L1CfMilp,
    /// Check-SR({0,1}, Hamming), k = 1: projected witness (Prop 6).
    HammingCheckK1,
    /// Check-SR({0,1}, Hamming), k ≥ 3 (coNP-complete, Thm 7): enumerates
    /// the free completions nearest first, and searches for a counterexample
    /// by SAT only when they exceed the enumeration cap.
    HammingCheckSat,
    /// Minimal-SR({0,1}, Hamming): greedy deletion over the per-k checker —
    /// Prop 6 at k = 1, enumeration with the SAT fallback at k ≥ 3.
    HammingMinimal,
    /// Minimum-SR({0,1}, Hamming): implicit hitting set (Thm 1 / Thm 8)
    /// over the same per-k checker.
    HammingMinimum,
    /// Hamming counterfactual (NP-complete, Thm 6): enumerates the Hamming
    /// ball around x̄ radius by radius; only past the enumeration cap does
    /// it run the guarded-cardinality SAT search (§9.2) from the radius
    /// ruled out, optionally conflict-budgeted (anytime). The tag names the
    /// Table 1 cell, whichever of the two answered.
    HammingCf,
    /// ℓp counterfactual heuristic (upper bound; complexity open, §10).
    LpHeuristicCf,
}

/// The paper's complexity classification of the routed cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Complexity {
    /// Polynomial (for fixed k).
    Poly,
    /// NP-complete / NP-hard but exactly solvable by the routed engine.
    NpHard,
    /// Σ₂ᵖ-complete (minimum-SR in the discrete setting, Thm 8).
    Sigma2p,
    /// Open problem (§10); heuristic answer only.
    Open,
}

/// The planner's decision for one request.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// The algorithm to run.
    pub route: Route,
    /// Wire tag identifying the route in responses (stable, documented).
    pub tag: &'static str,
    /// Table 1 classification of this cell.
    pub complexity: Complexity,
    /// True when an effort budget demoted an exact route to an anytime or
    /// greedy variant (the response will carry `optimal`/`proven` = false
    /// whenever the heuristic could not close the gap).
    pub budgeted: bool,
}

/// Routes one request per Table 1. `budgeted` reflects the engine-level
/// effort budget. Returns `Err` for cells the workspace has no sound engine
/// for (ℓ1 with k ≥ 3, ℓp abductive queries) and for invalid `k`.
pub fn plan(req: &Request, budgeted: bool) -> Result<Plan, String> {
    if req.k.is_multiple_of(2) || req.k == 0 {
        return Err(format!("k must be odd, got {}", req.k));
    }
    let k1 = req.k == 1;
    let mk = |route, tag, complexity, budgeted| Ok(Plan { route, tag, complexity, budgeted });
    match (req.kind, req.metric) {
        (QueryKind::Classify, Metric::Hamming) => {
            mk(Route::ClassifyHamming, "hamming-index", Complexity::Poly, false)
        }
        (QueryKind::Classify, _) => {
            mk(Route::ClassifyContinuous, "kdtree-class-index", Complexity::Poly, false)
        }

        // The ℓ2 region cells are polynomial for every fixed k and are never
        // demoted to the effort-budget tail: the lazy Prop 1 enumerator
        // serves k ≥ 5 exactly, where the old eager materialization was the
        // de-facto size limit (`O(n^k)` memory before the first answer).
        (QueryKind::CheckSr, Metric::L2) => {
            mk(Route::L2Check, "l2-lp-regions", Complexity::Poly, false)
        }
        (QueryKind::CheckSr, Metric::L1) if k1 => {
            mk(Route::L1Check, "l1-witness", Complexity::Poly, false)
        }
        (QueryKind::CheckSr, Metric::L1) => Err(
            "check-sr under ℓ1 with k ≥ 3 is coNP-complete (Thm 5) and has no exact engine here"
                .into(),
        ),
        (QueryKind::CheckSr, Metric::Hamming) if k1 => {
            mk(Route::HammingCheckK1, "hamming-witness-k1", Complexity::Poly, false)
        }
        (QueryKind::CheckSr, Metric::Hamming) => {
            mk(Route::HammingCheckSat, "hamming-sat-check", Complexity::NpHard, false)
        }

        (QueryKind::MinimalSr, Metric::L2) => {
            mk(Route::L2Minimal, "l2-greedy-deletion", Complexity::Poly, false)
        }
        (QueryKind::MinimalSr, Metric::L1) if k1 => {
            mk(Route::L1Minimal, "l1-greedy-deletion", Complexity::Poly, false)
        }
        (QueryKind::MinimalSr, Metric::L1) => Err(
            "minimal-sr under ℓ1 requires k = 1 (its checker is coNP-complete for k ≥ 3, Thm 5)"
                .into(),
        ),
        (QueryKind::MinimalSr, Metric::Hamming) => mk(
            Route::HammingMinimal,
            if k1 { "hamming-greedy-deletion" } else { "hamming-greedy-deletion-sat" },
            if k1 { Complexity::Poly } else { Complexity::NpHard },
            false,
        ),

        (QueryKind::MinimumSr, Metric::L2) => mk(
            Route::L2Minimum,
            if budgeted { "l2-ihs-greedy" } else { "l2-ihs-exact" },
            Complexity::NpHard,
            budgeted,
        ),
        (QueryKind::MinimumSr, Metric::L1) if k1 => mk(
            Route::L1Minimum,
            if budgeted { "l1-ihs-greedy" } else { "l1-ihs-exact" },
            Complexity::NpHard,
            budgeted,
        ),
        (QueryKind::MinimumSr, Metric::L1) => {
            Err("minimum-sr under ℓ1 requires k = 1 (Thm 5)".into())
        }
        (QueryKind::MinimumSr, Metric::Hamming) => mk(
            Route::HammingMinimum,
            if budgeted { "hamming-ihs-greedy" } else { "hamming-ihs-exact" },
            if k1 { Complexity::NpHard } else { Complexity::Sigma2p },
            budgeted,
        ),

        (QueryKind::Counterfactual, Metric::L2) => {
            mk(Route::L2Cf, "l2-qp-regions", Complexity::Poly, false)
        }
        (QueryKind::Counterfactual, Metric::L1) if k1 => {
            if budgeted {
                // The exact MILP (Thm 4: NP-complete even for singleton
                // classes) has no anytime mode; under a budget, serve the
                // ℓp heuristic's valid-but-unproven witness instead.
                mk(Route::LpHeuristicCf, "l1-heuristic-budgeted", Complexity::NpHard, true)
            } else {
                mk(Route::L1CfMilp, "l1-milp", Complexity::NpHard, false)
            }
        }
        (QueryKind::Counterfactual, Metric::L1) => {
            // No exact model for k ≥ 3; the ℓp heuristic still yields a valid
            // (unproven) counterfactual.
            mk(Route::LpHeuristicCf, "lp-heuristic", Complexity::Open, false)
        }
        (QueryKind::Counterfactual, Metric::Lp(_)) => {
            mk(Route::LpHeuristicCf, "lp-heuristic", Complexity::Open, false)
        }
        (QueryKind::Counterfactual, Metric::Hamming) => mk(
            Route::HammingCf,
            if budgeted { "hamming-sat-budgeted" } else { "hamming-sat" },
            Complexity::NpHard,
            budgeted,
        ),

        (kind, Metric::Lp(p)) => {
            Err(format!("{} under ℓ{p} is not implemented (complexity open, §10)", kind.name()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: QueryKind, metric: Metric, k: u32) -> Request {
        Request { id: "t".into(), kind, metric, k, point: vec![0.0], features: None }
    }

    #[test]
    fn polynomial_cells_route_exact() {
        let p = plan(&req(QueryKind::CheckSr, Metric::L2, 5), true).unwrap();
        assert_eq!(p.route, Route::L2Check);
        assert_eq!(p.complexity, Complexity::Poly);
        assert!(!p.budgeted, "poly routes ignore the budget");
    }

    #[test]
    fn table1_boundaries_refused() {
        assert!(plan(&req(QueryKind::CheckSr, Metric::L1, 3), false).is_err());
        assert!(plan(&req(QueryKind::MinimalSr, Metric::L1, 5), false).is_err());
        assert!(plan(&req(QueryKind::MinimumSr, Metric::L1, 3), false).is_err());
        assert!(plan(&req(QueryKind::CheckSr, Metric::Lp(3), 1), false).is_err());
        assert!(plan(&req(QueryKind::Classify, Metric::L2, 2), false).is_err(), "even k");
        assert!(plan(&req(QueryKind::Classify, Metric::L2, 0), false).is_err());
    }

    #[test]
    fn budget_demotes_hard_tails() {
        let exact = plan(&req(QueryKind::MinimumSr, Metric::Hamming, 3), false).unwrap();
        assert_eq!(exact.tag, "hamming-ihs-exact");
        assert_eq!(exact.complexity, Complexity::Sigma2p);
        let budgeted = plan(&req(QueryKind::MinimumSr, Metric::Hamming, 3), true).unwrap();
        assert_eq!(budgeted.tag, "hamming-ihs-greedy");
        assert!(budgeted.budgeted);

        let cf = plan(&req(QueryKind::Counterfactual, Metric::Hamming, 1), true).unwrap();
        assert_eq!(cf.tag, "hamming-sat-budgeted");

        let l1cf = plan(&req(QueryKind::Counterfactual, Metric::L1, 1), true).unwrap();
        assert_eq!(l1cf.route, Route::LpHeuristicCf);
        assert!(l1cf.budgeted);
        let l1cf_exact = plan(&req(QueryKind::Counterfactual, Metric::L1, 1), false).unwrap();
        assert_eq!(l1cf_exact.route, Route::L1CfMilp);
    }

    #[test]
    fn heuristic_cells_marked_open() {
        let p = plan(&req(QueryKind::Counterfactual, Metric::Lp(4), 3), false).unwrap();
        assert_eq!(p.route, Route::LpHeuristicCf);
        assert_eq!(p.complexity, Complexity::Open);
        let p = plan(&req(QueryKind::Counterfactual, Metric::L1, 3), false).unwrap();
        assert_eq!(p.route, Route::LpHeuristicCf);
    }
}
