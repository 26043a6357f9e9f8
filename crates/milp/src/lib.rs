//! 0–1 mixed-integer linear programming by branch & bound.
//!
//! This is the workspace's **Gurobi substitute** (DESIGN.md §1): the discrete
//! IQP of the paper's §9.2 linearizes exactly over binary variables
//! (`(x̄ᵢ − ȳᵢ)² = x̄ᵢ(1−ȳᵢ) + (1−x̄ᵢ)ȳᵢ`), and its `min`-constraints become
//! big-M indicator rows, so a 0–1 MILP solver is all the "IQP" experiments
//! need. The ℓ1 counterfactual model (Theorem 4 setting) also runs through
//! this crate.
//!
//! Algorithm: branch & bound over the `f64` simplex relaxation of `knn-lp`
//! with configurable node order (depth-first diving or best-bound), a
//! fix-and-repair rounding heuristic, priority-guided most-fractional
//! branching and incumbent pruning. Exact for the model class, but slower
//! than a commercial solver, so absolute times in a Figure 5a comparison
//! run above the paper's.
//!
//! ```
//! use knn_milp::{MilpProblem, MilpOutcome};
//! use knn_lp::Rel;
//!
//! // Knapsack: max 10a + 6b + 4c  s.t.  5a + 4b + 3c ≤ 8, binary.
//! let mut m = MilpProblem::new(3);
//! for j in 0..3 { m.set_binary(j); }
//! m.add_dense(&[5.0, 4.0, 3.0], Rel::Le, 8.0);
//! match m.maximize(&[10.0, 6.0, 4.0]) {
//!     MilpOutcome::Optimal { value, .. } => assert!((value - 14.0).abs() < 1e-6),
//!     other => panic!("{other:?}"),
//! }
//! ```

#![warn(missing_docs)]

use knn_lp::{LpOutcome, LpProblem, Objective, Rel};

/// Tolerance for considering a relaxation value integral.
const INT_TOL: f64 = 1e-6;

/// A mixed 0–1 linear program.
#[derive(Clone, Debug)]
pub struct MilpProblem {
    n: usize,
    binaries: Vec<bool>,
    rows: Vec<(Vec<(usize, f64)>, Rel, f64)>,
    lower: Vec<Option<f64>>,
    upper: Vec<Option<f64>>,
}

/// Result of a MILP solve.
#[derive(Clone, Debug, PartialEq)]
pub enum MilpOutcome {
    /// Proven-optimal solution.
    Optimal {
        /// The optimal assignment (binaries exactly 0/1).
        x: Vec<f64>,
        /// The objective value in the caller's sense.
        value: f64,
    },
    /// No feasible assignment.
    Infeasible,
    /// The relaxation (and hence the MILP) is unbounded.
    Unbounded,
    /// Node budget exhausted before optimality was proven; the incumbent (if
    /// any) is returned.
    BudgetExhausted {
        /// Best feasible solution and value found within the budget.
        best: Option<(Vec<f64>, f64)>,
    },
}

/// How branch & bound orders its open nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeOrder {
    /// Depth-first, diving on the relaxation's suggested rounding first.
    /// Cheap (O(depth) memory) and finds incumbents early.
    DepthFirst,
    /// Best-bound first: always expand the open node with the smallest
    /// parent relaxation value. Proves optimality in the fewest nodes at the
    /// cost of a priority queue and later incumbents; pairs well with
    /// [`MilpConfig::rounding_heuristic`].
    BestBound,
}

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct MilpConfig {
    /// Maximum number of branch & bound nodes to explore.
    pub max_nodes: usize,
    /// Node expansion order.
    pub node_order: NodeOrder,
    /// Try to repair each fractional relaxation into an incumbent by fixing
    /// every binary to its rounded value and re-solving the LP for the
    /// continuous part. One extra LP per node, often pays for itself by
    /// tightening the pruning bound early.
    pub rounding_heuristic: bool,
    /// Branching priorities: among fractional binaries, the one with the
    /// highest priority is branched on (ties broken by fractionality). Empty
    /// = pure most-fractional. The counterfactual encoders use this to
    /// branch on selector indicators before coordinate flips.
    pub branch_priority: Vec<f64>,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig {
            max_nodes: 2_000_000,
            node_order: NodeOrder::DepthFirst,
            rounding_heuristic: false,
            branch_priority: Vec::new(),
        }
    }
}

impl MilpConfig {
    /// Depth-first with a node budget (the historical configuration).
    pub fn with_max_nodes(max_nodes: usize) -> Self {
        MilpConfig { max_nodes, ..Default::default() }
    }
}

/// Statistics from the last [`MilpProblem::solve_stats`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct MilpStats {
    /// Branch & bound nodes expanded (LPs solved for node relaxations).
    pub nodes: usize,
    /// Extra LPs solved by the rounding heuristic.
    pub heuristic_lps: usize,
    /// How many times the incumbent improved.
    pub incumbent_updates: usize,
}

impl MilpProblem {
    /// Creates a program with `n` continuous variables (mark binaries with
    /// [`MilpProblem::set_binary`]).
    pub fn new(n: usize) -> Self {
        MilpProblem {
            n,
            binaries: vec![false; n],
            rows: Vec::new(),
            lower: vec![None; n],
            upper: vec![None; n],
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// Declares variable `j` binary (`{0,1}`).
    pub fn set_binary(&mut self, j: usize) {
        self.binaries[j] = true;
        self.lower[j] = Some(0.0);
        self.upper[j] = Some(1.0);
    }

    /// Sets a lower bound for a continuous variable.
    pub fn set_lower(&mut self, j: usize, v: f64) {
        self.lower[j] = Some(v);
    }

    /// Sets an upper bound for a continuous variable.
    pub fn set_upper(&mut self, j: usize, v: f64) {
        self.upper[j] = Some(v);
    }

    /// Adds the sparse constraint `Σ coeffs (rel) rhs`.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, rel: Rel, rhs: f64) {
        assert!(!rel.is_strict(), "MILP constraints must be non-strict");
        for &(j, _) in &coeffs {
            assert!(j < self.n);
        }
        self.rows.push((coeffs, rel, rhs));
    }

    /// Adds a dense constraint.
    pub fn add_dense(&mut self, a: &[f64], rel: Rel, rhs: f64) {
        assert_eq!(a.len(), self.n);
        let coeffs =
            a.iter().enumerate().filter(|(_, &c)| c != 0.0).map(|(j, &c)| (j, c)).collect();
        self.add_constraint(coeffs, rel, rhs);
    }

    /// Adds the big-M *indicator* row `v = 1 ⇒ a·x ≤ rhs`, encoded as
    /// `a·x ≤ rhs + M(1 − v)`.
    pub fn add_indicator_le(
        &mut self,
        v: usize,
        mut coeffs: Vec<(usize, f64)>,
        rhs: f64,
        big_m: f64,
    ) {
        assert!(self.binaries[v], "indicator variable must be binary");
        coeffs.push((v, big_m));
        self.add_constraint(coeffs, Rel::Le, rhs + big_m);
    }

    fn relaxation(&self, fixings: &[(usize, f64)]) -> LpProblem<f64> {
        let mut lp = LpProblem::new(self.n);
        for j in 0..self.n {
            if let Some(l) = self.lower[j] {
                lp.set_lower(j, l);
            }
            if let Some(u) = self.upper[j] {
                lp.set_upper(j, u);
            }
        }
        for (coeffs, rel, rhs) in &self.rows {
            lp.add_constraint(coeffs.clone(), *rel, *rhs);
        }
        for &(j, v) in fixings {
            lp.set_lower(j, v);
            lp.set_upper(j, v);
        }
        lp
    }

    /// Minimizes `objective·x` with the default configuration.
    pub fn minimize(&self, objective: &[f64]) -> MilpOutcome {
        self.solve(objective, Objective::Minimize, MilpConfig::default())
    }

    /// Maximizes `objective·x` with the default configuration.
    pub fn maximize(&self, objective: &[f64]) -> MilpOutcome {
        self.solve(objective, Objective::Maximize, MilpConfig::default())
    }

    /// Full solve entry point.
    pub fn solve(&self, objective: &[f64], sense: Objective, config: MilpConfig) -> MilpOutcome {
        self.solve_stats(objective, sense, config).0
    }

    /// [`MilpProblem::solve`] returning search statistics alongside the
    /// outcome (node counts for the benchmark harness and the ablation
    /// benches).
    pub fn solve_stats(
        &self,
        objective: &[f64],
        sense: Objective,
        config: MilpConfig,
    ) -> (MilpOutcome, MilpStats) {
        assert_eq!(objective.len(), self.n);
        // Internally minimize.
        let obj: Vec<f64> = match sense {
            Objective::Minimize => objective.to_vec(),
            Objective::Maximize => objective.iter().map(|c| -c).collect(),
        };
        let mut best: Option<(Vec<f64>, f64)> = None;
        let mut stats = MilpStats::default();
        let mut exhausted = false;
        let mut frontier = Frontier::new(config.node_order);
        frontier.push(f64::NEG_INFINITY, Vec::new());
        let mut saw_unbounded = false;

        while let Some((parent_bound, fixings)) = frontier.pop() {
            // A node whose parent bound already exceeds the incumbent can be
            // discarded without an LP solve (best-bound order makes this the
            // global termination test).
            if let Some((_, incumbent)) = &best {
                if parent_bound >= *incumbent - INT_TOL {
                    if config.node_order == NodeOrder::BestBound {
                        break; // all remaining nodes are at least as bad
                    }
                    continue;
                }
            }
            if stats.nodes >= config.max_nodes {
                exhausted = true;
                break;
            }
            stats.nodes += 1;
            let lp = self.relaxation(&fixings);
            match lp.solve(&obj, Objective::Minimize) {
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded => {
                    // With all binaries bounded this means the continuous part
                    // is unbounded, which fixing binaries cannot repair.
                    saw_unbounded = true;
                    break;
                }
                LpOutcome::Optimal { x, value } => {
                    if let Some((_, incumbent)) = &best {
                        if value >= *incumbent - INT_TOL {
                            continue; // bound prune
                        }
                    }
                    let branch_var = self.pick_branch_var(&x, &config.branch_priority);
                    match branch_var {
                        None => {
                            // Integral: round binaries exactly and accept.
                            let mut xi = x;
                            for j in 0..self.n {
                                if self.binaries[j] {
                                    xi[j] = xi[j].round();
                                }
                            }
                            best = Some((xi, value));
                            stats.incumbent_updates += 1;
                        }
                        Some(j) => {
                            if config.rounding_heuristic {
                                if let Some((hx, hv)) = self.round_and_repair(&x, &fixings, &obj) {
                                    stats.heuristic_lps += 1;
                                    if best.as_ref().is_none_or(|(_, inc)| hv < *inc - INT_TOL) {
                                        best = Some((hx, hv));
                                        stats.incumbent_updates += 1;
                                    }
                                }
                            }
                            // Explore the rounding suggested by the relaxation
                            // first (pushed last → popped first in DFS; order
                            // is irrelevant under best-bound).
                            let near = x[j].round().clamp(0.0, 1.0);
                            let far = 1.0 - near;
                            let mut a = fixings.clone();
                            a.push((j, far));
                            let mut b = fixings;
                            b.push((j, near));
                            frontier.push(value, a);
                            frontier.push(value, b);
                        }
                    }
                }
            }
        }
        let outcome = if saw_unbounded {
            MilpOutcome::Unbounded
        } else if exhausted {
            let best = best.map(|(x, v)| (x, Self::resign(v, sense)));
            MilpOutcome::BudgetExhausted { best }
        } else {
            match best {
                Some((x, v)) => MilpOutcome::Optimal { x, value: Self::resign(v, sense) },
                None => MilpOutcome::Infeasible,
            }
        };
        (outcome, stats)
    }

    fn resign(v: f64, sense: Objective) -> f64 {
        match sense {
            Objective::Minimize => v,
            Objective::Maximize => -v,
        }
    }

    /// The fractional binary to branch on: highest priority first, most
    /// fractional among equals. `None` when the relaxation is integral.
    fn pick_branch_var(&self, x: &[f64], priority: &[f64]) -> Option<usize> {
        let mut branch_var = None;
        let mut best_key = (f64::NEG_INFINITY, INT_TOL);
        for j in 0..self.n {
            if !self.binaries[j] {
                continue;
            }
            let frac = (x[j] - x[j].round()).abs();
            if frac <= INT_TOL {
                continue;
            }
            let prio = priority.get(j).copied().unwrap_or(0.0);
            if (prio, frac) > best_key {
                best_key = (prio, frac);
                branch_var = Some(j);
            }
        }
        branch_var
    }

    /// Rounding primal heuristic: fix every binary to the relaxation's
    /// rounded value, re-solve the LP over the continuous variables, and
    /// return the repaired point when feasible.
    fn round_and_repair(
        &self,
        x: &[f64],
        fixings: &[(usize, f64)],
        obj: &[f64],
    ) -> Option<(Vec<f64>, f64)> {
        let mut all: Vec<(usize, f64)> = fixings.to_vec();
        for j in 0..self.n {
            if self.binaries[j] && !fixings.iter().any(|&(fj, _)| fj == j) {
                all.push((j, x[j].round().clamp(0.0, 1.0)));
            }
        }
        match self.relaxation(&all).solve(obj, Objective::Minimize) {
            LpOutcome::Optimal { x: hx, value } => {
                let mut xi = hx;
                for j in 0..self.n {
                    if self.binaries[j] {
                        xi[j] = xi[j].round();
                    }
                }
                Some((xi, value))
            }
            _ => None,
        }
    }
}

/// The open-node container: a LIFO stack (depth-first) or a min-heap on the
/// parent relaxation bound (best-bound).
enum Frontier {
    Stack(Vec<(f64, Vec<(usize, f64)>)>),
    Heap(std::collections::BinaryHeap<HeapNode>),
}

struct HeapNode {
    bound: f64,
    fixings: Vec<(usize, f64)>,
}

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on bound: reverse the comparison (NaN-free by
        // construction: bounds come from finite LP optima or -inf roots).
        other.bound.total_cmp(&self.bound)
    }
}

impl Frontier {
    fn new(order: NodeOrder) -> Self {
        match order {
            NodeOrder::DepthFirst => Frontier::Stack(Vec::new()),
            NodeOrder::BestBound => Frontier::Heap(std::collections::BinaryHeap::new()),
        }
    }

    fn push(&mut self, bound: f64, fixings: Vec<(usize, f64)>) {
        match self {
            Frontier::Stack(s) => s.push((bound, fixings)),
            Frontier::Heap(h) => h.push(HeapNode { bound, fixings }),
        }
    }

    fn pop(&mut self) -> Option<(f64, Vec<(usize, f64)>)> {
        match self {
            Frontier::Stack(s) => s.pop(),
            Frontier::Heap(h) => h.pop().map(|n| (n.bound, n.fixings)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_binary_knapsack() {
        // max 10a + 6b + 4c s.t. a + b + c ≤ 2, 5a + 4b + 3c ≤ 8 → a,c = 1: 14
        // (a,b would score 16 but weighs 9 > 8).
        let mut m = MilpProblem::new(3);
        for j in 0..3 {
            m.set_binary(j);
        }
        m.add_dense(&[1.0, 1.0, 1.0], Rel::Le, 2.0);
        m.add_dense(&[5.0, 4.0, 3.0], Rel::Le, 8.0);
        match m.maximize(&[10.0, 6.0, 4.0]) {
            MilpOutcome::Optimal { x, value } => {
                assert!((value - 14.0).abs() < 1e-6);
                assert_eq!(x.iter().map(|v| v.round() as i64).collect::<Vec<_>>(), vec![1, 0, 1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fractional_lp_relaxation_forced_integral() {
        // max a + b s.t. a + b ≤ 1.5 with binaries: LP gives 1.5, MILP 1.
        let mut m = MilpProblem::new(2);
        m.set_binary(0);
        m.set_binary(1);
        m.add_dense(&[1.0, 1.0], Rel::Le, 1.5);
        match m.maximize(&[1.0, 1.0]) {
            MilpOutcome::Optimal { value, .. } => assert!((value - 1.0).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_binary_system() {
        let mut m = MilpProblem::new(2);
        m.set_binary(0);
        m.set_binary(1);
        m.add_dense(&[1.0, 1.0], Rel::Ge, 3.0);
        assert_eq!(m.minimize(&[1.0, 1.0]), MilpOutcome::Infeasible);
    }

    #[test]
    fn mixed_continuous_binary() {
        // min y s.t. y ≥ 2 − 3b, y ≥ 1 + b, b binary, y free.
        // b=0: y ≥ 2; b=1: y ≥ 2 → but b=0 gives max(2,1)=2; b=1 gives max(-1,2)=2.
        // Change: y ≥ 2 − 3b, y ≥ 0.5 + b → b=1: y ≥ max(−1, 1.5) = 1.5.
        let mut m = MilpProblem::new(2);
        m.set_binary(0);
        m.add_constraint(vec![(1, 1.0), (0, 3.0)], Rel::Ge, 2.0);
        m.add_constraint(vec![(1, 1.0), (0, -1.0)], Rel::Ge, 0.5);
        match m.minimize(&[0.0, 1.0]) {
            MilpOutcome::Optimal { x, value } => {
                assert!((value - 1.5).abs() < 1e-6);
                assert!((x[0] - 1.0).abs() < 1e-6);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn indicator_big_m() {
        // v=1 forces x ≤ 1; objective pushes x up to 10 otherwise.
        let mut m = MilpProblem::new(2);
        m.set_binary(0);
        m.set_lower(1, 0.0);
        m.set_upper(1, 10.0);
        m.add_indicator_le(0, vec![(1, 1.0)], 1.0, 100.0);
        // Force the indicator on.
        m.add_dense(&[1.0, 0.0], Rel::Ge, 1.0);
        match m.maximize(&[0.0, 1.0]) {
            MilpOutcome::Optimal { x, value } => {
                assert!((value - 1.0).abs() < 1e-6, "x should be capped at 1, got {x:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unbounded_detected() {
        let mut m = MilpProblem::new(1);
        assert_eq!(m.maximize(&[1.0]), MilpOutcome::Unbounded);
        m.set_upper(0, 5.0);
        match m.maximize(&[1.0]) {
            MilpOutcome::Optimal { value, .. } => assert!((value - 5.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut m = MilpProblem::new(6);
        for j in 0..6 {
            m.set_binary(j);
        }
        m.add_dense(&[1.0; 6], Rel::Le, 3.2);
        let out = m.solve(&[1.0; 6], Objective::Maximize, MilpConfig::with_max_nodes(1));
        assert!(matches!(out, MilpOutcome::BudgetExhausted { .. }));
    }

    #[test]
    fn best_bound_agrees_with_depth_first() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..20 {
            let n = rng.gen_range(3..8usize);
            let mut m = MilpProblem::new(n);
            for j in 0..n {
                m.set_binary(j);
            }
            for _ in 0..rng.gen_range(1..4usize) {
                let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-3i64..4) as f64).collect();
                m.add_dense(&a, Rel::Le, rng.gen_range(0i64..6) as f64);
            }
            let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-5i64..6) as f64).collect();
            let dfs = m.solve(&c, Objective::Maximize, MilpConfig::default());
            let bb = m.solve(
                &c,
                Objective::Maximize,
                MilpConfig { node_order: NodeOrder::BestBound, ..Default::default() },
            );
            match (dfs, bb) {
                (MilpOutcome::Optimal { value: a, .. }, MilpOutcome::Optimal { value: b, .. }) => {
                    assert!((a - b).abs() < 1e-6, "round {round}: dfs {a} vs best-bound {b}")
                }
                (MilpOutcome::Infeasible, MilpOutcome::Infeasible) => {}
                (a, b) => panic!("round {round}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn rounding_heuristic_preserves_optimality_and_reports_stats() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(78);
        for _ in 0..15 {
            let n = rng.gen_range(3..7usize);
            let mut m = MilpProblem::new(n + 1); // one continuous tail variable
            for j in 0..n {
                m.set_binary(j);
            }
            m.set_lower(n, 0.0);
            m.set_upper(n, 4.0);
            let a: Vec<f64> = (0..=n).map(|_| rng.gen_range(1i64..4) as f64).collect();
            m.add_dense(&a, Rel::Le, rng.gen_range(3i64..9) as f64);
            let mut c: Vec<f64> = (0..n).map(|_| rng.gen_range(-3i64..5) as f64).collect();
            c.push(1.0);
            let plain = m.solve(&c, Objective::Maximize, MilpConfig::default());
            let (heur, stats) = m.solve_stats(
                &c,
                Objective::Maximize,
                MilpConfig { rounding_heuristic: true, ..Default::default() },
            );
            assert!(stats.nodes >= 1);
            match (plain, heur) {
                (MilpOutcome::Optimal { value: a, .. }, MilpOutcome::Optimal { value: b, .. }) => {
                    assert!((a - b).abs() < 1e-6)
                }
                (a, b) => panic!("{a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn branch_priority_changes_exploration_not_answers() {
        let mut m = MilpProblem::new(4);
        for j in 0..4 {
            m.set_binary(j);
        }
        m.add_dense(&[2.0, 3.0, 4.0, 5.0], Rel::Le, 8.0);
        let c = [3.0, 4.0, 5.0, 6.0];
        let base = m.solve(&c, Objective::Maximize, MilpConfig::default());
        for prio in [vec![3.0, 2.0, 1.0, 0.0], vec![0.0, 0.0, 0.0, 9.0]] {
            let with = m.solve(
                &c,
                Objective::Maximize,
                MilpConfig { branch_priority: prio, ..Default::default() },
            );
            match (&base, &with) {
                (MilpOutcome::Optimal { value: a, .. }, MilpOutcome::Optimal { value: b, .. }) => {
                    assert!((a - b).abs() < 1e-6)
                }
                (a, b) => panic!("{a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn budget_exhausted_value_is_in_caller_sense() {
        // A maximize instance whose first incumbent arrives before the budget
        // runs out: the reported incumbent value must be in maximize sense.
        let mut m = MilpProblem::new(4);
        for j in 0..4 {
            m.set_binary(j);
        }
        m.add_dense(&[1.0; 4], Rel::Le, 3.5);
        let (out, _) = m.solve_stats(
            &[1.0; 4],
            Objective::Maximize,
            MilpConfig { max_nodes: 3, rounding_heuristic: true, ..Default::default() },
        );
        if let MilpOutcome::BudgetExhausted { best: Some((_, v)) } = out {
            assert!(v > 0.0, "maximize incumbent must be positive, got {v}");
        }
    }

    #[test]
    fn random_pure_binary_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for round in 0..25 {
            let n = rng.gen_range(2..7usize);
            let mrows = rng.gen_range(1..4usize);
            let mut m = MilpProblem::new(n);
            for j in 0..n {
                m.set_binary(j);
            }
            let mut rows = Vec::new();
            for _ in 0..mrows {
                let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-3i64..4) as f64).collect();
                let b = rng.gen_range(0i64..6) as f64;
                m.add_dense(&a, Rel::Le, b);
                rows.push((a, b));
            }
            let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-5i64..6) as f64).collect();
            // Brute force.
            let mut best: Option<f64> = None;
            for mask in 0u32..(1 << n) {
                let x: Vec<f64> = (0..n).map(|j| ((mask >> j) & 1) as f64).collect();
                if rows
                    .iter()
                    .all(|(a, b)| a.iter().zip(&x).map(|(ai, xi)| ai * xi).sum::<f64>() <= b + 1e-9)
                {
                    let v = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum::<f64>();
                    best = Some(best.map_or(v, |bv: f64| bv.max(v)));
                }
            }
            match (m.maximize(&c), best) {
                (MilpOutcome::Optimal { value, .. }, Some(bv)) => {
                    assert!((value - bv).abs() < 1e-6, "round {round}: {value} vs {bv}");
                }
                (MilpOutcome::Infeasible, None) => {}
                (got, want) => panic!("round {round}: {got:?} vs brute {want:?}"),
            }
        }
    }
}
