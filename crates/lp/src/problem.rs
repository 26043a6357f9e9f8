//! Problem builder API for linear programs.

use knn_num::Field;

/// Relation of a linear constraint `a·x (rel) b`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
    /// `a·x < b` (strict; only usable through [`LpProblem::strict_feasible`])
    Lt,
    /// `a·x > b` (strict; only usable through [`LpProblem::strict_feasible`])
    Gt,
}

impl Rel {
    /// True for the strict relations.
    pub fn is_strict(self) -> bool {
        matches!(self, Rel::Lt | Rel::Gt)
    }
}

/// Optimization sense.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Objective {
    /// Maximize the objective vector.
    Maximize,
    /// Minimize the objective vector.
    Minimize,
}

#[derive(Clone, Debug)]
pub(crate) struct Row<F> {
    pub coeffs: Vec<(usize, F)>,
    pub rel: Rel,
    pub rhs: F,
}

/// Result of solving a linear program.
#[derive(Clone, Debug, PartialEq)]
pub enum LpOutcome<F> {
    /// An optimal solution (values of the structural variables) and its objective value.
    Optimal {
        /// The optimal assignment of the structural variables.
        x: Vec<F>,
        /// The objective value at `x`.
        value: F,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

impl<F: Field> LpOutcome<F> {
    /// The optimal point, if any.
    pub fn point(&self) -> Option<&[F]> {
        match self {
            LpOutcome::Optimal { x, .. } => Some(x),
            _ => None,
        }
    }

    /// True iff the outcome is `Optimal`.
    pub fn is_optimal(&self) -> bool {
        matches!(self, LpOutcome::Optimal { .. })
    }
}

/// A linear program over `n` free variables.
///
/// Variables are unrestricted in sign by default (the explanation polyhedra
/// live in all of `ℝⁿ`); lower/upper bounds can be attached per variable.
#[derive(Clone, Debug)]
pub struct LpProblem<F> {
    pub(crate) n: usize,
    pub(crate) rows: Vec<Row<F>>,
    pub(crate) lower: Vec<Option<F>>,
    pub(crate) upper: Vec<Option<F>>,
}

impl<F: Field> LpProblem<F> {
    /// Creates a program with `n` free variables.
    pub fn new(n: usize) -> Self {
        LpProblem { n, rows: Vec::new(), lower: vec![None; n], upper: vec![None; n] }
    }

    /// Number of structural variables.
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// Number of constraints added so far.
    pub fn n_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Adds a sparse constraint `Σ coeffs[i].1 · x_{coeffs[i].0} (rel) rhs`.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, F)>, rel: Rel, rhs: F) {
        for &(j, _) in &coeffs {
            assert!(j < self.n, "variable index {j} out of range");
        }
        self.rows.push(Row { coeffs, rel, rhs });
    }

    /// Adds a dense constraint `a·x (rel) rhs`.
    pub fn add_dense(&mut self, a: &[F], rel: Rel, rhs: F) {
        assert_eq!(a.len(), self.n);
        let coeffs = a
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(j, c)| (j, c.clone()))
            .collect();
        self.rows.push(Row { coeffs, rel, rhs });
    }

    /// Sets a lower bound `x_j ≥ v`.
    pub fn set_lower(&mut self, j: usize, v: F) {
        self.lower[j] = Some(v);
    }

    /// Sets an upper bound `x_j ≤ v`.
    pub fn set_upper(&mut self, j: usize, v: F) {
        self.upper[j] = Some(v);
    }

    /// True iff any constraint is strict.
    pub fn has_strict(&self) -> bool {
        self.rows.iter().any(|r| r.rel.is_strict())
    }
}
