//! Convex quadratic programming for the `explainable-knn` workspace.
//!
//! The only QP shape the paper needs (Theorem 2, Corollary 2) is the
//! *projection problem*: minimize `‖x − y‖²` subject to `Gy ≤ h`.
//! Kozlov–Tarasov–Khachiyan polynomial solvability justifies the complexity
//! claims; operationally we use the textbook active-set method for strictly
//! convex QPs (Nocedal & Wright, Alg. 16.3), which terminates finitely and —
//! instantiated with exact rationals — exactly.
//!
//! The solver is generic over [`knn_num::Field`]: `Rat` is the ground truth in
//! tests and small instances, `f64` is the benchmarking path (Figure 6b).
//!
//! ```
//! use knn_qp::{Polyhedron, project_onto_polyhedron, QpOutcome};
//!
//! // Project the origin onto the halfplane x + y ≥ 2 (i.e. −x − y ≤ −2).
//! let mut poly = Polyhedron::<f64>::whole_space(2);
//! poly.add_le(vec![-1.0, -1.0], -2.0);
//! match project_onto_polyhedron(&[0.0, 0.0], &poly) {
//!     QpOutcome::Optimal { y, dist_sq } => {
//!         assert!((y[0] - 1.0).abs() < 1e-9 && (y[1] - 1.0).abs() < 1e-9);
//!         assert!((dist_sq - 2.0).abs() < 1e-9);
//!     }
//!     QpOutcome::Infeasible => unreachable!(),
//! }
//! ```

#![warn(missing_docs)]

pub mod linalg;
pub mod polyhedron;
pub mod solver;

pub use polyhedron::Polyhedron;
pub use solver::{project_onto_polyhedron, project_onto_polyhedron_from, QpOutcome};

/// Thread-local work tally for resource accounting (mirrors
/// `knn_lp::tally`): every projection solve bumps a non-atomic thread-local
/// counter that serving layers sample around a query's compute phase.
pub mod tally {
    use std::cell::Cell;

    thread_local! {
        static QP_SOLVES: Cell<u64> = const { Cell::new(0) };
    }

    /// Monotonic count of QP projection solves started on this thread.
    pub fn qp_solves() -> u64 {
        QP_SOLVES.with(|c| c.get())
    }

    pub(crate) fn bump_qp_solves() {
        QP_SOLVES.with(|c| c.set(c.get().wrapping_add(1)));
    }
}
