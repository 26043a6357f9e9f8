//! Exact nearest-neighbor search for the optimistic classifier of §2.
//!
//! The explanation algorithms only ever need *exact* k-NN answers — the
//! optimistic classifier's tie handling makes approximate search unsound —
//! and only one number per class: the `maj`-th smallest distance from the
//! query to that class. [`LpScan`] (dense `f64` points under any ℓp) and
//! [`HammingScan`] (bit-packed boolean points) answer it with a flat scan
//! and bounded selection, patchable one row at a time; they are the serving
//! engine's classification indexes (see [`flat`]).

#![warn(missing_docs)]

pub mod flat;

pub use flat::{HammingScan, LpScan};
