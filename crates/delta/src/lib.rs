//! # knn-delta — live dataset mutation with versioned artifacts
//!
//! k-NN is instance-based: the dataset *is* the model, so inserting or
//! removing one point can flip classifications and silently invalidate
//! every cached abductive/counterfactual answer. Before this crate, the
//! only way to change a point in a served tenant was a full reload that
//! threw away every artifact and cache entry. This crate supplies the
//! machinery that lets the serving layers mutate datasets *live*:
//!
//! * [`Mutation`] / [`AppliedMutation`] — the two mutations (`insert` a
//!   labeled point at the end, `remove` the point at an index) as requested
//!   and as recorded. [`Mutation::validate`] decides, totally and
//!   deterministically, whether a mutation applies, so every replica of a
//!   dataset accepts or refuses it alike. The applied form of a removal
//!   carries the removed point and label, because cache revalidation needs
//!   to know *what* left the dataset after it is gone.
//! * [`MutationLog`] — the append-only history. The **epoch** of a dataset
//!   is exactly the number of mutations applied since it was loaded, so a
//!   log index *is* an epoch transition: entry `i` takes the dataset from
//!   epoch `i` to `i + 1`.
//! * [`dataset_text`] — the `+/-` text of a dataset. Mutations preserve the
//!   order of the surviving points (`insert` appends, `remove` shifts
//!   down), so the text of a mutated dataset parses back point-for-point
//!   identical to it — the property that makes a freshly loaded engine
//!   usable as a byte-level differential oracle for any mutated engine.
//! * [`ClassifyGuard`] — the cache-revalidation calculus. A cached
//!   `classify` answer survives a mutation window iff every mutation
//!   provably leaves both per-class majority order statistics unchanged
//!   (see the module docs of [`guard`]); everything else conservatively
//!   invalidates.
//!
//! The engine (`knn-engine`) holds each tenant's dataset and log, keys its
//! artifact store and explanation cache by epoch, and uses this crate to
//! invalidate *selectively*: a mutation of one class drops only that
//! class's neighbor indexes, and cache entries for old epochs are
//! revalidated or lazily evicted instead of wholesale cleared. The network
//! layers (`knn-server`, `knn-cluster`) forward `insert` / `remove` verbs
//! and replay logs onto amnesiac replicas; the wire encoding of a mutation
//! is `knn_engine::bundle::mutation_to_op`.

#![warn(missing_docs)]

pub mod guard;
pub mod mutation;

pub use guard::{ClassifyGuard, GuardMetric};
pub use mutation::{AppliedMutation, Mutation, MutationLog};

use knn_space::{ContinuousDataset, Label};

/// Renders a dataset in the `+/-`-labeled text format the serving layers'
/// `load` verb takes, one point per line in dataset order. Floats print
/// with Rust's shortest-roundtrip `Display`, so parsing the text back
/// yields bit-identical coordinates.
pub fn dataset_text(ds: &ContinuousDataset<f64>) -> String {
    let mut out = String::new();
    for (point, label) in ds.iter() {
        out.push(if label == Label::Positive { '+' } else { '-' });
        for v in point {
            out.push(' ');
            out.push_str(&format!("{v}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip_is_exact() {
        let mut ds = ContinuousDataset::from_sets(
            vec![vec![0.1, -2.5], vec![1.0, 3.0000000001]],
            vec![vec![-0.0, 1e-9]],
        );
        ds.push(vec![0.30000000000000004, 7.0], Label::Negative);
        ds.remove(0);
        let text = dataset_text(&ds);
        assert_eq!(text.lines().count(), ds.len());
        // Parse it back by hand (the full parser lives in knn-engine, above
        // this crate) and compare bit-for-bit.
        for (line, (point, label)) in text.lines().zip(ds.iter()) {
            let mut toks = line.split_whitespace();
            let lab = toks.next().unwrap();
            assert_eq!(lab == "+", label == Label::Positive);
            let parsed: Vec<f64> = toks.map(|t| t.parse().unwrap()).collect();
            assert_eq!(parsed.len(), point.len());
            for (a, b) in parsed.iter().zip(point) {
                assert_eq!(a.to_bits(), b.to_bits(), "line {line:?}");
            }
        }
    }
}
