//! A dataset with a monotone epoch and its append-only mutation log.

use crate::mutation::{AppliedMutation, Mutation, MutationLog};
use knn_space::{ContinuousDataset, Label};

/// A [`ContinuousDataset`] wrapped with a monotone epoch and the
/// [`MutationLog`] that produced it from its seed state.
///
/// The governing invariant (pinned by the differential tests up the stack):
/// at every epoch, [`VersionedDataset::to_text`] serializes to a dataset
/// file whose fresh parse is point-for-point, order-for-order identical to
/// the live dataset. Inserts append; removals shift later points down.
/// Every order-sensitive computation downstream (class-index rows,
/// region enumeration, witness selection) therefore sees the same input a
/// freshly loaded engine would, which is what makes a fresh load the
/// byte-level oracle for a mutated engine.
#[derive(Clone, Debug)]
pub struct VersionedDataset {
    data: ContinuousDataset<f64>,
    log: MutationLog,
}

impl VersionedDataset {
    /// Wraps `data` at epoch 0 with an empty log.
    pub fn new(data: ContinuousDataset<f64>) -> VersionedDataset {
        VersionedDataset { data, log: MutationLog::new() }
    }

    /// The current epoch (number of mutations applied since the seed).
    pub fn epoch(&self) -> u64 {
        self.log.epoch()
    }

    /// The dataset at the current epoch.
    pub fn dataset(&self) -> &ContinuousDataset<f64> {
        &self.data
    }

    /// The mutation history.
    pub fn log(&self) -> &MutationLog {
        &self.log
    }

    /// Applies one mutation, bumping the epoch. Returns the applied record
    /// (for removals: with the removed point captured). Validation is
    /// [`Mutation::validate`] — total and deterministic, so every replica
    /// of a dataset accepts or rejects the same mutation identically.
    pub fn apply(&mut self, m: Mutation) -> Result<&AppliedMutation, String> {
        m.validate(&self.data)?;
        match m {
            Mutation::Insert { point, label } => {
                self.data.push(point.clone(), label);
                self.log.push(AppliedMutation::Insert { point, label });
            }
            Mutation::Remove { id } => {
                let (point, label) = self.data.remove(id);
                self.log.push(AppliedMutation::Remove { id, point, label });
            }
        }
        Ok(self.log.entries().last().expect("just pushed"))
    }

    /// Serializes the current dataset in the `+/-` text format, one point
    /// per line. See [`dataset_text`].
    pub fn to_text(&self) -> String {
        dataset_text(&self.data)
    }

    /// Approximate heap bytes of the live dataset (excluding the log — the
    /// resource gauges report the two separately, since log growth is
    /// bounded by compaction policy rather than dataset size).
    pub fn approx_bytes(&self) -> usize {
        self.data.approx_bytes()
    }
}

/// Renders a dataset in the `+/-`-labeled text format the serving layers'
/// `load` verb takes. Floats print with Rust's shortest-roundtrip `Display`,
/// so parsing the text back yields bit-identical coordinates.
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

    fn seed() -> ContinuousDataset<f64> {
        ContinuousDataset::from_sets(
            vec![vec![1.0, 1.0], vec![1.0, 0.5]],
            vec![vec![0.0, 0.0], vec![0.0, 0.25]],
        )
    }

    #[test]
    fn apply_bumps_epoch_and_preserves_order() {
        let mut v = VersionedDataset::new(seed());
        assert_eq!(v.epoch(), 0);
        v.apply(Mutation::Insert { point: vec![2.0, 2.0], label: Label::Positive }).unwrap();
        assert_eq!(v.epoch(), 1);
        assert_eq!(v.dataset().point(4), &[2.0, 2.0], "insert appends");
        let applied = v.apply(Mutation::Remove { id: 1 }).unwrap().clone();
        assert_eq!(applied.point(), &[1.0, 0.5], "removal captures the removed point");
        assert_eq!(applied.label(), Label::Positive);
        assert_eq!(v.epoch(), 2);
        assert_eq!(v.dataset().len(), 4);
        assert_eq!(v.dataset().point(1), &[0.0, 0.0], "later points shift down");
    }

    #[test]
    fn invalid_mutations_are_rejected_without_state_change() {
        let mut v = VersionedDataset::new(seed());
        assert!(v.apply(Mutation::Insert { point: vec![1.0], label: Label::Positive }).is_err());
        assert!(v
            .apply(Mutation::Insert { point: vec![f64::NAN, 0.0], label: Label::Positive })
            .is_err());
        assert!(v.apply(Mutation::Remove { id: 4 }).is_err());
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.dataset().len(), 4);
    }

    #[test]
    fn cannot_remove_the_last_point() {
        let mut v =
            VersionedDataset::new(ContinuousDataset::from_sets(vec![vec![1.0]], vec![vec![0.0]]));
        v.apply(Mutation::Remove { id: 0 }).unwrap();
        let err = v.apply(Mutation::Remove { id: 0 }).unwrap_err();
        assert!(err.contains("last point"), "{err}");
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let mut v = VersionedDataset::new(ContinuousDataset::from_sets(
            vec![vec![0.1, -2.5], vec![1.0, 3.0000000001]],
            vec![vec![-0.0, 1e-9]],
        ));
        v.apply(Mutation::Insert { point: vec![0.30000000000000004, 7.0], label: Label::Negative })
            .unwrap();
        let text = v.to_text();
        // Parse it back by hand (the full parser lives in knn-engine, above
        // this crate) and compare bit-for-bit.
        for (line, (point, label)) in text.lines().zip(v.dataset().iter()) {
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
