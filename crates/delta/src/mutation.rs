//! The two dataset mutations and their append-only log.

use knn_space::{ContinuousDataset, Label};

/// A requested dataset mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Append a labeled point at the end of the dataset.
    Insert {
        /// The new point.
        point: Vec<f64>,
        /// Its label.
        label: Label,
    },
    /// Remove the point at index `id` (0-based, in dataset order). Later
    /// points shift down — the relative order of the survivors is preserved,
    /// which is what keeps a mutated dataset byte-identical to a fresh parse
    /// of its serialized text.
    Remove {
        /// The index to remove.
        id: usize,
    },
}

impl Mutation {
    /// Is this mutation applicable to `dataset`? Total and deterministic,
    /// so every holder of the same dataset accepts or rejects a mutation
    /// identically — the single source of truth for the engine and every
    /// replica of it:
    /// * inserts must match the dataset dimension and be finite;
    /// * removals must name an existing index and may not empty the dataset
    ///   (an empty dataset has no serialized form, which would break the
    ///   fresh-load oracle — and no dimension, which would break everything
    ///   else).
    pub fn validate(&self, dataset: &ContinuousDataset<f64>) -> Result<(), String> {
        match self {
            Mutation::Insert { point, .. } => {
                if point.len() != dataset.dim() {
                    return Err(format!(
                        "insert dimension {} does not match dataset dimension {}",
                        point.len(),
                        dataset.dim()
                    ));
                }
                if !point.iter().all(|v| v.is_finite()) {
                    return Err("insert point must be finite".into());
                }
            }
            Mutation::Remove { id } => {
                if *id >= dataset.len() {
                    return Err(format!(
                        "remove index {id} out of range ({} points)",
                        dataset.len()
                    ));
                }
                if dataset.len() == 1 {
                    return Err("cannot remove the last point of a dataset".into());
                }
            }
        }
        Ok(())
    }
}

/// A mutation as recorded in the log, after it was applied. Removals carry
/// the removed point and label (needed by cache revalidation and replica
/// replay once the point is gone from the dataset).
#[derive(Clone, Debug, PartialEq)]
pub enum AppliedMutation {
    /// An applied insert.
    Insert {
        /// The inserted point.
        point: Vec<f64>,
        /// Its label.
        label: Label,
    },
    /// An applied removal.
    Remove {
        /// The index that was removed.
        id: usize,
        /// The point that lived there.
        point: Vec<f64>,
        /// Its label.
        label: Label,
    },
}

impl AppliedMutation {
    /// The class this mutation touched — the only class whose per-class
    /// artifacts (neighbor indexes) it can invalidate.
    pub fn label(&self) -> Label {
        match self {
            AppliedMutation::Insert { label, .. } | AppliedMutation::Remove { label, .. } => *label,
        }
    }

    /// The point inserted or removed.
    pub fn point(&self) -> &[f64] {
        match self {
            AppliedMutation::Insert { point, .. } | AppliedMutation::Remove { point, .. } => point,
        }
    }

    /// True for inserts.
    pub fn is_insert(&self) -> bool {
        matches!(self, AppliedMutation::Insert { .. })
    }
}

/// The append-only mutation history of one dataset. Entry `i` (counting
/// from the log's [`MutationLog::base`]) is the mutation that took the
/// dataset from epoch `base + i` to `base + i + 1`, so
/// [`MutationLog::epoch`] (the current epoch) equals `base` plus the
/// retained length. Old entries may be [compacted](MutationLog::compact_before)
/// away once no consumer can ask about windows that far back; compaction
/// advances `base` without changing the epoch.
#[derive(Clone, Debug, Default)]
pub struct MutationLog {
    base: u64,
    entries: Vec<AppliedMutation>,
}

impl MutationLog {
    /// An empty log (epoch 0).
    pub fn new() -> MutationLog {
        MutationLog::default()
    }

    /// The epoch this log's dataset is at: the number of applied mutations
    /// (compacted ones included).
    pub fn epoch(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// The oldest epoch this log can still answer windows from.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Appends one applied mutation.
    pub fn push(&mut self, m: AppliedMutation) {
        self.entries.push(m);
    }

    /// Number of retained (uncompacted) entries.
    pub fn retained(&self) -> usize {
        self.entries.len()
    }

    /// Approximate heap bytes of the retained entries (each carries its
    /// point's coordinates so windows can be replayed).
    pub fn approx_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|m| std::mem::size_of::<AppliedMutation>() + std::mem::size_of_val(m.point()))
            .sum()
    }

    /// The mutations that take epoch `from` to epoch `to` (half-open:
    /// entries `from..to`), or `None` when `from` predates the compaction
    /// [`MutationLog::base`] — a partial window would be unsound to replay,
    /// so callers must treat `None` as "cannot revalidate". Entries
    /// appended after `to` (by mutations racing the caller's snapshot) are
    /// not included.
    pub fn range(&self, from: u64, to: u64) -> Option<&[AppliedMutation]> {
        if from < self.base {
            return None;
        }
        let lo = ((from - self.base) as usize).min(self.entries.len());
        let hi = (to.saturating_sub(self.base) as usize).min(self.entries.len());
        Some(&self.entries[lo..hi.max(lo)])
    }

    /// Drops every entry older than `epoch`, advancing the base — the
    /// memory bound for long-lived mutation streams. A `compact_before`
    /// beyond the current epoch clamps to it (empty log, epoch unchanged).
    pub fn compact_before(&mut self, epoch: u64) {
        let cut = epoch.clamp(self.base, self.epoch());
        self.entries.drain(..(cut - self.base) as usize);
        self.base = cut;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_epoch_counts_entries_and_range_is_half_open() {
        let mut log = MutationLog::new();
        assert_eq!(log.epoch(), 0);
        log.push(AppliedMutation::Insert { point: vec![1.0], label: Label::Positive });
        log.push(AppliedMutation::Remove { id: 0, point: vec![0.0], label: Label::Negative });
        assert_eq!(log.epoch(), 2);
        assert_eq!(log.range(0, 2).unwrap().len(), 2);
        assert_eq!(log.range(1, 2).unwrap().len(), 1);
        assert!(log.range(2, 2).unwrap().is_empty());
        assert!(log.range(5, 9).unwrap().is_empty(), "past-the-end windows are empty, not a panic");
        assert!(log.range(2, 1).unwrap().is_empty(), "inverted windows are empty");
        let last = &log.range(1, 2).unwrap()[0];
        assert!(last.point() == [0.0] && !last.is_insert());
    }

    fn seed() -> ContinuousDataset<f64> {
        ContinuousDataset::from_sets(
            vec![vec![1.0, 1.0], vec![1.0, 0.5]],
            vec![vec![0.0, 0.0], vec![0.0, 0.25]],
        )
    }

    #[test]
    fn validate_accepts_applicable_mutations() {
        let ds = seed();
        assert!(Mutation::Insert { point: vec![2.0, -0.0], label: Label::Positive }
            .validate(&ds)
            .is_ok());
        assert!(Mutation::Remove { id: 3 }.validate(&ds).is_ok());
    }

    #[test]
    fn validate_rejects_inapplicable_mutations() {
        let ds = seed();
        let wrong_dim = Mutation::Insert { point: vec![1.0], label: Label::Positive };
        let err = wrong_dim.validate(&ds).unwrap_err();
        assert_eq!(err, "insert dimension 1 does not match dataset dimension 2");
        for bad in [f64::NAN, f64::INFINITY] {
            let m = Mutation::Insert { point: vec![bad, 0.0], label: Label::Positive };
            assert_eq!(m.validate(&ds).unwrap_err(), "insert point must be finite");
        }
        let err = Mutation::Remove { id: 4 }.validate(&ds).unwrap_err();
        assert_eq!(err, "remove index 4 out of range (4 points)");
    }

    #[test]
    fn cannot_remove_the_last_point() {
        let one = ContinuousDataset::from_sets(vec![vec![1.0]], vec![]);
        let err = Mutation::Remove { id: 0 }.validate(&one).unwrap_err();
        assert!(err.contains("last point"), "{err}");
    }

    #[test]
    fn compaction_advances_the_base_without_changing_the_epoch() {
        let mut log = MutationLog::new();
        for i in 0..10 {
            log.push(AppliedMutation::Insert { point: vec![i as f64], label: Label::Positive });
        }
        log.compact_before(6);
        assert_eq!((log.epoch(), log.base(), log.retained()), (10, 6, 4));
        assert!(log.range(5, 10).is_none(), "pre-base windows are unanswerable, not partial");
        assert_eq!(log.range(6, 10).unwrap().len(), 4);
        assert_eq!(log.range(6, 10).unwrap()[0].point(), [6.0]);
        log.compact_before(99);
        assert_eq!((log.epoch(), log.base(), log.retained()), (10, 10, 0));
        log.push(AppliedMutation::Insert { point: vec![10.0], label: Label::Negative });
        assert_eq!(log.epoch(), 11);
        assert_eq!(log.range(10, 11).unwrap().len(), 1);
    }
}
