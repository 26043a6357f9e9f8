//! Labeled datasets `(S⁺, S⁻)` in the continuous and discrete settings.

use crate::bitvec::{BitRow, BitVec};
use crate::label::Label;
use crate::rows::Rows;
use knn_num::Field;
use serde::{Deserialize, Serialize};

/// A labeled dataset of real vectors (the continuous setting).
///
/// Points are stored densely, row-major in one coordinate buffer
/// ([`Rows`]); `S⁺`/`S⁻` are recovered through the labels. The paper allows
/// `S⁺ ∩ S⁻ ≠ ∅` only implicitly (distinct points); duplicated points are
/// permitted here and behave like multiplicities.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ContinuousDataset<F> {
    points: Rows<F>,
    labels: Vec<Label>,
}

impl<F: Field> ContinuousDataset<F> {
    /// An empty dataset of the given dimension.
    pub fn new(dim: usize) -> Self {
        ContinuousDataset { points: Rows::with_capacity(dim, 0), labels: Vec::new() }
    }

    /// Builds a dataset from explicit positive and negative example sets.
    pub fn from_sets(positives: Vec<Vec<F>>, negatives: Vec<Vec<F>>) -> Self {
        let dim = positives
            .first()
            .or(negatives.first())
            .map(|p| p.len())
            .expect("dataset needs at least one point");
        let mut ds = ContinuousDataset::new(dim);
        for p in positives {
            ds.push(p, Label::Positive);
        }
        for n in negatives {
            ds.push(n, Label::Negative);
        }
        ds
    }

    /// Appends a labeled point; panics on dimension mismatch.
    pub fn push(&mut self, point: Vec<F>, label: Label) {
        self.points.push(&point);
        self.labels.push(label);
    }

    /// Removes and returns the `i`-th labeled point; later points shift
    /// down, so the relative order of the survivors is preserved (the live
    /// dataset stays identical to a fresh parse of its serialized text —
    /// the mutation layers' oracle invariant). Panics when out of range.
    pub fn remove(&mut self, i: usize) -> (Vec<F>, Label) {
        (self.points.remove(i), self.labels.remove(i))
    }

    /// A copy with one labeled point appended — [`push`](Self::push) on a
    /// clone, at its exact final size ([`Rows::with_row`]).
    pub fn with_pushed(&self, point: &[F], label: Label) -> Self {
        let mut labels = Vec::with_capacity(self.len() + 1);
        labels.extend_from_slice(&self.labels);
        labels.push(label);
        ContinuousDataset { points: self.points.with_row(point), labels }
    }

    /// A copy without the `i`-th point — [`remove`](Self::remove) on a
    /// clone, at its exact final size ([`Rows::without_row`]).
    pub fn with_removed(&self, i: usize) -> Self {
        let points = self.points.without_row(i);
        let mut labels = Vec::with_capacity(self.len() - 1);
        labels.extend_from_slice(&self.labels[..i]);
        labels.extend_from_slice(&self.labels[i + 1..]);
        ContinuousDataset { points, labels }
    }

    /// The feature dimension `n`.
    pub fn dim(&self) -> usize {
        self.points.width()
    }

    /// Total number of points `|S⁺ ∪ S⁻|` (with multiplicity).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the dataset has no points.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The `i`-th point.
    pub fn point(&self, i: usize) -> &[F] {
        self.points.row(i)
    }

    /// The `i`-th label.
    pub fn label(&self, i: usize) -> Label {
        self.labels[i]
    }

    /// Iterator over `(point, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[F], Label)> + '_ {
        self.points.iter().zip(self.labels.iter().copied())
    }

    /// Indices of points with the given label.
    pub fn indices_of(&self, label: Label) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.labels[i] == label).collect()
    }

    /// Points with the given label, cloned into a vector.
    pub fn points_of(&self, label: Label) -> Vec<Vec<F>> {
        self.iter().filter(|&(_, l)| l == label).map(|(p, _)| p.to_vec()).collect()
    }

    /// The points with the given label as flat rows, in dataset order (the
    /// row-major counterpart of [`points_of`](Self::points_of)).
    pub fn rows_of(&self, label: Label) -> Rows<F> {
        let mut rows = Rows::with_capacity(self.dim(), self.count_of(label));
        for (p, _) in self.iter().filter(|&(_, l)| l == label) {
            rows.push(p);
        }
        rows
    }

    /// Number of points with the given label.
    pub fn count_of(&self, label: Label) -> usize {
        self.labels.iter().filter(|&&l| l == label).count()
    }

    /// The position of point `i` among the points of its own class, in
    /// dataset order (its row in [`rows_of`](Self::rows_of)).
    pub fn class_position(&self, i: usize) -> usize {
        let label = self.labels[i];
        self.labels[..i].iter().filter(|&&l| l == label).count()
    }

    /// Approximate heap footprint in bytes: the flat coordinate buffer plus
    /// the label array, nothing per point. Feeds the
    /// `knn_engine_bytes{component="dataset"}` gauge; an estimate, not an
    /// allocator-exact measurement.
    pub fn approx_bytes(&self) -> usize {
        self.points.approx_bytes() + self.labels.len() * std::mem::size_of::<Label>()
    }

    /// Converts all coordinates to another field (e.g. `Rat → f64`).
    pub fn map_field<G: Field>(&self, f: impl Fn(&F) -> G) -> ContinuousDataset<G> {
        ContinuousDataset { points: self.points.map(f), labels: self.labels.clone() }
    }
}

/// A labeled dataset of boolean vectors (the discrete setting).
///
/// Points are packed 64 components per word and stored as flat rows of
/// `⌈dim/64⌉` words in one buffer ([`Rows`]), like
/// [`ContinuousDataset`]'s coordinates; [`point`](Self::point) lends a row
/// out as a [`BitRow`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BooleanDataset {
    dim: usize,
    points: Rows<u64>,
    labels: Vec<Label>,
}

impl BooleanDataset {
    /// An empty dataset of the given dimension.
    pub fn new(dim: usize) -> Self {
        BooleanDataset { dim, points: Rows::with_capacity(dim.div_ceil(64), 0), labels: Vec::new() }
    }

    /// Builds a dataset from explicit positive and negative example sets.
    pub fn from_sets(positives: Vec<BitVec>, negatives: Vec<BitVec>) -> Self {
        let dim = positives
            .first()
            .or(negatives.first())
            .map(|p| p.len())
            .expect("dataset needs at least one point");
        let mut ds = BooleanDataset::new(dim);
        for p in positives {
            ds.push(p, Label::Positive);
        }
        for n in negatives {
            ds.push(n, Label::Negative);
        }
        ds
    }

    /// Appends a labeled point; panics on dimension mismatch.
    pub fn push(&mut self, point: BitVec, label: Label) {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        self.points.push(point.words());
        self.labels.push(label);
    }

    /// Removes and returns the `i`-th labeled point; later points shift
    /// down (order of survivors preserved, mirroring
    /// [`ContinuousDataset::remove`]). Panics when out of range.
    pub fn remove(&mut self, i: usize) -> (BitVec, Label) {
        (BitVec::from_words(self.dim, self.points.remove(i)), self.labels.remove(i))
    }

    /// A copy with one labeled point appended — [`push`](Self::push) on a
    /// clone, at its exact final size ([`Rows::with_row`]).
    pub fn with_pushed(&self, point: &BitVec, label: Label) -> Self {
        assert_eq!(point.len(), self.dim, "point dimension mismatch");
        let mut labels = Vec::with_capacity(self.len() + 1);
        labels.extend_from_slice(&self.labels);
        labels.push(label);
        BooleanDataset { dim: self.dim, points: self.points.with_row(point.words()), labels }
    }

    /// A copy without the `i`-th point — [`remove`](Self::remove) on a
    /// clone, at its exact final size ([`Rows::without_row`]).
    pub fn with_removed(&self, i: usize) -> Self {
        let points = self.points.without_row(i);
        let mut labels = Vec::with_capacity(self.len() - 1);
        labels.extend_from_slice(&self.labels[..i]);
        labels.extend_from_slice(&self.labels[i + 1..]);
        BooleanDataset { dim: self.dim, points, labels }
    }

    /// The feature dimension `n`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the dataset has no points.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The `i`-th point, borrowed from the row buffer.
    pub fn point(&self, i: usize) -> BitRow<'_> {
        BitRow::new(self.dim, self.points.row(i))
    }

    /// The `i`-th label.
    pub fn label(&self, i: usize) -> Label {
        self.labels[i]
    }

    /// Iterator over `(point, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BitRow<'_>, Label)> + '_ {
        self.points.iter().map(|w| BitRow::new(self.dim, w)).zip(self.labels.iter().copied())
    }

    /// Indices of points with the given label.
    pub fn indices_of(&self, label: Label) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.labels[i] == label).collect()
    }

    /// Points with the given label, cloned.
    pub fn points_of(&self, label: Label) -> Vec<BitVec> {
        self.iter().filter(|&(_, l)| l == label).map(|(p, _)| p.to_bitvec()).collect()
    }

    /// The packed rows of the points with the given label, in dataset order
    /// (the counterpart of [`ContinuousDataset::rows_of`]).
    pub fn rows_of(&self, label: Label) -> Rows<u64> {
        let mut rows = Rows::with_capacity(self.points.width(), self.count_of(label));
        for (p, _) in self.iter().filter(|&(_, l)| l == label) {
            rows.push(p.words());
        }
        rows
    }

    /// Number of points with the given label.
    pub fn count_of(&self, label: Label) -> usize {
        self.labels.iter().filter(|&&l| l == label).count()
    }

    /// Approximate heap footprint in bytes: the flat word buffer plus the
    /// label array, nothing per point; mirrors
    /// [`ContinuousDataset::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        self.points.approx_bytes() + self.labels.len() * std::mem::size_of::<Label>()
    }

    /// Views the dataset as a continuous one over a field (bits become 0/1),
    /// so the continuous algorithms can run on discrete data.
    pub fn to_continuous<F: Field>(&self) -> ContinuousDataset<F> {
        let mut ds = ContinuousDataset::new(self.dim);
        for (p, l) in self.iter() {
            ds.push(p.iter().map(|b| if b { F::one() } else { F::zero() }).collect(), l);
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_accessors() {
        let ds = ContinuousDataset::from_sets(
            vec![vec![0.0, 1.0], vec![1.0, 1.0]],
            vec![vec![0.0, 0.0]],
        );
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.count_of(Label::Positive), 2);
        assert_eq!(ds.count_of(Label::Negative), 1);
        assert_eq!(ds.indices_of(Label::Negative), vec![2]);
        assert_eq!(ds.point(0), &[0.0, 1.0]);
        assert_eq!(ds.label(2), Label::Negative);
    }

    #[test]
    fn exact_size_copies_match_push_and_remove() {
        let ds = ContinuousDataset::from_sets(
            vec![vec![0.0, 1.0], vec![1.0, 1.0]],
            vec![vec![0.0, 0.0], vec![2.0, 3.0]],
        );
        let grown = ds.with_pushed(&[4.0, 5.0], Label::Positive);
        let mut pushed = ds.clone();
        pushed.push(vec![4.0, 5.0], Label::Positive);
        assert_eq!(grown.iter().collect::<Vec<_>>(), pushed.iter().collect::<Vec<_>>());

        let shrunk = grown.with_removed(1);
        let mut removed = grown.clone();
        assert_eq!(removed.remove(1), (vec![1.0, 1.0], Label::Positive));
        assert_eq!(shrunk.iter().collect::<Vec<_>>(), removed.iter().collect::<Vec<_>>());

        // Class-local positions and rows follow dataset order.
        assert_eq!(grown.class_position(4), 2);
        assert_eq!(grown.class_position(3), 1);
        let rows = |l| grown.rows_of(l).iter().flatten().copied().collect::<Vec<f64>>();
        assert_eq!(rows(Label::Positive), vec![0.0, 1.0, 1.0, 1.0, 4.0, 5.0]);
        assert_eq!(rows(Label::Negative), vec![0.0, 0.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn continuous_dimension_checked() {
        let mut ds = ContinuousDataset::<f64>::new(2);
        ds.push(vec![1.0], Label::Positive);
    }

    #[test]
    fn boolean_accessors() {
        let ds = BooleanDataset::from_sets(
            vec![BitVec::from_bits(&[0, 1, 1])],
            vec![BitVec::from_bits(&[0, 0, 0]), BitVec::from_bits(&[1, 1, 1])],
        );
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.points_of(Label::Negative).len(), 2);
    }

    #[test]
    fn boolean_exact_size_copies_match_push_and_remove() {
        // 70 dims: two words per row, the second partly padding.
        let row = |s: usize| -> BitVec { (0..70).map(|i| (i * 7 + s * 13) % 5 < 2).collect() };
        let label = |s: usize| if s.is_multiple_of(3) { Label::Positive } else { Label::Negative };
        let mut ds = BooleanDataset::new(70);
        for s in 0..4 {
            ds.push(row(s), label(s));
        }
        let grown = ds.with_pushed(&row(4), label(4));
        let mut pushed = ds.clone();
        pushed.push(row(4), label(4));
        assert_eq!(grown, pushed);
        assert_eq!(grown.point(4).to_bitvec(), row(4));
        assert!(grown.points.is_exact_size() && grown.labels.capacity() == grown.len());

        // The first row, one in the middle and the last.
        for i in [0, 2, 4] {
            let shrunk = grown.with_removed(i);
            let mut removed = grown.clone();
            assert_eq!(removed.remove(i), (row(i), label(i)));
            assert_eq!(shrunk, removed);
            assert!(shrunk.points.is_exact_size() && shrunk.labels.capacity() == shrunk.len());
            let survivors: Vec<usize> = (0..5).filter(|&s| s != i).collect();
            for (at, &s) in survivors.iter().enumerate() {
                assert_eq!((shrunk.point(at).to_bitvec(), shrunk.label(at)), (row(s), label(s)));
            }
        }

        // One flat word buffer and the labels: no per-row header.
        assert_eq!(grown.approx_bytes(), 5 * 2 * 8 + 5 * std::mem::size_of::<Label>());
        let rows = grown.rows_of(Label::Positive);
        assert_eq!(rows.iter().collect::<Vec<_>>(), vec![row(0).words(), row(3).words()]);
    }

    #[test]
    fn boolean_to_continuous() {
        let ds = BooleanDataset::from_sets(
            vec![BitVec::from_bits(&[1, 0])],
            vec![BitVec::from_bits(&[0, 1])],
        );
        let c = ds.to_continuous::<f64>();
        assert_eq!(c.point(0), &[1.0, 0.0]);
        assert_eq!(c.point(1), &[0.0, 1.0]);
        assert_eq!(c.label(0), Label::Positive);
    }

    #[test]
    fn map_field_roundtrip() {
        use knn_num::Rat;
        let ds = ContinuousDataset::from_sets(vec![vec![0.5, -1.5]], vec![vec![2.0, 0.0]]);
        let exact = ds.map_field(|&v| Rat::from_f64(v));
        assert_eq!(exact.point(0)[0], Rat::frac(1, 2));
        assert_eq!(exact.point(1)[0], Rat::from_int(2i64));
    }
}
