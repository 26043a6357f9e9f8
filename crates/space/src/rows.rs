//! Fixed-width rows stored row-major in one buffer.
//!
//! The layout behind [`ContinuousDataset`](crate::ContinuousDataset) and the
//! serving engine's per-class scans: row `i` is `data[i·width .. (i+1)·width]`,
//! so a copy is one contiguous copy and a scan walks memory in order. The
//! row count is kept explicitly, so zero-width rows still count.

use serde::{Deserialize, Serialize};

/// `len` rows of `width` elements each, row-major in one buffer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rows<T> {
    width: usize,
    len: usize,
    data: Vec<T>,
}

impl<T: Clone> Rows<T> {
    /// No rows, with room for `rows` of them allocated up front.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        Rows { width, len: 0, data: Vec::with_capacity(width * rows) }
    }

    /// Elements per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`; panics when out of range.
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.len, "row {i} out of range for {} rows", self.len);
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        // `chunks_exact` walks the rows without a bounds check per row, which
        // the scan loops measurably gain from. It needs a nonzero width;
        // zero-width rows are all the empty slice.
        let empty = if self.width == 0 { self.len } else { 0 };
        self.data.chunks_exact(self.width.max(1)).chain(std::iter::repeat_n(&self.data[..0], empty))
    }

    /// Appends a row; panics when its width is wrong.
    pub fn push(&mut self, row: &[T]) {
        assert_eq!(row.len(), self.width, "row dimension mismatch");
        self.data.extend_from_slice(row);
        self.len += 1;
    }

    /// Removes and returns row `i`; later rows shift down.
    pub fn remove(&mut self, i: usize) -> Vec<T> {
        assert!(i < self.len, "row {i} out of range for {} rows", self.len);
        self.len -= 1;
        self.data.drain(i * self.width..(i + 1) * self.width).collect()
    }

    /// A copy with `row` appended — [`push`](Self::push) on a clone, but
    /// allocated at its exact final size (a clone followed by a push would
    /// double the buffer's capacity).
    pub fn with_row(&self, row: &[T]) -> Self {
        assert_eq!(row.len(), self.width, "row dimension mismatch");
        let mut next = Rows::with_capacity(self.width, self.len + 1);
        next.data.extend_from_slice(&self.data);
        next.data.extend_from_slice(row);
        next.len = self.len + 1;
        next
    }

    /// A copy without row `i` — [`remove`](Self::remove) on a clone,
    /// allocated at its exact final size.
    pub fn without_row(&self, i: usize) -> Self {
        assert!(i < self.len, "row {i} out of range for {} rows", self.len);
        let at = i * self.width;
        let mut next = Rows::with_capacity(self.width, self.len - 1);
        next.data.extend_from_slice(&self.data[..at]);
        next.data.extend_from_slice(&self.data[at + self.width..]);
        next.len = self.len - 1;
        next
    }

    /// Every element mapped through `f`, same shape.
    pub fn map<G>(&self, f: impl Fn(&T) -> G) -> Rows<G> {
        Rows { width: self.width, len: self.len, data: self.data.iter().map(f).collect() }
    }

    /// Heap footprint in bytes: the one element buffer, nothing per row.
    pub fn approx_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// True iff the buffer holds no spare capacity.
    #[cfg(test)]
    pub(crate) fn is_exact_size(&self) -> bool {
        self.data.capacity() == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_size_copies_match_push_and_remove() {
        let mut rows = Rows::with_capacity(2, 3);
        for r in [[0, 1], [2, 3], [4, 5]] {
            rows.push(&r);
        }
        let grown = rows.with_row(&[6, 7]);
        let mut pushed = rows.clone();
        pushed.push(&[6, 7]);
        assert_eq!(grown, pushed);
        assert_eq!(grown.data.capacity(), grown.data.len(), "no doubled buffer");

        let shrunk = grown.without_row(1);
        let mut removed = grown.clone();
        assert_eq!(removed.remove(1), vec![2, 3]);
        assert_eq!(shrunk, removed);
        assert_eq!(shrunk.data.capacity(), shrunk.data.len());
        assert_eq!(shrunk.iter().collect::<Vec<_>>(), vec![&[0, 1], &[4, 5], &[6, 7]]);
    }

    #[test]
    fn zero_width_rows_still_count() {
        let mut rows = Rows::<f64>::with_capacity(0, 0);
        rows.push(&[]);
        rows.push(&[]);
        assert_eq!((rows.len(), rows.iter().count()), (2, 2));
        assert_eq!(rows.without_row(0).len(), 1);
    }
}
