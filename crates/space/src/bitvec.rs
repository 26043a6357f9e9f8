//! Bit-packed boolean vectors for the discrete setting `({0,1}ⁿ, D_H)`.
//!
//! Hamming distances are computed with XOR + popcount over `u64` blocks, which
//! is the workhorse of the discrete benchmarks (Figure 5) and of the
//! brute-force oracles.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fixed-length vector over `{0,1}`, packed 64 components per word.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// The all-zeros vector of dimension `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec { len, words: vec![0; len.div_ceil(64)] }
    }

    /// The all-ones vector of dimension `len`.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for i in 0..len {
            v.set(i, true);
        }
        v
    }

    /// Builds a vector from booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Builds a vector from a `{0,1}` byte slice (any nonzero byte is 1).
    pub fn from_bits(bits: &[u8]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b != 0);
        }
        v
    }

    /// The vector of dimension `len` over packed `words` (see
    /// [`BitVec::words`]); the caller keeps bits past `len` zero.
    pub(crate) fn from_words(len: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        BitVec { len, words }
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// A borrowed view of the vector, the type a dataset row is read as.
    fn as_row(&self) -> BitRow<'_> {
        BitRow { len: self.len, words: &self.words }
    }

    /// Approximate heap footprint in bytes (packed words plus the vector
    /// header), used by the resource-accounting gauges.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.len() * std::mem::size_of::<u64>()
    }

    /// The packed words, 64 components per word (component `i` is bit
    /// `i % 64` of word `i / 64`); bits past the dimension are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// True iff the dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Component `i` (panics if out of range).
    pub fn get(&self, i: usize) -> bool {
        self.as_row().get(i)
    }

    /// Sets component `i`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range for dimension {}", self.len);
        if value {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Flips component `i`.
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range for dimension {}", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Returns a copy with component `i` flipped.
    pub fn with_flipped(&self, i: usize) -> BitVec {
        let mut v = self.clone();
        v.flip(i);
        v
    }

    /// Number of ones (the paper's "weight" of a row).
    pub fn weight(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance `d_H(self, other)`; panics on dimension mismatch.
    pub fn hamming(&self, other: &BitVec) -> usize {
        self.as_row().hamming(other)
    }

    /// Iterator over components as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Indices where `self` and `other` differ (the "diff map" of Figure 1).
    pub fn diff_indices(&self, other: &BitVec) -> Vec<usize> {
        self.as_row().diff_indices(other.as_row())
    }

    /// Concatenation of two vectors (used by the hardness constructions,
    /// which build points in blocks).
    pub fn concat(&self, other: &BitVec) -> BitVec {
        let mut out = BitVec::zeros(self.len + other.len);
        for i in 0..self.len {
            out.set(i, self.get(i));
        }
        for i in 0..other.len {
            out.set(self.len + i, other.get(i));
        }
        out
    }

    /// Conversion to a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// The `i`-th canonical basis vector `ᾱ_i` of dimension `len`.
    pub fn canonical(len: usize, i: usize) -> BitVec {
        let mut v = BitVec::zeros(len);
        v.set(i, true);
        v
    }
}

/// A borrowed boolean vector: one row of a packed word buffer, read with
/// [`BitVec`]'s read API. [`BooleanDataset`](crate::BooleanDataset) stores
/// its points as flat rows and hands them out as these views.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BitRow<'a> {
    len: usize,
    words: &'a [u64],
}

impl<'a> BitRow<'a> {
    /// The view of dimension `len` over packed `words`, whose bits past
    /// `len` are zero.
    #[inline]
    pub(crate) fn new(len: usize, words: &'a [u64]) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        BitRow { len, words }
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words, laid out as [`BitVec::words`].
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Component `i` (panics if out of range).
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range for dimension {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Hamming distance to `other`; panics on dimension mismatch.
    // Inlined across crates: it is the per-row call of every Hamming scan
    // loop, and an out-of-line call made classification slower than with
    // one `BitVec` per point.
    #[inline]
    pub fn hamming(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "hamming distance of mismatched dimensions");
        hamming_words(self.words, &other.words)
    }

    /// Indices where `self` and `other` differ (see [`BitVec::diff_indices`]).
    pub fn diff_indices(&self, other: BitRow<'_>) -> Vec<usize> {
        assert_eq!(self.len, other.len);
        (0..self.len).filter(|&i| self.get(i) != other.get(i)).collect()
    }

    /// Iterator over components as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + 'a {
        let row = *self;
        (0..row.len).map(move |i| row.get(i))
    }

    /// An owned copy.
    pub fn to_bitvec(&self) -> BitVec {
        BitVec { len: self.len, words: self.words.to_vec() }
    }
}

impl fmt::Debug for BitRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// The XOR/popcount kernel behind [`BitVec::hamming`], over packed words
/// (see [`BitVec::words`]) — for structures that store points as words.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones() as usize).sum()
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.as_row(), f)
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bools)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_flip() {
        let mut v = BitVec::zeros(130);
        assert_eq!(v.weight(), 0);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        assert_eq!(v.weight(), 3);
        v.flip(64);
        assert!(!v.get(64));
        assert_eq!(v.weight(), 2);
    }

    #[test]
    fn hamming_examples() {
        let a = BitVec::from_bits(&[1, 0, 1, 1, 0]);
        let b = BitVec::from_bits(&[0, 0, 1, 0, 1]);
        assert_eq!(a.hamming(&b), 3);
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(a.diff_indices(&b), vec![0, 3, 4]);
    }

    #[test]
    fn ones_weight() {
        assert_eq!(BitVec::ones(200).weight(), 200);
        assert_eq!(BitVec::ones(0).weight(), 0);
    }

    #[test]
    fn concat() {
        let a = BitVec::from_bits(&[1, 0]);
        let b = BitVec::from_bits(&[1, 1, 0]);
        let c = a.concat(&b);
        assert_eq!(c.to_bools(), vec![true, false, true, true, false]);
    }

    #[test]
    fn canonical_vectors() {
        let e2 = BitVec::canonical(4, 2);
        assert_eq!(e2.to_bools(), vec![false, false, true, false]);
        assert_eq!(e2.weight(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitVec::zeros(4).get(4);
    }

    proptest! {
        #[test]
        fn prop_hamming_is_metric(a in prop::collection::vec(any::<bool>(), 1..200),
                                  b in prop::collection::vec(any::<bool>(), 1..200),
                                  c in prop::collection::vec(any::<bool>(), 1..200)) {
            let n = a.len().min(b.len()).min(c.len());
            let (x, y, z) = (
                BitVec::from_bools(&a[..n]),
                BitVec::from_bools(&b[..n]),
                BitVec::from_bools(&c[..n]),
            );
            prop_assert_eq!(x.hamming(&y), y.hamming(&x));
            prop_assert_eq!(x.hamming(&x), 0);
            prop_assert!(x.hamming(&z) <= x.hamming(&y) + y.hamming(&z));
        }

        #[test]
        fn prop_hamming_matches_naive(a in prop::collection::vec(any::<bool>(), 1..300),
                                      b in prop::collection::vec(any::<bool>(), 1..300)) {
            let n = a.len().min(b.len());
            let x = BitVec::from_bools(&a[..n]);
            let y = BitVec::from_bools(&b[..n]);
            let naive = a[..n].iter().zip(&b[..n]).filter(|(p, q)| p != q).count();
            prop_assert_eq!(x.hamming(&y), naive);
        }

        #[test]
        fn prop_roundtrip(bools in prop::collection::vec(any::<bool>(), 0..300)) {
            prop_assert_eq!(BitVec::from_bools(&bools).to_bools(), bools);
        }

        #[test]
        fn prop_flip_changes_distance_by_one(bools in prop::collection::vec(any::<bool>(), 1..200),
                                             idx in any::<prop::sample::Index>()) {
            let v = BitVec::from_bools(&bools);
            let i = idx.index(bools.len());
            let w = v.with_flipped(i);
            prop_assert_eq!(v.hamming(&w), 1);
        }
    }
}
