//! Bounded order-statistic selection.
//!
//! The optimistic rule of §2 decides a label from one number per class: the
//! `maj`-th smallest distance from the query to that class. [`SmallestK`]
//! keeps only the `k` smallest keys of a stream, so that number costs one
//! pass and `O(k)` memory instead of collecting and sorting every distance.
//! Keys need only `PartialOrd`, so p-th powers of distances (exact over
//! `Rat`) and integer Hamming distances both work.

/// The `k` smallest keys pushed so far, kept in ascending order.
#[derive(Clone, Debug)]
pub struct SmallestK<D> {
    k: usize,
    keys: Vec<D>,
}

impl<D: PartialOrd> SmallestK<D> {
    /// An empty selection of the `k ≥ 1` smallest keys.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "selection needs k ≥ 1");
        SmallestK { k, keys: Vec::with_capacity(k) }
    }

    /// Offers one key. A key equal to the current `k`-th smallest changes
    /// nothing: the `k`-th smallest *value* is the same either way.
    pub fn push(&mut self, key: D) {
        if self.keys.len() == self.k {
            match self.keys.last() {
                Some(worst) if key < *worst => {
                    self.keys.pop();
                }
                _ => return,
            }
        }
        let at = self.keys.partition_point(|e| *e <= key);
        self.keys.insert(at, key);
    }

    /// The `k`-th smallest key pushed, or `None` when fewer than `k` were.
    pub fn kth(mut self) -> Option<D> {
        (self.keys.len() == self.k).then(|| self.keys.pop()).flatten()
    }
}

/// The `k`-th smallest (1-based) of `keys`, or `None` when there are fewer
/// than `k` of them — the `k`-th entry of the ascending sort, in one pass.
pub fn kth_smallest<D: PartialOrd>(keys: impl IntoIterator<Item = D>, k: usize) -> Option<D> {
    let mut sel = SmallestK::new(k);
    for key in keys {
        sel.push(key);
    }
    sel.kth()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kth_of_a_stream_with_ties() {
        let keys = [5, 1, 3, 1, 4, 3, 9];
        assert_eq!(kth_smallest(keys, 1), Some(1));
        assert_eq!(kth_smallest(keys, 2), Some(1));
        assert_eq!(kth_smallest(keys, 3), Some(3));
        assert_eq!(kth_smallest(keys, 5), Some(4));
        assert_eq!(kth_smallest(keys, 7), Some(9));
        assert_eq!(kth_smallest(keys, 8), None);
        assert_eq!(kth_smallest(Vec::<f64>::new(), 1), None);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn zero_k_is_refused() {
        SmallestK::<u8>::new(0);
    }
}
