//! Cache revalidation: which cached answers provably survive a mutation.
//!
//! The optimistic k-NN rule classifies a query `x` by comparing, per class,
//! the `maj`-th order statistic of the distance multiset from `x` to that
//! class (`maj = (k+1)/2`; §2 of the paper). A cached `classify` answer
//! therefore survives a mutation window iff every mutation in the window
//! leaves both per-class statistics unchanged — which a cheap per-mutation
//! distance test certifies:
//!
//! * **insert** of `p` into class `c` with `d(x, p) ≥ statᶜ`: the first
//!   `maj` order statistics of class `c` are unchanged (a value at or past
//!   the `maj`-th smallest cannot displace it), and the other class is
//!   untouched;
//! * **remove** of `p` from class `c` with `d(x, p) > statᶜ` (strict: a
//!   removal *at* the statistic could have been the statistic): at least
//!   `maj` points at distance ≤ statᶜ remain, so the statistic — and the
//!   class's ≥ `maj` point count — is preserved;
//! * a class whose statistic was undefined at cache time (< `maj` points)
//!   stays undefined under removals and conservatively invalidates under
//!   inserts (the class could cross the majority threshold).
//!
//! The argument is inductive over the window: each passing mutation
//! preserves both statistics and their definedness, so the cached label is
//! exactly what a fresh engine at the new epoch would compute. Distances
//! are evaluated with the *same* `f64` kernels the neighbor indexes use
//! ([`LpMetric::dist_pow`]; popcount for Hamming), so the comparisons are
//! bit-faithful to what the index probes would see.
//!
//! Everything that is not a `classify` — sufficient reasons,
//! counterfactuals, checks — depends on global dataset structure with no
//! comparably cheap certificate, and conservatively invalidates on any
//! epoch change. The guard is an *optimization*, never a semantics: a
//! failed or absent guard only costs a recompute.

use crate::mutation::AppliedMutation;
use knn_space::{Label, LpMetric};

/// The distance key space a guard's statistics live in — matching the
/// neighbor index that produced them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardMetric {
    /// ℓp with the given exponent; statistics are p-th *powers* of
    /// distances (the class scans' comparison key).
    LpPow(u32),
    /// Hamming over {0,1}ⁿ; statistics are bit-flip counts.
    Hamming,
}

/// The survival certificate attached to a cached `classify` answer: the
/// query point and the per-class majority order statistics observed when
/// the answer was computed.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassifyGuard {
    /// The query point.
    pub point: Vec<f64>,
    /// The distance key space of the statistics.
    pub metric: GuardMetric,
    /// The request's `k` (odd).
    pub k: u32,
    /// The positive class's `maj`-th order statistic (`None`: fewer than
    /// `maj` positive points at cache time).
    pub pos: Option<f64>,
    /// The negative class's `maj`-th order statistic.
    pub neg: Option<f64>,
}

impl ClassifyGuard {
    /// Does the cached answer survive the mutation window `muts` (oldest
    /// first), with `final_len` points in the dataset at the target epoch?
    /// `final_len` covers the "dataset smaller than k" error boundary: a
    /// fresh engine would refuse the query there, so a cached label must
    /// not answer it.
    pub fn survives(&self, muts: &[AppliedMutation], final_len: usize) -> bool {
        if final_len < self.k as usize {
            return false;
        }
        for m in muts {
            let point = m.point();
            if point.len() != self.point.len() {
                return false; // defensive: mutations preserve dimension
            }
            let stat = match m.label() {
                Label::Positive => self.pos,
                Label::Negative => self.neg,
            };
            let Some(stat) = stat else {
                // Below the majority threshold at cache time: removals keep
                // it below (answer unchanged); inserts could cross it.
                if m.is_insert() {
                    return false;
                }
                continue;
            };
            let d = match self.metric {
                GuardMetric::LpPow(p) => LpMetric::new(p).dist_pow(&self.point, point),
                GuardMetric::Hamming => {
                    // A non-binary insert destroys the dataset's boolean
                    // view: a fresh engine would *error* on the Hamming
                    // route, so the cached label must not survive.
                    if point.iter().any(|&v| v != 0.0 && v != 1.0) {
                        return false;
                    }
                    self.point.iter().zip(point).filter(|(a, b)| a != b).count() as f64
                }
            };
            let preserved = if m.is_insert() { d >= stat } else { d > stat };
            if !preserved {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard(metric: GuardMetric, pos: Option<f64>, neg: Option<f64>) -> ClassifyGuard {
        ClassifyGuard { point: vec![0.0, 0.0, 0.0], metric, k: 1, pos, neg }
    }

    fn ins(point: &[f64], label: Label) -> AppliedMutation {
        AppliedMutation::Insert { point: point.to_vec(), label }
    }

    fn rem(point: &[f64], label: Label) -> AppliedMutation {
        AppliedMutation::Remove { id: 0, point: point.to_vec(), label }
    }

    #[test]
    fn far_mutations_survive_near_ones_invalidate() {
        // ℓ2 stats (squared): pos at 1.0, neg at 4.0 from the origin query.
        let g = guard(GuardMetric::LpPow(2), Some(1.0), Some(4.0));
        assert!(g.survives(&[ins(&[3.0, 0.0, 0.0], Label::Positive)], 10), "d²=9 ≥ 1");
        assert!(!g.survives(&[ins(&[0.5, 0.0, 0.0], Label::Positive)], 10), "d²=0.25 < 1");
        assert!(g.survives(&[rem(&[3.0, 0.0, 0.0], Label::Negative)], 10), "d²=9 > 4");
        assert!(!g.survives(&[rem(&[2.0, 0.0, 0.0], Label::Negative)], 10), "d²=4 not > 4 (tie)");
        assert!(g.survives(&[ins(&[1.0, 0.0, 0.0], Label::Positive)], 10), "insert tie d²=1 ≥ 1");
        // The whole window must pass.
        assert!(!g.survives(
            &[ins(&[3.0, 0.0, 0.0], Label::Positive), ins(&[0.1, 0.0, 0.0], Label::Negative)],
            10
        ));
    }

    #[test]
    fn undefined_class_statistic_blocks_inserts_allows_removes() {
        let g = guard(GuardMetric::LpPow(2), None, Some(4.0));
        assert!(!g.survives(&[ins(&[9.0, 9.0, 9.0], Label::Positive)], 10));
        assert!(g.survives(&[rem(&[9.0, 9.0, 9.0], Label::Positive)], 10));
    }

    #[test]
    fn hamming_guard_checks_bits_and_binaryness() {
        let g = guard(GuardMetric::Hamming, Some(1.0), Some(2.0));
        assert!(g.survives(&[ins(&[1.0, 1.0, 1.0], Label::Positive)], 10), "3 flips ≥ 1");
        assert!(g.survives(&[ins(&[1.0, 0.0, 0.0], Label::Positive)], 10), "1 flip ≥ 1 (tie)");
        assert!(!g.survives(&[ins(&[0.0, 0.0, 0.0], Label::Positive)], 10), "0 flips < 1");
        assert!(!g.survives(&[rem(&[0.0, 1.0, 0.0], Label::Negative)], 10), "removal needs > 2");
        assert!(g.survives(&[rem(&[1.0, 1.0, 1.0], Label::Negative)], 10), "3 flips > 2");
        assert!(!g.survives(&[ins(&[0.5, 0.0, 0.0], Label::Positive)], 10), "non-binary insert");
    }

    #[test]
    fn dataset_shrinking_below_k_invalidates() {
        let g = ClassifyGuard {
            point: vec![0.0],
            metric: GuardMetric::LpPow(2),
            k: 3,
            pos: Some(1.0),
            neg: Some(1.0),
        };
        assert!(!g.survives(&[], 2), "2 points < k = 3");
        assert!(g.survives(&[], 3));
    }
}
