//! Exact Hamming-ball enumeration around `x̄`, the first resort of the
//! discrete counterfactual and k ≥ 3 Check-SR routes before the §9.2 SAT
//! search.
//!
//! The paper's hardness results for the discrete setting (Thm 6, Thm 7)
//! grow with the dimension, but an answer at distance `d` is found after
//! `Σ_{r ≤ d} C(n, r)` classifications, and `d` is small on typical data.
//! [`first_flip`] tries the label flips of `x̄` over a set of free
//! coordinates in (number of flips, lexicographic flip set) order and stops
//! at the first candidate classified differently — the *canonical witness*
//! — or once the whole space is exhausted, or when the next radius would
//! exceed [`ENUMERATION_CAP`]. The cap counts work (distance evaluations),
//! not time, so the outcome is a pure function of (dataset, k, x̄, free).

use crate::classifier::BooleanKnn;
use knn_space::BitVec;

/// The most distance evaluations (candidates classified × dataset size)
/// [`first_flip`] spends; about 3.5k candidates at 300 points. A radius is
/// enumerated only if all of it fits under the cap.
pub const ENUMERATION_CAP: usize = 1 << 20;

/// Outcome of [`first_flip`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Flip {
    /// The canonical witness: the first label flip in (number of flips,
    /// lexicographic flip set) order, `d` flips from `x̄`.
    Found {
        /// The flipped point.
        y: BitVec,
        /// Its Hamming distance to `x̄`.
        d: usize,
    },
    /// No assignment of the free coordinates changes the label.
    Exhausted,
    /// The next radius would exceed [`ENUMERATION_CAP`]; every radius below
    /// `floor` has been ruled out.
    Capped {
        /// The smallest radius not enumerated.
        floor: usize,
    },
}

/// Enumerates the points that agree with `x` outside `free` (ascending
/// coordinate indices), nearest first, for the first one `knn` labels
/// differently from `x`.
pub fn first_flip(knn: &BooleanKnn<'_>, x: &BitVec, free: &[usize]) -> Flip {
    debug_assert!(free.windows(2).all(|w| w[0] < w[1]), "free coordinates must ascend");
    let points = knn.dataset().len();
    let label = knn.classify(x);
    let m = free.len();
    let mut spent = points;
    let mut ways = 1usize; // C(m, r), exact while it fits under the cap
    let mut y = x.clone();
    let mut pick: Vec<usize> = Vec::with_capacity(m);
    for r in 1..=m {
        ways = ways * (m - r + 1) / r;
        let cost = ways.saturating_mul(points);
        if spent.saturating_add(cost) > ENUMERATION_CAP {
            return Flip::Capped { floor: r };
        }
        spent += cost;
        // Positions into `free` of the flip set, lexicographically first.
        pick.clear();
        pick.extend(0..r);
        loop {
            for &p in &pick {
                y.flip(free[p]);
            }
            if knn.classify(&y) != label {
                return Flip::Found { y, d: r };
            }
            for &p in &pick {
                y.flip(free[p]);
            }
            // Advance to the next flip set: bump the last position that can
            // move and reset the ones after it.
            let Some(i) = (0..r).rev().find(|&i| pick[i] < m - r + i) else { break };
            pick[i] += 1;
            for j in i + 1..r {
                pick[j] = pick[j - 1] + 1;
            }
        }
    }
    Flip::Exhausted
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_space::{BooleanDataset, Label, OddK};

    #[test]
    fn flips_come_nearest_first_then_lexicographic() {
        // S⁺ = {011, 101, 111} (bit i = component i+1), the rest negative:
        // from 000 the flips at distance 2 are {0,1}, {0,2}, {1,2}; the
        // first positive one is {0,2} = 101.
        let to_bv = |v: [u8; 3]| BitVec::from_bits(&v);
        let pos = vec![to_bv([0, 1, 1]), to_bv([1, 0, 1]), to_bv([1, 1, 1])];
        let neg = (0..8u8)
            .map(|m| to_bv([m & 1, (m >> 1) & 1, (m >> 2) & 1]))
            .filter(|p| !pos.contains(p))
            .collect();
        let ds = BooleanDataset::from_sets(pos, neg);
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        let x = BitVec::zeros(3);
        assert_eq!(first_flip(&knn, &x, &[0, 1, 2]), Flip::Found { y: to_bv([1, 0, 1]), d: 2 });
        // With component 3 fixed at 0 every completion stays negative.
        assert_eq!(first_flip(&knn, &x, &[0, 1]), Flip::Exhausted);
        assert_eq!(first_flip(&knn, &x, &[]), Flip::Exhausted);
    }

    #[test]
    fn a_radius_is_enumerated_only_if_all_of_it_fits() {
        // One label everywhere: enumeration runs until the cap. At 64 dims
        // and 1024 points, x̄ (1024) and radius 1 (64 · 1024) fit, radius 2
        // (2016 · 1024) does not.
        let mut ds = BooleanDataset::new(64);
        for _ in 0..1024 {
            ds.push(BitVec::zeros(64), Label::Positive);
        }
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        let all: Vec<usize> = (0..64).collect();
        assert_eq!(first_flip(&knn, &BitVec::zeros(64), &all), Flip::Capped { floor: 2 });
        // Past the cap before radius 1: nothing is ruled out beyond x̄.
        for _ in 0..ENUMERATION_CAP / 64 {
            ds.push(BitVec::zeros(64), Label::Positive);
        }
        let knn = BooleanKnn::new(&ds, OddK::ONE);
        assert_eq!(first_flip(&knn, &BitVec::zeros(64), &all), Flip::Capped { floor: 1 });
    }
}
