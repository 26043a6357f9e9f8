//! The ℓp metrics of the continuous setting.
//!
//! All comparisons in the workspace are made on **p-th powers of distances**:
//! `‖x−y‖_p ≤ ‖x−z‖_p ⟺ Σ|xᵢ−yᵢ|^p ≤ Σ|xᵢ−zᵢ|^p`, which is rational-exact
//! whenever the coordinates are. No roots are ever taken on the exact path.

use knn_num::Field;
use serde::{Deserialize, Serialize};

/// The ℓp metric for a fixed integer `p ≥ 1` (the paper's `D_p`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LpMetric {
    p: u32,
}

impl LpMetric {
    /// ℓ1 (Manhattan) metric.
    pub const L1: LpMetric = LpMetric { p: 1 };
    /// ℓ2 (Euclidean) metric.
    pub const L2: LpMetric = LpMetric { p: 2 };

    /// Builds `ℓp`. Panics if `p == 0` (the paper requires integer `p > 0`).
    pub fn new(p: u32) -> Self {
        assert!(p >= 1, "ℓp metrics require p ≥ 1");
        LpMetric { p }
    }

    /// The exponent `p`.
    pub fn p(&self) -> u32 {
        self.p
    }

    /// `Σᵢ |aᵢ − bᵢ|^p` — the p-th power of the distance, exact over any field.
    ///
    /// ℓ1 and ℓ2 take the power inline (`d` and `d·d`, the values
    /// `pow_u32` computes as `1·d` and `1·(d·d)`), so the key is the same to
    /// the last bit while the hot loop stays branch-free.
    pub fn dist_pow<F: Field>(&self, a: &[F], b: &[F]) -> F {
        assert_eq!(a.len(), b.len(), "ℓp distance of mismatched dimensions");
        match self.p {
            1 => sum_terms(a, b, |d| d),
            2 => sum_terms(a, b, |d| d.clone() * d),
            p => sum_terms(a, b, |d| pow_u32(d, p)),
        }
    }

    /// The real distance as `f64` (for reporting / plotting only).
    pub fn dist_f64<F: Field>(&self, a: &[F], b: &[F]) -> f64 {
        self.dist_pow(a, b).to_f64().powf(1.0 / self.p as f64)
    }
}

/// `Σᵢ term(|aᵢ − bᵢ|)`, summed left to right from zero.
fn sum_terms<F: Field>(a: &[F], b: &[F], term: impl Fn(F) -> F) -> F {
    let mut acc = F::zero();
    for (x, y) in a.iter().zip(b) {
        acc = acc + term((x.clone() - y.clone()).abs());
    }
    acc
}

fn pow_u32<F: Field>(base: F, mut e: u32) -> F {
    let mut acc = F::one();
    let mut b = base;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * b.clone();
        }
        b = b.clone() * b;
        e >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_num::Rat;
    use proptest::prelude::*;

    #[test]
    fn l1_and_l2_known_values() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(LpMetric::L1.dist_pow(&a, &b), 7.0);
        assert_eq!(LpMetric::L2.dist_pow(&a, &b), 25.0);
        assert!((LpMetric::L2.dist_f64(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn exact_rational_distances() {
        let a = [Rat::frac(1, 2), Rat::frac(1, 3)];
        let b = [Rat::frac(0, 1), Rat::frac(1, 1)];
        assert_eq!(LpMetric::L1.dist_pow(&a, &b), Rat::frac(7, 6));
        assert_eq!(LpMetric::L2.dist_pow(&a, &b), Rat::frac(25, 36));
    }

    #[test]
    fn higher_p() {
        let m = LpMetric::new(3);
        assert_eq!(m.p(), 3);
        let a = [Rat::from_int(0i64)];
        let b = [Rat::from_int(-2i64)];
        assert_eq!(m.dist_pow(&a, &b), Rat::from_int(8i64));
    }

    #[test]
    #[should_panic(expected = "p ≥ 1")]
    fn p_zero_rejected() {
        LpMetric::new(0);
    }

    proptest! {
        #[test]
        fn prop_dist_pow_symmetric(a in prop::collection::vec(-100i64..100, 1..8),
                                   b in prop::collection::vec(-100i64..100, 1..8),
                                   p in 1u32..4) {
            let n = a.len().min(b.len());
            let av: Vec<Rat> = a[..n].iter().map(|&v| Rat::from_int(v)).collect();
            let bv: Vec<Rat> = b[..n].iter().map(|&v| Rat::from_int(v)).collect();
            let m = LpMetric::new(p);
            prop_assert_eq!(m.dist_pow(&av, &bv), m.dist_pow(&bv, &av));
        }

        #[test]
        fn prop_inline_powers_match_pow_u32(a in prop::collection::vec(-50.0f64..50.0, 1..40),
                                            b in prop::collection::vec(-50.0f64..50.0, 1..40),
                                            p in 1u32..3) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let generic = sum_terms(a, b, |d| pow_u32(d, p));
            prop_assert_eq!(LpMetric::new(p).dist_pow(a, b).to_bits(), generic.to_bits());
            let ra: Vec<Rat> = a.iter().map(|&v| Rat::from_f64(v)).collect();
            let rb: Vec<Rat> = b.iter().map(|&v| Rat::from_f64(v)).collect();
            prop_assert_eq!(
                LpMetric::new(p).dist_pow(&ra, &rb),
                sum_terms(&ra, &rb, |d| pow_u32(d, p))
            );
        }

        #[test]
        fn prop_identity_of_indiscernibles(a in prop::collection::vec(-100i64..100, 1..8),
                                           p in 1u32..4) {
            let av: Vec<Rat> = a.iter().map(|&v| Rat::from_int(v)).collect();
            prop_assert!(LpMetric::new(p).dist_pow(&av, &av).is_zero());
        }

        #[test]
        fn prop_l1_triangle_inequality(a in prop::collection::vec(-50i64..50, 3),
                                       b in prop::collection::vec(-50i64..50, 3),
                                       c in prop::collection::vec(-50i64..50, 3)) {
            let f = |v: &[i64]| -> Vec<Rat> { v.iter().map(|&x| Rat::from_int(x)).collect() };
            let (x, y, z) = (f(&a), f(&b), f(&c));
            let m = LpMetric::L1;
            // For p = 1 the p-th power *is* the distance, so the triangle
            // inequality holds on dist_pow directly.
            prop_assert!(m.dist_pow(&x, &z) <= m.dist_pow(&x, &y) + m.dist_pow(&y, &z));
        }
    }
}
