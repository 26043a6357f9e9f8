//! Validity of served ℓ2 counterfactual witnesses in `f64`: a counterfactual
//! must change the outcome. On random `f64` data at k = 1, the witness the
//! serving path returns (`closest` under the engine's radius rule, just past
//! the infimum, over a shared `LazyRegions` view) must classify as the
//! opposite of the query under the plain `f64` classifier and lie inside the
//! served radius. The infimum and witness must also be bit-identical to
//! separate `infimum` and `within` walks, which `prop_regions_lazy` checks
//! only in `Rat`. A projection onto the closed positive region lands on a
//! bisector, where rounding alone can leave it on the query's side; the
//! interior nudge is what makes it flip.

use knn_core::counterfactual::l2::L2Counterfactual;
use knn_core::regions::LazyRegions;
use knn_core::ContinuousKnn;
use knn_space::{ContinuousDataset, Label, LpMetric, OddK};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Instance {
    pos: Vec<Vec<f64>>,
    neg: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (1..=6usize).prop_flat_map(|dim| {
        let pt = move || prop::collection::vec(0.0..1.0f64, dim);
        (
            prop::collection::vec(pt(), 1..=20),
            prop::collection::vec(pt(), 1..=20),
            prop::collection::vec(pt(), 1..=4),
        )
            .prop_map(|(pos, neg, queries)| Instance { pos, neg, queries })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn served_witnesses_flip_the_f64_label(inst in instance_strategy()) {
        let ds = ContinuousDataset::from_sets(inst.pos.clone(), inst.neg.clone());
        let k = OddK::ONE;
        let regions = LazyRegions::new(&ds, k);
        let cf = L2Counterfactual::with_lazy_regions(&ds, &regions);
        let knn = ContinuousKnn::new(&ds, LpMetric::L2, k);
        for x in &inst.queries {
            // The serving path's radius just past the infimum.
            let radius_of = |d: &f64| d * 1.0001 + 1e-6;
            let (inf, w) = cf.closest(x, radius_of).expect("both classes are nonempty at k = 1");
            let radius = radius_of(&inf.dist_sq);
            // The one walk answers what the two-walk path did, bit for bit.
            let walked = cf.infimum(x).expect("both classes are nonempty at k = 1");
            prop_assert_eq!(inf.dist_sq.to_bits(), walked.dist_sq.to_bits());
            prop_assert_eq!(&inf.closure_witness, &walked.closure_witness);
            prop_assert_eq!(&w, &cf.within(x, &radius));
            let w = w.expect("a witness exists just past the infimum");
            let label: Label = knn.classify(x);
            prop_assert_eq!(knn.classify(&w), label.flip(), "witness {:?} for {:?}", w, x);
            let d: f64 = x.iter().zip(&w).map(|(a, b)| (a - b) * (a - b)).sum();
            prop_assert!(d <= radius, "witness at {} outside the radius {}", d, radius);
        }
    }
}
