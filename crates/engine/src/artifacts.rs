//! Shared, lazily-built artifacts over the engine's immutable dataset.
//!
//! Three families, all built at most once per epoch and shared (via `Arc`)
//! by every worker:
//!
//! * **per-class neighbor indexes** — a flat ℓp scan per `(ℓp, class)`
//!   ([`LpScan`]) and a flat packed-word Hamming scan per class
//!   ([`HammingScan`]). The optimistic rule of §2 reduces to comparing the
//!   `maj`-th order statistics of the per-class distance multisets, so
//!   classification needs exactly one bounded-selection pass per class.
//!   There is no KD-tree per class any more: at the dimensions the paper
//!   targets a tree prunes almost nothing, and a flat scan can be patched
//!   across a mutation instead of rebuilt ([`ArtifactStore::carry_over`]).
//!   Three names outlive the KD-tree, deliberately:
//!   [`ArtifactStore::kd_class_index`] / [`ArtifactStore::hamming_class_index`]
//!   keep their names and arguments because the benchmark's per-layer
//!   decomposer calls them; the route tags `kdtree-class-index` /
//!   `hamming-index` stay because they are response bytes; and
//!   `knn_engine_work_total{kind="kd_visit"}` reads 0 on every route.
//!   On a binary tenant, ℓp classify of a 0/1 query reads the Hamming scans
//!   (its ℓp keys are Hamming distances exactly), so no ℓp scan is built or
//!   patched there. The benchmark's decomposer still builds the ℓp scans for
//!   `kdtree-class-index` before timing the executor, which then builds the
//!   Hamming scans inside its solve: on binary tenants that route's traced
//!   artifact-build and solve numbers measure different work than before;
//! * **lazy Prop 1 region views** — a [`LazyRegions`] per `k`, the region
//!   source every ℓ2 abductive and counterfactual route is built over.
//!   Construction is `O(n)`; regions are enumerated nearest-anchor-first per
//!   query and memoized (bounded) as they are visited, which is what lets
//!   the engine serve k ≥ 5 where the eager decomposition is infeasible;
//! * **Hamming SAT models** — the point-independent §9.2 encoding per
//!   `(k, target)` ([`DiscreteModel`]), its `O(|S⁺|·|S⁻|)` pair constraints
//!   sealed into a shared prefix. Every Hamming SAT route instantiates a
//!   fresh per-query clone of it (own clauses, counters and search state),
//!   so nothing learnt on one query reaches another;
//! * the **boolean view** of a 0/1 continuous dataset, owned by
//!   [`EngineData`] itself. Both views are flat buffers, so each epoch's
//!   data is two exact-size copies ([`EngineData::with_insert`]).
//!
//! Each family's map mutex is held only long enough to fetch (or create) the
//! per-key cell; the build itself runs under the cell's `OnceLock`, so
//! concurrent requesters of the *same* artifact block and share one build
//! while distinct artifacts (e.g. region views for k = 1 and k = 3) build
//! in parallel.

use knn_core::regions::LazyRegions;
use knn_core::satenc::DiscreteModel;
use knn_delta::AppliedMutation;
use knn_index::{HammingScan, LpScan};
use knn_space::{BitVec, BooleanDataset, ContinuousDataset, Label, LpMetric, OddK};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Lifetime artifact-build accounting, shared (via `Arc`) across every
/// [`ArtifactStore::carry_over`] generation of one engine so the totals
/// survive mutations. Plain relaxed atomics — always on; the cost is paid
/// only by the worker that actually runs a build.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    build_nanos: AtomicU64,
    built: AtomicU64,
    carried: AtomicU64,
}

impl StoreMetrics {
    /// Total nanoseconds spent inside artifact builders so far. The
    /// engine's per-query artifact phase is the delta of this across one
    /// execution (attribution is approximate when builds race, exact when
    /// one query pays for its own build — the common case).
    pub fn build_nanos(&self) -> u64 {
        self.build_nanos.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> StoreMetricsSnapshot {
        StoreMetricsSnapshot {
            build_us: self.build_nanos.load(Ordering::Relaxed) / 1_000,
            built: self.built.load(Ordering::Relaxed),
            carried: self.carried.load(Ordering::Relaxed),
        }
    }

    /// Runs `build` under the clock, charging its wall time and one build
    /// to the totals.
    fn time<T>(&self, build: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = build();
        self.build_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.built.fetch_add(1, Ordering::Relaxed);
        value
    }
}

/// Byte/occupancy accounting of one [`ArtifactStore`]'s completed cells
/// (see [`ArtifactStore::resources`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArtifactResources {
    /// Estimated bytes of completed index/region/SAT artifacts (class
    /// scans, lazy views' dataset copies, SAT models).
    pub artifact_bytes: usize,
    /// Estimated bytes of the lazy views' bounded region memos.
    pub memo_bytes: usize,
    /// Entries held across all region memos (prune verdicts included).
    pub memo_len: usize,
    /// Combined insert bound of those memos (the fill gauge denominator).
    pub memo_cap: usize,
}

/// An owned copy of [`StoreMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMetricsSnapshot {
    /// Total wall time spent inside artifact builders, µs.
    pub build_us: u64,
    /// Artifact cells built over the engine's lifetime (rebuilds after
    /// invalidation included — contrast with the live
    /// [`ArtifactStore::built_count`]).
    pub built: u64,
    /// Completed cells carried across mutations instead of rebuilt.
    pub carried: u64,
}

/// The engine's immutable dataset: the continuous view always, the boolean
/// view when every coordinate is 0/1.
#[derive(Clone, Debug)]
pub struct EngineData {
    /// Continuous view.
    pub continuous: ContinuousDataset<f64>,
    /// Boolean view, when the data is binary.
    pub boolean: Option<BooleanDataset>,
}

impl EngineData {
    /// Wraps pre-built views.
    pub fn new(continuous: ContinuousDataset<f64>, boolean: Option<BooleanDataset>) -> Self {
        EngineData { continuous, boolean }
    }

    /// Builds from the continuous view alone, deriving the boolean view when
    /// every value is 0 or 1.
    pub fn from_continuous(continuous: ContinuousDataset<f64>) -> Self {
        let all_binary = continuous.iter().all(|(p, _)| is_binary(p));
        let boolean = all_binary.then(|| {
            let mut ds = BooleanDataset::new(continuous.dim());
            for (p, label) in continuous.iter() {
                ds.push(to_bits(p), label);
            }
            ds
        });
        EngineData { continuous, boolean }
    }

    /// The boolean view when it is in step with the continuous one (same
    /// dimension and length — always, except for hand-built test data), so
    /// a point's position in one is its position in the other.
    pub(crate) fn boolean_in_step(&self) -> Option<&BooleanDataset> {
        self.boolean
            .as_ref()
            .filter(|b| b.dim() == self.continuous.dim() && b.len() == self.continuous.len())
    }

    /// The view after appending one labeled point: one exact-size copy of
    /// each view's flat buffer instead of [`EngineData::from_continuous`]'s
    /// full re-scan — the mutation layer's per-epoch derivation cost. Semantics
    /// match a re-derivation exactly: a non-0/1 insert drops the boolean
    /// view (the dataset is no longer binary), and a view inconsistent with
    /// the continuous one (hand-built test data) falls back to re-deriving.
    pub fn with_insert(&self, point: &[f64], label: Label) -> EngineData {
        let binary = is_binary(point);
        let continuous = self.continuous.with_pushed(point, label);
        let boolean = match (self.boolean_in_step(), &self.boolean) {
            (Some(b), _) if binary => Some(b.with_pushed(&to_bits(point), label)),
            (None, Some(_)) if binary => return EngineData::from_continuous(continuous),
            // A binary insert cannot make a non-binary dataset binary, and
            // a non-binary insert un-binaries any dataset.
            _ => None,
        };
        EngineData { continuous, boolean }
    }

    /// The view after removing the `id`-th point (see
    /// [`EngineData::with_insert`]). When there was no boolean view, the
    /// removal may have deleted the last non-0/1 point, so fresh-load
    /// semantics require a re-derivation.
    pub fn with_remove(&self, id: usize) -> EngineData {
        let continuous = self.continuous.with_removed(id);
        match self.boolean_in_step() {
            Some(b) => EngineData { continuous, boolean: Some(b.with_removed(id)) },
            None => EngineData::from_continuous(continuous),
        }
    }
}

pub(crate) fn is_binary(point: &[f64]) -> bool {
    point.iter().all(|&v| v == 0.0 || v == 1.0)
}

pub(crate) fn to_bits(point: &[f64]) -> BitVec {
    BitVec::from_bools(&point.iter().map(|&v| v == 1.0).collect::<Vec<_>>())
}

/// A keyed family of build-once artifacts: the map mutex guards only cell
/// lookup/creation, and each cell's `OnceLock` serializes same-key builds
/// while distinct keys build concurrently.
#[derive(Debug)]
struct Family<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K: Eq + Hash + Clone, V> Default for Family<K, V> {
    fn default() -> Self {
        Family { cells: Mutex::new(HashMap::new()) }
    }
}

impl<K: Eq + Hash + Clone, V> Family<K, V> {
    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let cell = self.cells.lock().unwrap().entry(key).or_default().clone();
        cell.get_or_init(|| Arc::new(build())).clone()
    }

    /// How many artifacts of this family have finished building.
    fn built_count(&self) -> usize {
        self.cells.lock().unwrap().values().filter(|c| c.get().is_some()).count()
    }

    /// Folds `weigh` over the *completed* artifacts. In-flight builds
    /// contribute nothing — their memory is transient and unobservable
    /// without blocking on the build.
    fn built_bytes(&self, weigh: impl Fn(&V) -> usize) -> usize {
        self.cells.lock().unwrap().values().filter_map(|c| c.get()).map(|v| weigh(v)).sum()
    }

    /// A new family holding `next(key, artifact)` for each *completed*
    /// artifact, each behind a fresh cell. Copying only finished builds
    /// matters: an in-flight build shares its old cell
    /// and must complete into the *old* family only — it is computing over
    /// the pre-mutation dataset, and the new family must never serve it.
    fn carry(&self, next: impl Fn(&K, &Arc<V>) -> Arc<V>) -> Family<K, V> {
        let cells = self.cells.lock().unwrap();
        let kept = cells
            .iter()
            .filter_map(|(k, cell)| {
                let fresh = OnceLock::new();
                let _ = fresh.set(next(k, cell.get()?));
                Some((k.clone(), Arc::new(fresh)))
            })
            .collect();
        Family { cells: Mutex::new(kept) }
    }
}

/// Lazily-built shared artifacts (see module docs).
#[derive(Debug, Default)]
pub struct ArtifactStore {
    kd_class: Family<(u32, Label), LpScan>,
    hamming_class: Family<Label, HammingScan>,
    l2_lazy: Family<u32, LazyRegions<f64>>,
    hamming_sat: Family<(u32, Label), DiscreteModel>,
    /// Build-time accounting, shared across carry-over generations.
    metrics: Arc<StoreMetrics>,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The flat scan over the `label` class under ℓp, building it on first
    /// use. (Named for the KD-tree it replaced; see the module docs.)
    pub fn kd_class_index(&self, data: &EngineData, p: u32, label: Label) -> Arc<LpScan> {
        self.kd_class.get_or_build((p, label), || {
            self.metrics.time(|| LpScan::of_class(&data.continuous, label, LpMetric::new(p)))
        })
    }

    /// The flat Hamming scan over the `label` class. The caller must have
    /// checked that the boolean view exists.
    pub fn hamming_class_index(&self, data: &EngineData, label: Label) -> Arc<HammingScan> {
        self.hamming_class.get_or_build(label, || {
            self.metrics.time(|| {
                let ds = data.boolean.as_ref().expect("hamming artifact needs the boolean view");
                HammingScan::of_class(ds, label)
            })
        })
    }

    /// The lazy Prop 1 ℓ2 region view for `k`. Cheap to build; visited
    /// regions are memoized inside the view (bounded), so every worker
    /// sharing this artifact also shares the warm enumeration.
    pub fn l2_lazy_regions(&self, data: &EngineData, k: OddK) -> Arc<LazyRegions<f64>> {
        self.l2_lazy
            .get_or_build(k.get(), || self.metrics.time(|| LazyRegions::new(&data.continuous, k)))
    }

    /// The Hamming SAT model for "classified `target`" at `k`, building it
    /// on first use. The caller must have checked that the boolean view
    /// exists. Query with [`DiscreteModel::instantiate`].
    pub fn hamming_sat_model(
        &self,
        data: &EngineData,
        k: OddK,
        target: Label,
    ) -> Arc<DiscreteModel> {
        self.hamming_sat.get_or_build((k.get(), target), || {
            self.metrics.time(|| {
                let ds = data.boolean.as_ref().expect("hamming artifact needs the boolean view");
                DiscreteModel::new(ds, k, target)
            })
        })
    }

    /// Build-time accounting (engine-lifetime — survives carry-overs).
    pub fn metrics(&self) -> &Arc<StoreMetrics> {
        &self.metrics
    }

    /// How many artifacts (across all families) have finished building —
    /// the `artifacts_built` observability counter of the server's `stats`
    /// verb, so operators can tell a cold tenant (expensive first queries
    /// ahead) from a warmed one.
    pub fn built_count(&self) -> usize {
        self.kd_class.built_count()
            + self.hamming_class.built_count()
            + self.l2_lazy.built_count()
            + self.hamming_sat.built_count()
    }

    /// Estimated bytes and memo occupancy of the completed artifacts — the
    /// `artifact` / `memo` components of the engine's resource gauges. One
    /// pass over the cell maps; never triggers or waits for a build. Byte
    /// figures are estimates (element payloads + container headers), not
    /// allocator-exact — see DESIGN.md §7c for the estimation rules.
    pub fn resources(&self) -> ArtifactResources {
        let mut r = ArtifactResources::default();
        r.artifact_bytes += self.kd_class.built_bytes(|t| t.approx_bytes());
        r.artifact_bytes += self.hamming_class.built_bytes(|h| h.approx_bytes());
        // Per-query instances are transient and never counted; their shared
        // sealed prefix is counted here, once.
        r.artifact_bytes += self.hamming_sat.built_bytes(|m| m.approx_bytes());
        // Lazy views split: the owned dataset copy counts as artifact, the
        // bounded memos as the separately-capped memo component.
        r.artifact_bytes += self.l2_lazy.built_bytes(|l| l.approx_bytes() - l.memo_bytes());
        r.memo_bytes += self.l2_lazy.built_bytes(|l| l.memo_bytes());
        r.memo_len += self.l2_lazy.built_bytes(|l| l.memoized());
        r.memo_cap += self.l2_lazy.built_bytes(|l| l.memo_cap());
        r
    }

    /// The store for the epoch after `applied`, which moved `before` (the
    /// pre-mutation data) to the next epoch's data. Class indexes are
    /// carried, never rebuilt:
    ///
    /// * the *other* class's indexes are the same instances — a mutation
    ///   cannot change a class it did not touch;
    /// * the mutated class's indexes are patched — an insert appends its
    ///   row at the class's end, a removal drops the row at the departing
    ///   point's class-local position. Inserts append and removals preserve
    ///   the survivors' order, so the patched scan equals a fresh build at
    ///   the next epoch;
    /// * a non-0/1 insert drops the Hamming indexes (the boolean view goes
    ///   with it), as does a boolean view out of step with the continuous
    ///   one (hand-built test data).
    ///
    /// Every lazy region view and every Hamming SAT model is dropped: both
    /// are built from cross-class point pairs, so any mutation invalidates
    /// them for every `k`. (The invalidation matrix lives in DESIGN.md §3d.)
    pub fn carry_over(&self, before: &EngineData, applied: &AppliedMutation) -> ArtifactStore {
        let mutated = applied.label();
        let removed_at = match applied {
            AppliedMutation::Insert { .. } => None,
            AppliedMutation::Remove { id, .. } => Some(before.continuous.class_position(*id)),
        };
        let kd_class = self.kd_class.carry(|&(_, label), scan| match removed_at {
            _ if label != mutated => scan.clone(),
            Some(at) => Arc::new(scan.without_row(at)),
            None => Arc::new(scan.with_row(applied.point())),
        });
        let hamming_in_step = before.boolean_in_step().is_some()
            && (removed_at.is_some() || is_binary(applied.point()));
        let hamming_class = if hamming_in_step {
            self.hamming_class.carry(|&label, scan| match removed_at {
                _ if label != mutated => scan.clone(),
                Some(at) => Arc::new(scan.without_row(at)),
                None => Arc::new(scan.with_row(&to_bits(applied.point()))),
            })
        } else {
            Family::default()
        };
        let next = ArtifactStore {
            kd_class,
            hamming_class,
            l2_lazy: Family::default(),
            hamming_sat: Family::default(),
            metrics: self.metrics.clone(),
        };
        self.metrics.carried.fetch_add(next.built_count() as u64, Ordering::Relaxed);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> EngineData {
        let ds = ContinuousDataset::from_sets(
            vec![vec![1.0, 1.0], vec![1.0, 0.0]],
            vec![vec![0.0, 0.0], vec![0.0, 1.0]],
        );
        EngineData::from_continuous(ds)
    }

    #[test]
    fn binary_data_gets_boolean_view() {
        let d = toy();
        assert!(d.boolean.is_some());
        assert_eq!(d.boolean.as_ref().unwrap().count_of(Label::Positive), 2);
        let nonbin = EngineData::from_continuous(ContinuousDataset::from_sets(
            vec![vec![0.5]],
            vec![vec![0.0]],
        ));
        assert!(nonbin.boolean.is_none());
    }

    #[test]
    fn artifacts_are_shared_not_rebuilt() {
        let d = toy();
        let store = ArtifactStore::new();
        let a = store.kd_class_index(&d, 2, Label::Positive);
        let b = store.kd_class_index(&d, 2, Label::Positive);
        assert_eq!(a.kth_smallest(&[1.0, 1.0], 1), Some(0.0));
        assert!(Arc::ptr_eq(&a, &b), "same artifact instance on the second request");
        let l1 = store.l2_lazy_regions(&d, OddK::ONE);
        let l2 = store.l2_lazy_regions(&d, OddK::ONE);
        assert!(Arc::ptr_eq(&l1, &l2));
        assert_eq!(l1.memoized(), 0, "lazy view starts empty — nothing visited yet");
    }

    #[test]
    fn sat_models_are_shared_per_target_and_weighed_once() {
        let d = toy();
        let store = ArtifactStore::new();
        let before = store.resources().artifact_bytes;
        let a = store.hamming_sat_model(&d, OddK::ONE, Label::Positive);
        let b = store.hamming_sat_model(&d, OddK::ONE, Label::Positive);
        assert!(Arc::ptr_eq(&a, &b), "same model on the second request");
        assert_eq!((a.k(), a.target()), (OddK::ONE, Label::Positive));
        assert!(!Arc::ptr_eq(&a, &store.hamming_sat_model(&d, OddK::ONE, Label::Negative)));
        assert_eq!(store.built_count(), 2);
        // Instances are per query and never weighed; each model once.
        let _instance = a.instantiate(&BitVec::zeros(2));
        let weighed = store.resources().artifact_bytes - before;
        let models = a.approx_bytes()
            + store.hamming_sat_model(&d, OddK::ONE, Label::Negative).approx_bytes();
        assert_eq!(weighed, models);
    }

    #[test]
    fn incremental_views_match_full_rederivation() {
        let mut ds = ContinuousDataset::from_sets(vec![vec![1.0, 0.0]], vec![vec![0.0, 1.0]]);
        ds.push(vec![0.5, 0.5], Label::Positive); // non-binary
        let d = EngineData::from_continuous(ds);
        assert!(d.boolean.is_none());
        // Removing the only non-binary point resurrects the boolean view
        // (fresh-load semantics).
        let removed = d.with_remove(2);
        assert!(removed.boolean.is_some());
        assert_eq!(removed.continuous.len(), 2);
        // A binary insert extends the view; a non-binary one drops it.
        let grown = removed.with_insert(&[1.0, 1.0], Label::Negative);
        let b = grown.boolean.as_ref().unwrap();
        assert_eq!((b.len(), b.label(2)), (3, Label::Negative));
        assert!(b.point(2).get(0) && b.point(2).get(1));
        let degraded = grown.with_insert(&[0.25, 1.0], Label::Positive);
        assert!(degraded.boolean.is_none());
        assert_eq!(degraded.continuous.len(), 4);
        // Each derived view equals a re-derivation, removals of the first
        // and the last point included.
        for view in [&removed, &grown, &degraded, &grown.with_remove(0), &grown.with_remove(2)] {
            let fresh = EngineData::from_continuous(view.continuous.clone());
            assert_eq!(view.boolean, fresh.boolean);
        }
    }

    #[test]
    fn binary_tenants_answer_lp_classify_from_the_hamming_scans() {
        use crate::request::{Metric, QueryKind, Request};
        let d = toy();
        let store = ArtifactStore::new();
        let classify = |store: &ArtifactStore, d: &EngineData, metric, point: Vec<f64>| {
            let req = Request {
                id: "q".into(),
                kind: QueryKind::Classify,
                metric,
                k: 1,
                point,
                features: None,
            };
            crate::exec::execute(d, store, &req, None).route
        };
        for metric in [Metric::L1, Metric::L2, Metric::Lp(3)] {
            assert_eq!(classify(&store, &d, metric, vec![1.0, 0.0]), "kdtree-class-index");
        }
        assert_eq!(store.kd_class.built_count(), 0, "no ℓp scan for 0/1 queries");
        assert_eq!(store.hamming_class.built_count(), 2);

        // A mutation has no ℓp scan to patch; the Hamming scans carry.
        let applied = AppliedMutation::Insert { point: vec![0.0, 1.0], label: Label::Positive };
        let d1 = d.with_insert(applied.point(), applied.label());
        let next = store.carry_over(&d, &applied);
        assert_eq!((next.kd_class.built_count(), next.hamming_class.built_count()), (0, 2));
        assert_eq!(next.metrics().snapshot().carried, 2);

        // A non-0/1 query still reads the ℓp scans.
        classify(&next, &d1, Metric::L2, vec![0.5, 0.0]);
        assert_eq!(next.kd_class.built_count(), 2);
    }

    #[test]
    fn carry_over_patches_class_indexes_and_drops_regions() {
        let d = toy();
        let store = ArtifactStore::new();
        let neg_kd = store.kd_class_index(&d, 2, Label::Negative);
        let neg_ham = store.hamming_class_index(&d, Label::Negative);
        store.kd_class_index(&d, 2, Label::Positive);
        store.hamming_class_index(&d, Label::Positive);
        store.l2_lazy_regions(&d, OddK::ONE);
        store.hamming_sat_model(&d, OddK::ONE, Label::Positive);
        store.hamming_sat_model(&d, OddK::ONE, Label::Negative);
        assert_eq!(store.built_count(), 7);
        let built = store.metrics().snapshot().built;

        let applied = AppliedMutation::Insert { point: vec![0.0, 1.0], label: Label::Positive };
        let d1 = d.with_insert(applied.point(), applied.label());
        let next = store.carry_over(&d, &applied);
        assert_eq!(
            next.built_count(),
            4,
            "all four class indexes carried, regions and SAT dropped"
        );
        assert_eq!(next.metrics().snapshot().carried, 4);
        // The untouched class keeps the same instances.
        assert!(Arc::ptr_eq(&neg_kd, &next.kd_class_index(&d1, 2, Label::Negative)));
        assert!(Arc::ptr_eq(&neg_ham, &next.hamming_class_index(&d1, Label::Negative)));
        // The mutated class is patched to exactly what a fresh build gives.
        let fresh = |d: &EngineData| ArtifactStore::new().kd_class_index(d, 2, Label::Positive);
        assert_eq!(*next.kd_class_index(&d1, 2, Label::Positive), *fresh(&d1));
        assert_eq!(
            *next.hamming_class_index(&d1, Label::Positive),
            *ArtifactStore::new().hamming_class_index(&d1, Label::Positive)
        );
        assert_eq!(next.metrics().snapshot().built, built, "the next classify builds nothing");

        // A removal drops the departing point's class-local row, and the
        // SAT models again.
        next.hamming_sat_model(&d1, OddK::THREE, Label::Negative);
        assert_eq!(next.built_count(), 5);
        let applied =
            AppliedMutation::Remove { id: 1, point: vec![1.0, 0.0], label: Label::Positive };
        let d2 = d1.with_remove(1);
        let after = next.carry_over(&d1, &applied);
        assert_eq!(after.built_count(), 4, "the SAT model is dropped on removal");
        assert_eq!(*after.kd_class_index(&d2, 2, Label::Positive), *fresh(&d2));
        assert_eq!(after.kd_class_index(&d2, 2, Label::Positive).len(), 2);

        // A non-0/1 insert drops the Hamming indexes with the boolean view.
        let applied = AppliedMutation::Insert { point: vec![0.5, 1.0], label: Label::Negative };
        let dropped = after.carry_over(&d2, &applied);
        assert_eq!(dropped.built_count(), 2, "only the two ℓ2 scans survive");
        assert_eq!(next.metrics().snapshot().built, built + 1, "one build: the k = 3 model");
    }
}
