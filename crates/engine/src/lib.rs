//! # knn-engine — concurrent batch explanation serving
//!
//! The paper's algorithms (knn-core) answer one explanation query at a time;
//! real explanation workloads arrive in batches over one immutable dataset.
//! This crate adds the serving layer:
//!
//! * an [`ExplanationEngine`] owning the dataset plus lazily-built shared
//!   artifacts (per-class neighbor indexes, the Prop 1 ℓ2 region
//!   decomposition) — see [`artifacts`];
//! * a **query planner** routing each `(query, metric, k)` to the correct
//!   algorithm per the paper's Table 1, refusing intractable cells and
//!   demoting exponential tails to anytime/greedy variants under a
//!   deterministic effort budget — see [`plan`];
//! * a **worker pool** (std threads, no extra dependencies) executing
//!   batches concurrently with byte-deterministic, order-preserving output —
//!   [`ExplanationEngine::run_batch`];
//! * a **memoization layer**: the artifact store above plus an LRU cache of
//!   completed explanations keyed by the canonicalized query — see [`cache`];
//! * a JSON-lines wire format for the `xknn batch` subcommand — see
//!   [`request`] and [`json`].
//!
//! ## Determinism contract
//!
//! For a fixed dataset and [`EngineConfig`], the response *line* for a request
//! is a pure function of the request payload. Worker count, batch order,
//! scheduling, and cache hits cannot change a single output byte — the
//! property the engine's tests pin down. This is why effort budgets are
//! logical (CDCL conflicts, greedy hitting sets), never wall-clock.
//!
//! ## Live mutation
//!
//! The dataset is **versioned**, not frozen: [`ExplanationEngine::apply`]
//! inserts or removes one point, bumping a monotone *epoch* (the length of
//! the tenant's append-only [`knn_delta::MutationLog`]). The determinism
//! contract generalizes: a response is a pure function of `(dataset at the
//! query's epoch, config, request)`. Epochs are assigned at a **barrier**:
//! each `run_batch` snapshots `(epoch, data, artifacts)` once, so a
//! mutation racing a batch lands entirely before or entirely after it —
//! queries in one batch all see the same epoch, and batch output stays
//! byte-deterministic. After any mutation sequence, every response is
//! byte-identical to a fresh engine loaded with the final dataset (the
//! differential contract `prop_mutation.rs` pins), because mutations
//! preserve point order and invalidation is conservative:
//!
//! * per-class neighbor indexes are carried across the epoch: the untouched
//!   class's as they are, the mutated class's patched by one row
//!   ([`ArtifactStore::carry_over`]);
//! * region artifacts drop on any mutation (they mix both classes);
//! * cached explanations are epoch-tagged and lazily evicted; cached
//!   `classify` answers carry a [`knn_delta::ClassifyGuard`] and are
//!   *revalidated* — promoted to the new epoch — when every logged
//!   mutation provably left their per-class order statistics unchanged.
//!
//! ```
//! use knn_engine::{EngineConfig, EngineData, ExplanationEngine, Request};
//! use knn_space::ContinuousDataset;
//!
//! let ds = ContinuousDataset::from_sets(
//!     vec![vec![2.0, 2.0], vec![3.0, 1.5]],
//!     vec![vec![-1.0, -1.0], vec![0.0, -2.0]],
//! );
//! let engine = ExplanationEngine::new(EngineData::from_continuous(ds), EngineConfig::default());
//!
//! let batch: Vec<Request> = [
//!     r#"{"id":"a","cmd":"classify","point":[1.0,1.0]}"#,
//!     r#"{"id":"b","cmd":"counterfactual","metric":"l2","point":[1.0,1.0]}"#,
//! ]
//! .iter()
//! .enumerate()
//! .map(|(i, line)| Request::from_json_line(line, &i.to_string()).unwrap())
//! .collect();
//!
//! let responses = engine.run_batch(&batch);
//! assert_eq!(responses[0].to_json_line(), r#"{"id":"a","ok":true,"route":"kdtree-class-index","label":"+"}"#);
//! assert!(responses[1].to_json_line().contains("\"proven\":true"));
//! ```

#![warn(missing_docs)]

pub mod artifacts;
pub mod bundle;
pub mod cache;
pub mod exec;
pub mod json;
pub mod plan;
pub mod request;
pub mod textfmt;

pub use artifacts::{ArtifactResources, ArtifactStore, EngineData};
pub use bundle::{BundleEntry, ReplayDivergence, ReplayReport, ReproBundle};
pub use cache::CacheStats;
pub use plan::{plan, Complexity, Plan, Route};
pub use request::{CacheKey, Metric, Outcome, QueryKind, Request, Response};

pub use knn_delta::Mutation;

use cache::LruCache;
use knn_core::tally::RegionTally;
use knn_delta::{AppliedMutation, ClassifyGuard, MutationLog};
use knn_telemetry::{Histogram, QuerySpans, QueryTrace, SpanEvent, Telemetry};
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Sampling period for cache-probe phase timing: 1 in this many probes is
/// wall-clock timed. Probing a warm cache is a sub-µs operation, so reading
/// the clock around every probe would cost more than the probe itself.
const CACHE_PROBE_SAMPLE: u64 = 16;

/// Whether this query's cache probe should be wall-clock timed. Deterministic
/// per-thread round-robin: the **first** probe on every thread is sampled (so
/// the phase series exists as soon as any traffic flows), then 1 in
/// [`CACHE_PROBE_SAMPLE`]. Unsampled queries leave `QueryTrace::cache_us` at
/// zero; the phase histogram stays representative because warm probes are
/// tightly clustered.
fn sample_cache_probe() -> bool {
    thread_local! {
        static TICK: Cell<u64> = const { Cell::new(0) };
    }
    TICK.with(|t| {
        let v = t.get();
        t.set(v.wrapping_add(1));
        v % CACHE_PROBE_SAMPLE == 0
    })
}

/// Engine-level configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// Worker threads for batches (`0` = all available cores).
    pub workers: usize,
    /// Capacity of the completed-explanation LRU (`0` disables it).
    pub cache_capacity: usize,
    /// Deterministic effort budget for the exponential routes (CDCL conflicts
    /// for the SAT counterfactual; greedy hitting sets for minimum-SR).
    /// `None` runs everything exact. Never wall-clock: see the crate docs.
    pub effort_budget: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig { workers: 0, cache_capacity: 4096, effort_budget: None }
    }
}

/// Aggregate statistics of one [`ExplanationEngine::run_batch_with_stats`] call.
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Requests in the batch.
    pub requests: usize,
    /// Responses served from the explanation cache.
    pub cache_hits: usize,
    /// Responses that are errors (refused routes, malformed payloads).
    pub errors: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the batch.
    pub wall: Duration,
}

type CachedResult = (String, Result<Outcome, String>);

/// One epoch-tagged explanation-cache entry. `guard` (classify only) is the
/// survival certificate that lets a later epoch revalidate the entry
/// instead of recomputing it.
struct CachedEntry {
    epoch: u64,
    route: String,
    result: Result<Outcome, String>,
    guard: Option<ClassifyGuard>,
}

/// Estimated bytes one cache entry pins (key + value, inline structs plus
/// owned heap). Accounting only — the weight never influences eviction.
fn entry_bytes(key: &CacheKey, entry: &CachedEntry) -> u64 {
    let guard_bytes = entry
        .guard
        .as_ref()
        .map_or(0, |g| std::mem::size_of::<ClassifyGuard>() + g.point.len() * 8);
    let result_bytes = match &entry.result {
        Ok(o) => o.approx_bytes(),
        Err(e) => e.len(),
    };
    (key.approx_bytes()
        + std::mem::size_of::<CachedEntry>()
        + entry.route.len()
        + result_bytes
        + guard_bytes) as u64
}

/// How far back a cache entry may lag the current epoch and still be
/// considered for guard revalidation. Beyond this, replaying the mutation
/// window costs more than it saves; the entry just misses.
const REVALIDATE_WINDOW: u64 = 64;

/// One epoch's immutable serving view. `run_batch` snapshots this once, so
/// a mutation racing a batch lands entirely before or after it. Together
/// `data` + `log` are the engine's versioned dataset: the epoch's views
/// plus the mutations that produced them. The log is compacted to the
/// revalidation window — its only reader — so memory stays bounded under
/// sustained mutation streams.
struct EpochState {
    /// The epoch's engine view (continuous + boolean), mutated by
    /// structural `with_insert`/`with_remove` clones.
    data: Arc<EngineData>,
    /// The mutation history; `log.epoch()` is the current epoch.
    log: MutationLog,
    /// The epoch's artifact store (survivors carried over on mutation).
    artifacts: Arc<ArtifactStore>,
}

/// A cheap clone of the serving view a batch runs against.
struct Snapshot {
    epoch: u64,
    data: Arc<EngineData>,
    artifacts: Arc<ArtifactStore>,
}

/// What one shadow-audit re-execution found
/// (see [`ExplanationEngine::audit_replay`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditOutcome {
    /// The recomputed bytes equal the served bytes.
    Match,
    /// The recomputed bytes differ — a determinism violation.
    Diverged {
        /// The line the re-execution produced.
        got: String,
    },
    /// The engine moved past the served epoch before the audit ran; the
    /// comparison would be meaningless, so nothing was checked.
    Stale,
}

/// What [`ExplanationEngine::apply`] reports about an applied mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationReceipt {
    /// The epoch the engine is now at.
    pub epoch: u64,
    /// Points in the dataset now.
    pub points: usize,
    /// Positive points now.
    pub positives: usize,
    /// Negative points now.
    pub negatives: usize,
}

/// Estimated memory footprint of one engine's long-lived structures, by
/// component (see [`ExplanationEngine::stats`]). All figures are coarse
/// estimates — element payloads plus container headers, not allocator
/// truth — good enough to rank tenants and watch growth. The components
/// are disjoint: `dataset` is the live epoch's views, `log` the retained
/// mutation entries, `artifact` the completed index/region artifacts
/// (minus the lazy views' memos), `memo` those memos against their cap,
/// `cache` the explanation LRU's keys and payloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// The live dataset (continuous + boolean views).
    pub dataset_bytes: u64,
    /// Retained mutation-log entries.
    pub log_bytes: u64,
    /// Retained (uncompacted) mutation-log length.
    pub log_len: u64,
    /// Completed artifacts, excluding region memos.
    pub artifact_bytes: u64,
    /// Region memos of the lazy views.
    pub memo_bytes: u64,
    /// Region-memo entries held.
    pub memo_len: u64,
    /// Region-memo insert bound (fill-gauge denominator).
    pub memo_cap: u64,
    /// Explanation-LRU keys + payloads.
    pub cache_bytes: u64,
}

impl ResourceStats {
    /// Every component summed — the `bytes_total` a `top` row ranks by.
    pub fn total_bytes(&self) -> u64 {
        self.dataset_bytes
            + self.log_bytes
            + self.artifact_bytes
            + self.memo_bytes
            + self.cache_bytes
    }
}

/// Monotonic work counters for one `(engine, route)` pair (see
/// [`ExplanationEngine::work_stats`]). Deltas of the solver layers'
/// thread-local tallies, attributed to the route that ran — exact, because
/// one query executes entirely on one worker thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteWorkSnapshot {
    /// The planner route tag (the response's `route` member).
    pub route: String,
    /// Queries that computed (cache misses / uncached) under this route.
    pub computes: u64,
    /// Simplex LP solves (feasibility probes included).
    pub lp_solves: u64,
    /// QP projections onto Prop 1 polyhedra.
    pub qp_solves: u64,
    /// Always 0; kept because the benchmark's per-layer report reads it.
    pub kd_visits: u64,
    /// Region polyhedra yielded by the lazy enumerator.
    pub region_yields: u64,
    /// Cumulative solver wall time, µs (0 unless telemetry is enabled —
    /// the engine never reads the clock on untimed paths).
    pub solve_us: u64,
}

/// Shared atomics behind one route's [`RouteWorkSnapshot`].
#[derive(Debug, Default)]
struct RouteWork {
    computes: AtomicU64,
    lp_solves: AtomicU64,
    qp_solves: AtomicU64,
    region_yields: AtomicU64,
    solve_us: AtomicU64,
}

/// A point-in-time reading of the solver layers' thread-local work tallies
/// (taken before and after a compute; the difference is the query's work).
#[derive(Clone, Copy)]
struct WorkSample {
    lp: u64,
    qp: u64,
    regions: RegionTally,
}

impl WorkSample {
    fn take() -> WorkSample {
        WorkSample {
            lp: knn_lp::tally::lp_solves(),
            qp: knn_qp::tally::qp_solves(),
            regions: knn_core::tally::regions(),
        }
    }
}

/// Lifetime counters of one [`ExplanationEngine`] (see
/// [`ExplanationEngine::stats`]) — the numbers the network server's `stats`
/// verb reports per tenant.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Explanation-LRU hit/miss/eviction counters.
    pub cache: CacheStats,
    /// Requests that joined another worker's in-flight computation of the
    /// same key (single-flight coalescing) instead of computing or hitting
    /// the LRU themselves.
    pub coalesced: u64,
    /// Keys currently being computed (size of the single-flight table).
    pub inflight: usize,
    /// Shared artifacts (per-class indexes, region views, SAT models) built
    /// so far — how "warm" this engine's one-time costs are.
    pub artifacts_built: usize,
    /// The current epoch (mutations applied since load).
    pub epoch: u64,
    /// Points inserted since load.
    pub inserts: u64,
    /// Points removed since load.
    pub removes: u64,
    /// Cache hits that crossed an epoch boundary: stale entries whose guard
    /// proved the answer unchanged, promoted instead of recomputed.
    pub revalidated: u64,
    /// Guard revalidations that failed: the entry's statistics could have
    /// moved, so the query recomputed.
    pub revalidation_failed: u64,
    /// Cache entries installed by [`ExplanationEngine::insert_external`] —
    /// answers computed by a *peer* replica and pushed in by the router's
    /// cross-replica fill. Kept separate from hits/misses so cluster-wide
    /// hit-rate math stays honest once an entry exists on several replicas.
    pub filled: u64,
    /// Lazy region-enumeration work of the served computes: yields and
    /// per-rule prune counts, engine-lifetime. `regions.yields` is the sum
    /// of [`RouteWorkSnapshot::region_yields`] over every route; audit
    /// re-executions are not counted.
    pub regions: RegionTally,
    /// Total wall time spent building shared artifacts, µs
    /// (engine-lifetime — rebuilds after mutations included).
    pub artifact_build_us: u64,
    /// Artifact cells built over the engine's lifetime (contrast with the
    /// live `artifacts_built`).
    pub artifacts_built_total: u64,
    /// Completed artifact cells carried across mutations instead of
    /// rebuilt.
    pub artifacts_carried: u64,
    /// Served queries re-executed by the shadow audit
    /// (see [`ExplanationEngine::audit_replay`]).
    pub audit_checked: u64,
    /// Audit re-executions whose bytes differed from the served response —
    /// nonzero means the determinism invariant was violated somewhere.
    pub audit_diverged: u64,
    /// Estimated memory footprint by component (see [`ResourceStats`]).
    pub resources: ResourceStats,
}

/// The batch explanation server. See the crate docs for the architecture.
pub struct ExplanationEngine {
    config: EngineConfig,
    state: Mutex<EpochState>,
    cache: Mutex<LruCache<CacheKey, CachedEntry>>,
    coalesced: AtomicU64,
    revalidated: AtomicU64,
    revalidation_failed: AtomicU64,
    filled: AtomicU64,
    inserts: AtomicU64,
    removes: AtomicU64,
    audit_checked: AtomicU64,
    audit_diverged: AtomicU64,
    /// Single-flight table: identical requests racing in one batch coalesce
    /// onto the first worker's computation instead of each paying the full
    /// (possibly exponential) route cost before the LRU is populated. Keyed
    /// by `(epoch, request key)`: the same request at different epochs is
    /// different work and must never coalesce.
    inflight: Mutex<HashMap<(u64, CacheKey), Arc<Mutex<Option<CachedResult>>>>>,
    /// Out-of-band telemetry (disabled by default; the server enables it).
    /// Phase histogram handles are resolved once here so the hot path
    /// never touches the registry's maps.
    telemetry: Arc<Telemetry>,
    /// Tenant label span events carry (the `with_telemetry` label).
    tenant: String,
    /// Per-route monotonic work counters (LP/QP solves, region yields,
    /// solve µs). Always on: the per-compute cost is three thread-local
    /// reads, a handful of relaxed adds and one uncontended lock of
    /// `regions`, paid only on the compute path — warm cache hits never
    /// touch it.
    work: RwLock<BTreeMap<String, Arc<RouteWork>>>,
    /// The region work of every route's computes, summed.
    regions: Mutex<RegionTally>,
    phase_cache: Arc<Histogram>,
    phase_plan: Arc<Histogram>,
    phase_solve: Arc<Histogram>,
    phase_artifact: Arc<Histogram>,
    phase_apply: Arc<Histogram>,
}

impl ExplanationEngine {
    /// Builds an engine over `data` (epoch 0, empty mutation log) with its
    /// own disabled telemetry registry — the standalone (`xknn batch`)
    /// configuration, paying one atomic load per query for the plumbing.
    pub fn new(data: EngineData, config: EngineConfig) -> Self {
        Self::with_telemetry(data, config, Telemetry::new(), "_local")
    }

    /// [`ExplanationEngine::new`] recording into a shared [`Telemetry`]
    /// under the tenant label `label` — the server wires every tenant's
    /// engine to one process-wide registry so a single `metrics` scrape
    /// covers them all. Telemetry never changes a response byte: it is
    /// recorded strictly out-of-band (see the determinism contract above).
    pub fn with_telemetry(
        data: EngineData,
        config: EngineConfig,
        telemetry: Arc<Telemetry>,
        label: &str,
    ) -> Self {
        let cache = Mutex::new(LruCache::new(config.cache_capacity));
        let state = EpochState {
            data: Arc::new(data),
            log: MutationLog::new(),
            artifacts: Arc::new(ArtifactStore::new()),
        };
        let phase_cache = telemetry.phase_histogram(label, "cache");
        let phase_plan = telemetry.phase_histogram(label, "plan");
        let phase_solve = telemetry.phase_histogram(label, "solve");
        let phase_artifact = telemetry.phase_histogram(label, "artifact_build");
        let phase_apply = telemetry.phase_histogram(label, "mutation_apply");
        ExplanationEngine {
            config,
            state: Mutex::new(state),
            cache,
            coalesced: AtomicU64::new(0),
            revalidated: AtomicU64::new(0),
            revalidation_failed: AtomicU64::new(0),
            filled: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            audit_checked: AtomicU64::new(0),
            audit_diverged: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            telemetry,
            tenant: label.to_string(),
            work: RwLock::new(BTreeMap::new()),
            regions: Mutex::new(RegionTally::default()),
            phase_cache,
            phase_plan,
            phase_solve,
            phase_artifact,
            phase_apply,
        }
    }

    /// The telemetry registry this engine records into (the server's
    /// shared one, or this engine's own disabled instance).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Lifetime cache / single-flight / mutation counters plus the
    /// per-component memory estimate. Observability only: reading them
    /// never changes a response byte.
    pub fn stats(&self) -> EngineStats {
        let (epoch, artifacts_built, store, mut resources) = {
            let st = self.state.lock().unwrap();
            let art = st.artifacts.resources();
            let resources = ResourceStats {
                dataset_bytes: (st.data.continuous.approx_bytes()
                    + st.data.boolean.as_ref().map_or(0, |b| b.approx_bytes()))
                    as u64,
                log_bytes: st.log.approx_bytes() as u64,
                log_len: st.log.retained() as u64,
                artifact_bytes: art.artifact_bytes as u64,
                memo_bytes: art.memo_bytes as u64,
                memo_len: art.memo_len as u64,
                memo_cap: art.memo_cap as u64,
                cache_bytes: 0,
            };
            (
                st.log.epoch(),
                st.artifacts.built_count(),
                st.artifacts.metrics().snapshot(),
                resources,
            )
        };
        let cache = self.cache.lock().unwrap().stats();
        resources.cache_bytes = cache.bytes;
        EngineStats {
            cache,
            coalesced: self.coalesced.load(Ordering::Relaxed),
            inflight: self.inflight.lock().unwrap().len(),
            artifacts_built,
            epoch,
            inserts: self.inserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            revalidated: self.revalidated.load(Ordering::Relaxed),
            revalidation_failed: self.revalidation_failed.load(Ordering::Relaxed),
            filled: self.filled.load(Ordering::Relaxed),
            regions: *self.regions.lock().unwrap(),
            artifact_build_us: store.build_us,
            artifacts_built_total: store.built,
            artifacts_carried: store.carried,
            audit_checked: self.audit_checked.load(Ordering::Relaxed),
            audit_diverged: self.audit_diverged.load(Ordering::Relaxed),
            resources,
        }
    }

    /// Per-route monotonic work counters, sorted by route. Observability
    /// only — reading or recording them never changes a response byte.
    pub fn work_stats(&self) -> Vec<RouteWorkSnapshot> {
        self.work
            .read()
            .unwrap()
            .iter()
            .map(|(route, w)| RouteWorkSnapshot {
                route: route.clone(),
                computes: w.computes.load(Ordering::Relaxed),
                lp_solves: w.lp_solves.load(Ordering::Relaxed),
                qp_solves: w.qp_solves.load(Ordering::Relaxed),
                kd_visits: 0,
                region_yields: w.region_yields.load(Ordering::Relaxed),
                solve_us: w.solve_us.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The shared counters for `route`, creating them on first use (the
    /// same double-checked read/write pattern as the telemetry registry's
    /// labeled histograms).
    fn route_work(&self, route: &str) -> Arc<RouteWork> {
        if let Some(w) = self.work.read().unwrap().get(route) {
            return w.clone();
        }
        self.work.write().unwrap().entry(route.to_string()).or_default().clone()
    }

    /// Attributes the work done since `w0` to `route` and to the engine's
    /// region total, and returns the query's region work. One query runs on
    /// one worker thread, so the thread-local tally deltas are exact;
    /// wrapping subtraction keeps the attribution correct even across tally
    /// overflow.
    fn record_work(&self, route: &str, w0: &WorkSample, solve_us: u64) -> RegionTally {
        let w1 = WorkSample::take();
        let regions = w1.regions.since(&w0.regions);
        let w = self.route_work(route);
        w.computes.fetch_add(1, Ordering::Relaxed);
        w.lp_solves.fetch_add(w1.lp.wrapping_sub(w0.lp), Ordering::Relaxed);
        w.qp_solves.fetch_add(w1.qp.wrapping_sub(w0.qp), Ordering::Relaxed);
        w.region_yields.fetch_add(regions.yields, Ordering::Relaxed);
        w.solve_us.fetch_add(solve_us, Ordering::Relaxed);
        *self.regions.lock().unwrap() += regions;
        regions
    }

    /// The dataset at the current epoch (a snapshot — a concurrent
    /// mutation does not change the returned view).
    pub fn data(&self) -> Arc<EngineData> {
        self.state.lock().unwrap().data.clone()
    }

    /// The current epoch: the number of mutations applied since load.
    pub fn epoch(&self) -> u64 {
        self.state.lock().unwrap().log.epoch()
    }

    /// The current dataset serialized in the `+/-` text format. Loading
    /// this text into a fresh engine yields a byte-identical oracle for
    /// every query — the differential contract of the mutation layer.
    pub fn dataset_text(&self) -> String {
        knn_delta::dataset_text(&self.state.lock().unwrap().data.continuous)
    }

    /// Applies one mutation, bumping the epoch. Acts as a barrier against
    /// batches: a batch snapshots its serving view once, so it sees this
    /// mutation entirely or not at all. Invalidation is selective — class
    /// indexes carry over (the mutated class's patched by one row); region
    /// artifacts drop; epoch-tagged cache entries revalidate or lazily
    /// evict.
    pub fn apply(&self, m: Mutation) -> Result<MutationReceipt, String> {
        let apply_started = self.telemetry.is_enabled().then(Instant::now);
        let mut st = self.state.lock().unwrap();
        m.validate(&st.data.continuous)?;
        // Incremental epoch-view derivation (one exact-size copy of each
        // view's flat buffer) — `with_*` semantics are pinned to
        // `from_continuous` re-derivation.
        // Removals capture the departing point *before* the view swings: the
        // log (and through it guard revalidation) needs it afterwards.
        let (data, applied) = match m {
            Mutation::Insert { point, label } => {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                (st.data.with_insert(&point, label), AppliedMutation::Insert { point, label })
            }
            Mutation::Remove { id } => {
                self.removes.fetch_add(1, Ordering::Relaxed);
                let point = st.data.continuous.point(id).to_vec();
                let label = st.data.continuous.label(id);
                (st.data.with_remove(id), AppliedMutation::Remove { id, point, label })
            }
        };
        let data = Arc::new(data);
        st.artifacts = Arc::new(st.artifacts.carry_over(&st.data, &applied));
        st.data = data.clone();
        st.log.push(applied);
        // Nothing reads farther back than the revalidation window; dropping
        // older entries bounds the log under sustained mutation streams.
        let keep_from = st.log.epoch().saturating_sub(REVALIDATE_WINDOW);
        st.log.compact_before(keep_from);
        let apply_us = apply_started.map(|t0| t0.elapsed().as_micros() as u64).unwrap_or(0);
        if apply_started.is_some() {
            self.phase_apply.record(apply_us);
        }
        // Epoch transitions are rare and forensically load-bearing (they
        // explain artifact rebuilds and cache misses around them), so they
        // are always force-captured.
        let recorder = self.telemetry.recorder();
        let end_us = recorder.now_us();
        recorder.push(
            SpanEvent {
                seq: recorder.next_seq(),
                name: "apply",
                detail: format!("epoch={}", st.log.epoch()),
                tenant: self.tenant.clone(),
                epoch: st.log.epoch(),
                start_us: end_us.saturating_sub(apply_us),
                dur_us: apply_us,
                ..SpanEvent::default()
            },
            true,
        );
        Ok(MutationReceipt {
            epoch: st.log.epoch(),
            points: data.continuous.len(),
            positives: data.continuous.count_of(knn_space::Label::Positive),
            negatives: data.continuous.count_of(knn_space::Label::Negative),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Installs an explanation computed by a *peer* replica — the receiving
    /// half of the cluster's cross-replica cache fill. Returns whether the
    /// entry was actually installed.
    ///
    /// Safety argument (why a pushed entry can never change a response
    /// byte): entries are immutable values keyed by `(epoch, CacheKey)`,
    /// and every replica of a tenant at the same epoch holds a
    /// byte-identical dataset, so a peer's answer at this epoch is the
    /// *same pure function value* this engine would compute. The epoch is
    /// checked under the state lock — a fill for any other epoch than the
    /// current one is dropped (stale fills race mutations; future ones
    /// can't be verified) — and an existing entry at the same or a newer
    /// epoch is never evicted or overwritten, so a locally computed (or
    /// guard-revalidated) entry always wins over a late push. Fills bump
    /// the `filled` counter only, never hits/misses: a pushed entry is
    /// neither a lookup nor a compute.
    pub fn insert_external(
        &self,
        epoch: u64,
        req: &Request,
        route: String,
        result: Result<Outcome, String>,
    ) -> bool {
        if self.config.cache_capacity == 0 {
            return false;
        }
        // Hold the state lock across the insert so a racing `apply` orders
        // entirely before (fill dropped) or after (entry stale-tagged and
        // lazily evicted) — never half-way. State → cache is the existing
        // lock order (`stats`); the reverse nesting never occurs.
        let st = self.state.lock().unwrap();
        if st.log.epoch() != epoch {
            return false;
        }
        let key = req.cache_key();
        let mut cache = self.cache.lock().unwrap();
        if let Some(e) = cache.lookup(&key) {
            if e.epoch >= epoch {
                return false;
            }
        }
        let entry = CachedEntry { epoch, route, result, guard: None };
        let weight = entry_bytes(&key, &entry);
        cache.insert_weighted(key, entry, weight);
        drop(cache);
        drop(st);
        self.filled.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Re-executes an already-served query against the current snapshot and
    /// byte-diffs the result against the served response line — the engine
    /// half of the continuous shadow audit.
    ///
    /// The re-execution deliberately bypasses the explanation cache, the
    /// single-flight table, and the per-route work counters
    /// ([`execute_guarded`](Self::execute_guarded) alone): the audit wants
    /// an independent recomputation, and auditing must never perturb the
    /// serving stats it sits next to. Only when the snapshot still sits at
    /// `epoch` is the comparison meaningful (the invariant fixes the answer
    /// per epoch); a mutation that raced the audit yields
    /// [`AuditOutcome::Stale`], which callers count as skipped, not checked.
    pub fn audit_replay(&self, req: &Request, epoch: u64, expected: &str) -> AuditOutcome {
        let snap = self.snapshot();
        if snap.epoch != epoch {
            return AuditOutcome::Stale;
        }
        let (resp, _, _) = self.execute_guarded(&snap, req, false);
        self.audit_checked.fetch_add(1, Ordering::Relaxed);
        let got = resp.to_json_line();
        if got == expected {
            AuditOutcome::Match
        } else {
            self.audit_diverged.fetch_add(1, Ordering::Relaxed);
            AuditOutcome::Diverged { got }
        }
    }

    /// Answers one request (through the cache) at the current epoch.
    pub fn run(&self, req: &Request) -> Response {
        self.run_with_trace(req).0
    }

    /// [`ExplanationEngine::run`], also returning the query's out-of-band
    /// [`QueryTrace`] (cache outcome, epoch, phase breakdown, region
    /// work) — the one traced entry point. It records no spans and draws
    /// no sampler: the caller decides capture once the query completed and
    /// hands the trace to the span emitter
    /// ([`Recorder::record_query`](knn_telemetry::Recorder::record_query)),
    /// as the server does. Phase timings are zero when telemetry is
    /// disabled.
    pub fn run_with_trace(&self, req: &Request) -> (Response, QueryTrace) {
        let mut trace = QueryTrace::default();
        let resp = self.run_one(&self.snapshot(), req, &mut trace).0;
        (resp, trace)
    }

    /// The serving view queries run against: one cheap clone of the
    /// epoch's `(epoch, data, artifacts)` triple.
    fn snapshot(&self) -> Snapshot {
        let st = self.state.lock().unwrap();
        Snapshot { epoch: st.log.epoch(), data: st.data.clone(), artifacts: st.artifacts.clone() }
    }

    /// Runs the executor with panic isolation: a panicking route (degenerate
    /// geometry tripping an internal solver assert) becomes an error
    /// *response* for that request instead of killing the whole batch — the
    /// same per-request isolation malformed and refused requests get. The
    /// panic message is itself deterministic for a given input, so the
    /// determinism contract holds for these lines too.
    fn execute_guarded(
        &self,
        snap: &Snapshot,
        req: &Request,
        timed: bool,
    ) -> (Response, Option<ClassifyGuard>, exec::PhaseTimes) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec::execute_phased(&snap.data, &snap.artifacts, req, self.config.effort_budget, timed)
        }));
        match outcome {
            Ok(traced) => traced,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                let resp = Response {
                    id: req.id.clone(),
                    route: "error".to_string(),
                    result: Err(format!("internal panic: {msg}")),
                };
                (resp, None, exec::PhaseTimes::default())
            }
        }
    }

    /// Tries to serve `key` from the cache at `snap.epoch`: a same-epoch
    /// entry is a plain hit; an older entry with a guard is revalidated
    /// against the mutation window and promoted on success. Returns the
    /// response body on a hit, plus whether this probe promoted the entry
    /// (a revalidation rather than a plain hit). A failed guard
    /// revalidation is reported through `trace.guard_failed` — to the
    /// caller it is a miss, but the flight recorder treats it as an
    /// anomaly worth forced capture.
    fn cache_probe(
        &self,
        snap: &Snapshot,
        key: &CacheKey,
        trace: &mut QueryTrace,
    ) -> Option<(CachedResult, bool)> {
        enum Probe {
            Hit(CachedResult),
            Stale(u64, ClassifyGuard, CachedResult),
            Miss,
        }
        let probe = {
            let mut cache = self.cache.lock().unwrap();
            let probe = match cache.lookup(key) {
                Some(e) if e.epoch == snap.epoch => Probe::Hit((e.route.clone(), e.result.clone())),
                Some(e) if e.epoch < snap.epoch && snap.epoch - e.epoch <= REVALIDATE_WINDOW => {
                    match &e.guard {
                        Some(g) => {
                            Probe::Stale(e.epoch, g.clone(), (e.route.clone(), e.result.clone()))
                        }
                        None => Probe::Miss,
                    }
                }
                // Absent, stale beyond the window, or from a *newer* epoch
                // than this batch's snapshot (a mutation raced us): compute.
                _ => Probe::Miss,
            };
            match &probe {
                Probe::Hit(_) => cache.record(true),
                Probe::Miss => cache.record(false),
                Probe::Stale(..) => {} // recorded once revalidation decides
            }
            probe
        };
        match probe {
            Probe::Hit(body) => Some((body, false)),
            Probe::Miss => None,
            Probe::Stale(entry_epoch, guard, body) => {
                // Replay the mutation window (bounded) outside the cache
                // lock. `range` ends at the snapshot epoch, so mutations
                // racing past our snapshot are not replayed; a window that
                // predates the log's compaction base comes back `None` and
                // is a plain miss — replaying a partial window would be
                // unsound.
                let window: Option<Vec<AppliedMutation>> = {
                    let st = self.state.lock().unwrap();
                    st.log.range(entry_epoch, snap.epoch).map(|w| w.to_vec())
                };
                let survives =
                    window.is_some_and(|w| guard.survives(&w, snap.data.continuous.len()));
                let mut cache = self.cache.lock().unwrap();
                cache.record(survives);
                if !survives {
                    self.revalidation_failed.fetch_add(1, Ordering::Relaxed);
                    trace.guard_failed = true;
                    return None;
                }
                // Two probes of one stale key can both replay the window;
                // only the one that promotes the entry counts it as
                // revalidated, the other is a plain hit.
                let promoted = cache.lookup(key).is_some_and(|e| {
                    let stale = e.epoch == entry_epoch;
                    if stale {
                        e.epoch = snap.epoch;
                    }
                    stale
                });
                if promoted {
                    self.revalidated.fetch_add(1, Ordering::Relaxed);
                }
                Some((body, promoted))
            }
        }
    }

    /// Computes a response (no cache involvement). Its work is always
    /// recorded ([`Self::record_work`]) and its region yields and prunes
    /// go into `trace`; plan/solve phase timings and the artifact build
    /// time attributable to this query are recorded when telemetry is
    /// enabled. The build time is a delta of an engine-wide counter around
    /// the call: exact when computes don't race, approximate when they do.
    fn compute_timed(
        &self,
        snap: &Snapshot,
        req: &Request,
        enabled: bool,
        trace: &mut QueryTrace,
    ) -> (Response, Option<ClassifyGuard>) {
        let build0 = enabled.then(|| snap.artifacts.metrics().build_nanos());
        let w0 = WorkSample::take();
        let (resp, guard, phases) = self.execute_guarded(snap, req, enabled);
        let regions = self.record_work(&resp.route, &w0, phases.solve_us);
        trace.region_yields = regions.yields;
        trace.region_pruned = regions.pruned();
        trace.demoted = phases.demoted;
        if enabled {
            trace.plan_us = phases.plan_us;
            trace.solve_us = phases.solve_us;
            self.phase_plan.record(phases.plan_us);
            self.phase_solve.record(phases.solve_us);
            if let Some(b0) = build0 {
                let delta_us = snap.artifacts.metrics().build_nanos().saturating_sub(b0) / 1_000;
                trace.artifact_us = delta_us;
                if delta_us > 0 {
                    self.phase_artifact.record(delta_us);
                }
            }
        }
        (resp, guard)
    }

    /// [`run_one`](ExplanationEngine::run_one) on the batch path: one
    /// sampler draw per query, and the span emitter records the query's
    /// family when the draw fires or an anomaly occurred. Unelected
    /// queries pay one thread-local counter bump and nothing else.
    fn run_sampled(&self, snap: &Snapshot, req: &Request) -> (Response, bool) {
        let mut trace = QueryTrace::default();
        let (resp, hit) = self.run_one(snap, req, &mut trace);
        let recorder = self.telemetry.recorder();
        let q = QuerySpans {
            trace: "",
            tenant: &self.tenant,
            id: &resp.id,
            route: &resp.route,
            qt: &trace,
            err: resp.result.is_err(),
            slow: false,
            total_us: trace.cache_us + trace.plan_us + trace.artifact_us + trace.solve_us,
            admission_us: None,
            conn: 0,
            seq: 0,
        };
        if recorder.sample() || !q.anomaly().is_empty() {
            recorder.record_query(&q);
        }
        (resp, hit)
    }

    /// `run` plus whether the response came from the cache (directly,
    /// revalidated across epochs, or coalesced onto another worker's
    /// in-flight computation). Fills `trace` with the query's phase
    /// breakdown; tracing is out-of-band and never alters the response.
    ///
    /// The cache-probe phase is timed on a 1-in-[`CACHE_PROBE_SAMPLE`]
    /// basis (see [`sample_cache_probe`]); all other phases run only on
    /// compute paths, where their cost is amortised over the solve, and
    /// are timed on every query.
    fn run_one(&self, snap: &Snapshot, req: &Request, trace: &mut QueryTrace) -> (Response, bool) {
        trace.epoch = snap.epoch;
        let enabled = self.telemetry.is_enabled();
        if self.config.cache_capacity == 0 {
            trace.cache = "uncached";
            return (self.compute_timed(snap, req, enabled, trace).0, false);
        }
        let key = req.cache_key();
        let probe_started = (enabled && sample_cache_probe()).then(Instant::now);
        let probed = self.cache_probe(snap, &key, trace);
        if let Some(t0) = probe_started {
            let us = t0.elapsed().as_micros() as u64;
            trace.cache_us = us;
            self.phase_cache.record(us);
        }
        if let Some(((route, result), revalidated)) = probed {
            trace.cache = if revalidated { "revalidated" } else { "hit" };
            return (Response { id: req.id.clone(), route, result }, true);
        }
        // Cache miss: claim or join the in-flight slot for this key at this
        // epoch. The claimant locks its slot *before* publishing it to the
        // table, so a joiner can never observe an unlocked-but-empty slot
        // and recompute.
        let flight_key = (snap.epoch, key.clone());
        let own_slot = Arc::new(Mutex::new(None));
        let mut own_guard = own_slot.lock().unwrap();
        let joined = match self.inflight.lock().unwrap().entry(flight_key.clone()) {
            Entry::Occupied(e) => Some(e.get().clone()),
            Entry::Vacant(v) => {
                v.insert(own_slot.clone());
                None
            }
        };
        if let Some(theirs) = joined {
            drop(own_guard);
            // Blocks until the computing worker releases the slot. Caching is
            // transparent (responses are pure functions of the request), so
            // this changes cost, never bytes.
            let slot = theirs.lock().unwrap();
            if let Some((route, result)) = slot.as_ref() {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                trace.cache = "coalesced";
                return (
                    Response { id: req.id.clone(), route: route.clone(), result: result.clone() },
                    true,
                );
            }
            // Unreachable unless the computing worker died without
            // publishing; compute independently as a last resort.
            drop(slot);
            trace.cache = "miss";
            return (self.compute_timed(snap, req, enabled, trace).0, false);
        }
        trace.cache = "miss";
        let (resp, guard) = self.compute_timed(snap, req, enabled, trace);
        *own_guard = Some((resp.route.clone(), resp.result.clone()));
        let entry = CachedEntry {
            epoch: snap.epoch,
            route: resp.route.clone(),
            result: resp.result.clone(),
            guard,
        };
        let weight = entry_bytes(&key, &entry);
        self.cache.lock().unwrap().insert_weighted(key, entry, weight);
        drop(own_guard);
        self.inflight.lock().unwrap().remove(&flight_key);
        (resp, false)
    }

    /// Executes a batch concurrently. The returned vector is index-aligned
    /// with `requests`, and its contents are byte-identical for every worker
    /// count and for any permutation of a batch (modulo the matching
    /// permutation of the output).
    pub fn run_batch(&self, requests: &[Request]) -> Vec<Response> {
        self.run_batch_with_stats(requests).0
    }

    /// [`ExplanationEngine::run_batch`] with aggregate statistics.
    pub fn run_batch_with_stats(&self, requests: &[Request]) -> (Vec<Response>, BatchStats) {
        let started = Instant::now();
        let workers = self.effective_workers(requests.len());
        let hits = AtomicUsize::new(0);
        let mut responses: Vec<Option<Response>> = Vec::with_capacity(requests.len());
        responses.resize_with(requests.len(), || None);

        // The mutation/query barrier: one snapshot for the whole batch.
        // Every query in this batch sees the same epoch, so a concurrent
        // `apply` orders entirely before or after the batch and the output
        // stays byte-deterministic.
        let snap = self.snapshot();

        if workers <= 1 {
            for (i, req) in requests.iter().enumerate() {
                let (resp, hit) = self.run_sampled(&snap, req);
                if hit {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
                responses[i] = Some(resp);
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, Response, bool)>();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    let snap = &snap;
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= requests.len() {
                            break;
                        }
                        let (resp, hit) = self.run_sampled(snap, &requests[i]);
                        if tx.send((i, resp, hit)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (i, resp, hit) in rx {
                    if hit {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                    responses[i] = Some(resp);
                }
            });
        }

        let responses: Vec<Response> =
            responses.into_iter().map(|r| r.expect("every index answered")).collect();
        let stats = BatchStats {
            requests: requests.len(),
            cache_hits: hits.load(Ordering::Relaxed),
            errors: responses.iter().filter(|r| r.result.is_err()).count(),
            workers,
            wall: started.elapsed(),
        };
        (responses, stats)
    }

    /// Parses a JSON-lines batch (blank lines skipped; a malformed line
    /// becomes an error *response* in place, so the output stream stays
    /// aligned with the input), runs it, and returns the response lines plus
    /// stats.
    pub fn run_jsonl(&self, input: &str) -> (String, BatchStats) {
        // Requests and parse failures both carry (output slot, 1-based input
        // line number); id-less requests and error lines are identified by
        // the line number, matching the `line N:` prefix of parse errors.
        let mut requests: Vec<(usize, Request)> = Vec::new();
        let mut parse_errors: Vec<(usize, usize, String)> = Vec::new();
        for (lineno, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let slot = requests.len() + parse_errors.len();
            match Request::from_json_line(line, &(lineno + 1).to_string()) {
                Ok(r) => requests.push((slot, r)),
                Err(e) => {
                    parse_errors.push((slot, lineno + 1, format!("line {}: {e}", lineno + 1)))
                }
            }
        }
        let reqs: Vec<Request> = requests.iter().map(|(_, r)| r.clone()).collect();
        let (resps, stats) = self.run_batch_with_stats(&reqs);

        let total = requests.len() + parse_errors.len();
        let mut lines: Vec<Option<String>> = vec![None; total];
        for ((slot, _), resp) in requests.iter().zip(&resps) {
            lines[*slot] = Some(resp.to_json_line());
        }
        for (slot, lineno, err) in &parse_errors {
            let resp = Response {
                id: lineno.to_string(),
                route: "error".to_string(),
                result: Err(err.clone()),
            };
            lines[*slot] = Some(resp.to_json_line());
        }
        let mut out = String::new();
        for line in lines.into_iter().flatten() {
            out.push_str(&line);
            out.push('\n');
        }
        let stats =
            BatchStats { requests: total, errors: stats.errors + parse_errors.len(), ..stats };
        (out, stats)
    }

    fn effective_workers(&self, batch_len: usize) -> usize {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let configured = if self.config.workers == 0 { hw } else { self.config.workers };
        configured.clamp(1, batch_len.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_space::ContinuousDataset;

    fn engine(config: EngineConfig) -> ExplanationEngine {
        // 0/1 dataset → both the continuous and the boolean views exist, so
        // every metric is servable.
        let ds = ContinuousDataset::from_sets(
            vec![vec![1.0, 1.0, 1.0], vec![1.0, 1.0, 0.0], vec![1.0, 0.0, 1.0]],
            vec![vec![0.0, 0.0, 0.0], vec![0.0, 0.0, 1.0], vec![0.0, 1.0, 0.0]],
        );
        ExplanationEngine::new(EngineData::from_continuous(ds), config)
    }

    fn req(line: &str) -> Request {
        Request::from_json_line(line, "0").unwrap()
    }

    #[test]
    fn classify_matches_reference_classifier() {
        let e = engine(EngineConfig::default());
        let data = e.data();
        for (metric, point) in
            [("l2", "[0.9,0.2,0.4]"), ("l1", "[0.1,0.9,0.2]"), ("hamming", "[1,0,0]")]
        {
            for k in [1u32, 3] {
                let r = req(&format!(
                    r#"{{"cmd":"classify","metric":"{metric}","k":{k},"point":{point}}}"#
                ));
                let resp = e.run(&r);
                let Ok(Outcome::Label(fast)) = resp.result else {
                    panic!("classify failed: {resp:?}")
                };
                // Reference: the O(n·d) scan classifier.
                let expected = match r.metric {
                    Metric::Hamming => {
                        let ds = data.boolean.as_ref().unwrap();
                        let bx = knn_space::BitVec::from_bools(
                            &r.point.iter().map(|&v| v == 1.0).collect::<Vec<_>>(),
                        );
                        knn_core::BooleanKnn::new(ds, knn_space::OddK::of(k)).classify(&bx)
                    }
                    m => {
                        let p = m.lp_exponent().unwrap();
                        knn_core::ContinuousKnn::new(
                            &data.continuous,
                            knn_space::LpMetric::new(p),
                            knn_space::OddK::of(k),
                        )
                        .classify(&r.point)
                    }
                };
                assert_eq!(fast, expected, "metric {metric} k {k}");
            }
        }
    }

    #[test]
    fn cache_serves_identical_bytes() {
        let e = engine(EngineConfig::default());
        let r = req(r#"{"id":"x","cmd":"counterfactual","metric":"hamming","point":[1,0,0]}"#);
        let snap = e.snapshot();
        let mut t1 = QueryTrace::default();
        let mut t2 = QueryTrace::default();
        let (first, hit1) = e.run_one(&snap, &r, &mut t1);
        let (second, hit2) = e.run_one(&snap, &r, &mut t2);
        assert!(!hit1);
        assert!(hit2, "second identical query must hit the cache");
        assert_eq!(first.to_json_line(), second.to_json_line());
    }

    #[test]
    fn batch_output_is_order_preserving_and_id_stable() {
        let e = engine(EngineConfig { workers: 4, ..EngineConfig::default() });
        let reqs: Vec<Request> = (0..40)
            .map(|i| {
                req(&format!(
                    r#"{{"id":"q{i}","cmd":"classify","metric":"l2","point":[{},0.5,0.25]}}"#,
                    (i as f64) / 7.0 - 2.0
                ))
            })
            .collect();
        let resps = e.run_batch(&reqs);
        assert_eq!(resps.len(), 40);
        for (i, r) in resps.iter().enumerate() {
            assert_eq!(r.id, format!("q{i}"), "output stays index-aligned");
        }
    }

    #[test]
    fn jsonl_stream_keeps_malformed_lines_aligned() {
        let e = engine(EngineConfig::default());
        let input = "\n{\"cmd\":\"classify\",\"point\":[1,1,1]}\nnot json\n{\"cmd\":\"fly\",\"point\":[1,1,1]}\n";
        let (out, stats) = e.run_jsonl(input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\":false"), "{}", lines[1]);
        assert!(lines[2].contains("unknown cmd"), "{}", lines[2]);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 2);
    }

    #[test]
    fn executor_panics_become_error_responses() {
        // A deliberately inconsistent EngineData (boolean view of a different
        // dimension) makes the Hamming route panic inside knn-core; the
        // engine must convert that into an error response for the one
        // request and keep serving the rest of the batch.
        let continuous = ContinuousDataset::from_sets(vec![vec![1.0, 1.0]], vec![vec![0.0, 0.0]]);
        let mut boolean = knn_space::BooleanDataset::new(3);
        boolean.push(knn_space::BitVec::from_bits(&[1, 1, 1]), knn_space::Label::Positive);
        boolean.push(knn_space::BitVec::from_bits(&[0, 0, 0]), knn_space::Label::Negative);
        let e = ExplanationEngine::new(
            EngineData::new(continuous, Some(boolean)),
            EngineConfig { workers: 2, ..EngineConfig::default() },
        );
        let batch = [
            req(r#"{"id":"bad","cmd":"classify","metric":"hamming","point":[1,0]}"#),
            req(r#"{"id":"good","cmd":"classify","metric":"l2","point":[1.0,0.0]}"#),
        ];
        let resps = e.run_batch(&batch);
        let err = resps[0].result.as_ref().unwrap_err();
        assert!(err.contains("internal panic"), "{err}");
        assert!(resps[1].result.is_ok(), "other requests keep being served");
    }

    #[test]
    fn budget_demotes_and_flags() {
        let exact = engine(EngineConfig::default());
        let budgeted =
            engine(EngineConfig { effort_budget: Some(1_000_000), ..EngineConfig::default() });
        let r = req(r#"{"cmd":"minimum-sr","metric":"hamming","k":3,"point":[1,0,0]}"#);
        let Ok(Outcome::Reason { features: exact_sr, optimal: true }) = exact.run(&r).result else {
            panic!("exact run failed")
        };
        let Ok(Outcome::Reason { features: greedy_sr, optimal: false }) = budgeted.run(&r).result
        else {
            panic!("budgeted run must flag optimal=false")
        };
        assert!(greedy_sr.len() >= exact_sr.len(), "greedy upper-bounds the minimum");
    }

    /// The differential contract in miniature: after every mutation, every
    /// query answers byte-identically to a fresh engine loaded from the
    /// mutated engine's serialized dataset. (The full property lives in
    /// `tests/prop_mutation.rs`.)
    #[test]
    fn mutated_engine_matches_fresh_load_oracle() {
        let e = engine(EngineConfig::default());
        let queries: Vec<Request> = ["l2", "l1", "hamming"]
            .iter()
            .flat_map(|metric| {
                [("classify", 1u32), ("classify", 3), ("minimal-sr", 1), ("counterfactual", 1)]
                    .iter()
                    .map(|(cmd, k)| {
                        req(&format!(
                            r#"{{"id":"{cmd}-{metric}-{k}","cmd":"{cmd}","metric":"{metric}","k":{k},"point":[1,0,0]}}"#
                        ))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();

        use knn_space::Label;
        let mutations = [
            Mutation::Insert { point: vec![1.0, 0.0, 0.0], label: Label::Positive },
            Mutation::Remove { id: 0 },
            Mutation::Insert { point: vec![0.0, 1.0, 1.0], label: Label::Negative },
            Mutation::Remove { id: 4 },
        ];
        for (step, m) in mutations.into_iter().enumerate() {
            let receipt = e.apply(m).unwrap();
            assert_eq!(receipt.epoch, step as u64 + 1);
            let oracle = ExplanationEngine::new(
                textfmt::parse_dataset(&e.dataset_text()).unwrap(),
                EngineConfig::default(),
            );
            for q in &queries {
                assert_eq!(
                    e.run(q).to_json_line(),
                    oracle.run(q).to_json_line(),
                    "step {step} id {}",
                    q.id
                );
            }
        }
        let s = e.stats();
        assert_eq!((s.epoch, s.inserts, s.removes), (4, 2, 2));
    }

    /// Patched class indexes: a mutation carries every class index into the
    /// next epoch — the untouched class's as is, the mutated class's with
    /// one row appended or removed — so the next classify builds nothing.
    /// Pinned via the live `artifacts_built` gauge and the lifetime
    /// built/carried counters.
    #[test]
    fn mutation_invalidates_only_the_touched_class_indexes() {
        // Cache off: a revalidated classify hit would (correctly) dodge the
        // index lookups this test wants to observe.
        let e = engine(EngineConfig { cache_capacity: 0, ..EngineConfig::default() });
        let l2 = req(r#"{"cmd":"classify","metric":"l2","point":[0.9,0.2,0.4]}"#);
        let hamming = req(r#"{"cmd":"classify","metric":"hamming","point":[1,0,0]}"#);
        e.run(&l2);
        e.run(&hamming);
        let s = e.stats();
        assert_eq!(s.artifacts_built, 4, "both classes' ℓ2 + Hamming scans warm");
        assert_eq!((s.artifacts_built_total, s.artifacts_carried), (4, 0));

        e.apply(Mutation::Insert { point: vec![1.0, 1.0, 1.0], label: knn_space::Label::Positive })
            .unwrap();
        let s = e.stats();
        assert_eq!(s.artifacts_built, 4, "every class index crosses the epoch");
        assert_eq!((s.artifacts_built_total, s.artifacts_carried), (4, 4));
        e.run(&l2);
        e.run(&hamming);
        assert_eq!(e.stats().artifacts_built_total, 4, "the next classify builds nothing");

        // A non-0/1 insert takes the boolean view, and the Hamming scans
        // with it; the ℓ2 scans are patched as before.
        e.apply(Mutation::Insert { point: vec![0.5, 1.0, 1.0], label: knn_space::Label::Negative })
            .unwrap();
        let s = e.stats();
        assert_eq!(s.artifacts_built, 2);
        assert_eq!((s.artifacts_built_total, s.artifacts_carried), (4, 6));
        e.run(&l2);
        assert_eq!(e.stats().artifacts_built_total, 4);
    }

    /// Guarded classify entries cross benign epochs as cache hits; entries
    /// whose statistics a mutation could have moved recompute.
    #[test]
    fn classify_cache_revalidates_across_benign_mutations() {
        use knn_space::Label;
        let ds = ContinuousDataset::from_sets(
            vec![vec![5.0, 5.0, 5.0], vec![5.0, 5.0, 4.0]],
            vec![vec![0.0, 0.0, 0.0], vec![0.0, 0.0, 1.0]],
        );
        let e = ExplanationEngine::new(EngineData::from_continuous(ds), EngineConfig::default());
        let far = req(r#"{"id":"far","cmd":"classify","metric":"l2","point":[5,5,6]}"#);
        let near = req(r#"{"id":"near","cmd":"classify","metric":"l2","point":[0,1,0]}"#);
        let (far_cold, near_cold) = (e.run(&far), e.run(&near));
        assert_eq!(e.stats().cache.misses, 2);

        // A negative insert right on top of `near`: provably irrelevant to
        // `far` (distance ≥ its negative-class statistic), fatal to `near`.
        e.apply(Mutation::Insert { point: vec![0.0, 1.0, 0.0], label: Label::Negative }).unwrap();

        let far_warm = e.run(&far);
        assert_eq!(far_warm.to_json_line(), far_cold.to_json_line());
        let s = e.stats();
        assert_eq!(s.revalidated, 1, "far entry promoted across the epoch, not recomputed");
        assert_eq!(s.cache.hits, 1);

        let near_warm = e.run(&near);
        let s = e.stats();
        assert_eq!(s.revalidated, 1, "near entry must not revalidate");
        assert_eq!(s.cache.misses, 3, "near re-misses at the new epoch");
        // Both answers still match the fresh-load oracle.
        let oracle = ExplanationEngine::new(
            textfmt::parse_dataset(&e.dataset_text()).unwrap(),
            EngineConfig::default(),
        );
        assert_eq!(near_warm.to_json_line(), oracle.run(&near).to_json_line());
        assert_eq!(far_warm.to_json_line(), oracle.run(&far).to_json_line());
        let _ = near_cold;
    }

    /// Workers that probe one stale key at once all get the cached answer,
    /// but only the probe that promotes the entry counts as revalidated:
    /// each benign mutation adds exactly one. A stress test (16 copies of
    /// the key over 4 workers per epoch); it forces no interleaving.
    #[test]
    fn concurrent_stale_probes_revalidate_once() {
        use knn_space::Label;
        let ds = ContinuousDataset::from_sets(
            vec![vec![5.0, 5.0, 5.0], vec![5.0, 5.0, 4.0]],
            vec![vec![0.0, 0.0, 0.0], vec![0.0, 0.0, 1.0]],
        );
        let config = EngineConfig { workers: 4, ..EngineConfig::default() };
        let e = ExplanationEngine::new(EngineData::from_continuous(ds), config);
        let far = req(r#"{"id":"far","cmd":"classify","metric":"l2","point":[5,5,6]}"#);
        let cold = e.run(&far).to_json_line();
        let batch = vec![far; 16];
        for epoch in 1..=20u64 {
            let z = -(epoch as f64);
            e.apply(Mutation::Insert { point: vec![0.0, 0.0, z], label: Label::Negative }).unwrap();
            let out = e.run_batch(&batch);
            assert!(out.iter().all(|r| r.to_json_line() == cold));
            assert_eq!(e.stats().revalidated, epoch, "one promotion per epoch");
        }
    }

    /// Invalid mutations are rejected atomically: no epoch bump, no
    /// invalidation.
    #[test]
    fn invalid_mutations_leave_the_engine_untouched() {
        use knn_space::Label;
        let e = engine(EngineConfig::default());
        assert!(e.apply(Mutation::Insert { point: vec![1.0], label: Label::Positive }).is_err());
        assert!(e.apply(Mutation::Remove { id: 99 }).is_err());
        assert_eq!(e.epoch(), 0);
        let s = e.stats();
        assert_eq!((s.inserts, s.removes), (0, 0));
    }

    /// A fill at the current epoch serves later queries byte-identically to
    /// a local compute; a fill for a stale epoch is dropped; a fill never
    /// overwrites an entry the engine already holds at that epoch.
    #[test]
    fn external_fill_is_epoch_checked_and_never_clobbers() {
        let computing = engine(EngineConfig::default());
        let receiving = engine(EngineConfig::default());
        let r = req(r#"{"id":"x","cmd":"counterfactual","metric":"hamming","point":[1,0,0]}"#);
        let computed = computing.run(&r);

        assert!(receiving.insert_external(0, &r, computed.route.clone(), computed.result.clone()));
        let served = receiving.run(&r);
        assert_eq!(served.to_json_line(), computed.to_json_line());
        let s = receiving.stats();
        assert_eq!((s.filled, s.cache.hits, s.cache.misses), (1, 1, 0), "fill then pure hit");

        // Stale epoch: the receiving engine moves to epoch 1; a fill still
        // labeled epoch 0 must be dropped, and the key recomputes.
        receiving
            .apply(Mutation::Insert {
                point: vec![1.0, 1.0, 0.0],
                label: knn_space::Label::Positive,
            })
            .unwrap();
        let q2 = req(r#"{"id":"y","cmd":"classify","metric":"l2","point":[0.2,0.2,0.9]}"#);
        assert!(
            !receiving.insert_external(0, &q2, "kdtree".into(), computed.result.clone()),
            "stale-epoch fill must be dropped"
        );
        assert_eq!(receiving.stats().filled, 1);

        // Never clobber: compute locally at epoch 1, then push a garbage
        // fill for the same key at the same epoch — the local entry wins.
        let local = receiving.run(&q2);
        assert!(!receiving.insert_external(1, &q2, "error".into(), Err("poison".into())));
        assert_eq!(receiving.run(&q2).to_json_line(), local.to_json_line());
    }

    /// The resource gauges and per-route work counters populate as the
    /// engine serves, and cache hits never count as computes.
    #[test]
    fn resource_and_work_accounting_populate() {
        let e = engine(EngineConfig::default());
        let s0 = e.stats().resources;
        assert!(s0.dataset_bytes > 0, "dataset bytes report before any query");
        assert_eq!(s0.cache_bytes, 0);
        assert!(e.work_stats().is_empty());

        let r = req(r#"{"cmd":"counterfactual","metric":"l2","point":[0.4,0.6,0.5]}"#);
        assert!(e.run(&r).result.is_ok());
        assert!(e.run(&r).result.is_ok()); // cache hit: no second compute

        let s = e.stats().resources;
        assert!(s.cache_bytes > 0, "cached entry weighs in");
        assert!(s.artifact_bytes > 0, "built artifacts weigh in");
        assert!(s.total_bytes() >= s.dataset_bytes + s.cache_bytes);
        let work = e.work_stats();
        assert_eq!(work.len(), 1, "one route exercised: {work:?}");
        assert_eq!(work[0].computes, 1, "the hit must not re-count");
        let solver_work = work[0].lp_solves + work[0].qp_solves + work[0].region_yields;
        assert!(solver_work > 0, "a counterfactual does solver-layer work: {work:?}");
    }

    /// Region work is counted once, by the thread-local tally: the traces
    /// of ℓ2 queries served by two threads at once sum to the engine's
    /// region totals, `stats().regions.yields` is the routes' summed
    /// `region_yields`, and auditing every served query counts nothing.
    #[test]
    fn region_work_is_counted_once() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(27);
        // Grid points repeat across the classes and line up, so the
        // pruner has empty and dominated regions to skip.
        let mut pts = |n: usize| -> Vec<Vec<f64>> {
            (0..n).map(|_| (0..4).map(|_| f64::from(rng.gen_range(0..3u8))).collect()).collect()
        };
        let ds = ContinuousDataset::from_sets(pts(12), pts(12));
        let e = ExplanationEngine::new(EngineData::from_continuous(ds), EngineConfig::default());
        let reqs: Vec<Request> = pts(24)
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (k, cmd) = (1 + 2 * (i % 2), ["check-sr", "counterfactual"][i / 2 % 2]);
                req(&format!(
                    r#"{{"id":"{i}","cmd":"{cmd}","metric":"l2","k":{k},"point":{p:?},"features":[{}]}}"#,
                    i % 4
                ))
            })
            .collect();
        let served: Vec<(Response, QueryTrace)> = std::thread::scope(|s| {
            let halves: Vec<_> = reqs
                .chunks(reqs.len() / 2)
                .map(|half| {
                    let e = &e;
                    s.spawn(move || half.iter().map(|r| e.run_with_trace(r)).collect::<Vec<_>>())
                })
                .collect();
            halves.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let regions = e.stats().regions;
        assert!(regions.yields > 0 && regions.pruned() > 0, "{regions:?}");
        let traced = |f: fn(&QueryTrace) -> u64| served.iter().map(|(_, t)| f(t)).sum::<u64>();
        assert_eq!(traced(|t| t.region_yields), regions.yields);
        assert_eq!(traced(|t| t.region_pruned), regions.pruned());
        let routed: u64 = e.work_stats().iter().map(|w| w.region_yields).sum();
        assert_eq!(routed, regions.yields);
        for (r, (resp, _)) in reqs.iter().zip(&served) {
            assert!(resp.result.is_ok(), "{resp:?}");
            let audit = e.audit_replay(r, 0, &resp.to_json_line());
            assert!(matches!(audit, AuditOutcome::Match), "{audit:?}");
        }
        assert_eq!(e.stats().regions, regions, "an audit must not count as served work");
    }
}
