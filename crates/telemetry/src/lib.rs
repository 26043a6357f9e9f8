//! Out-of-band observability for the explainable k-NN serving stack.
//!
//! The serving layers' load-bearing invariant — every response line is a
//! pure function of `(dataset at the query's epoch, config, request)` — is
//! exactly what makes telemetry safe to bolt on: nothing recorded here may
//! ever flow back into response bytes. This crate therefore holds only
//! **write-mostly, read-on-demand** state:
//!
//! * [`Histogram`] — a lock-free fixed-bucket log2 latency histogram
//!   (32 atomic u64 buckets over microseconds) that is cheap to record
//!   into, mergeable bucket-wise across processes, and good enough to
//!   derive p50/p90/p99/max from.
//! * [`Telemetry`] — the per-process registry: end-to-end latency per
//!   `(tenant, route)`, phase timings per `(tenant, phase)`, and
//!   free-form named histograms and counters. Recording is gated on an [`enabled`](Telemetry::set_enabled) flag
//!   (default **off**) so library users — `xknn batch`, the benches'
//!   baseline arms — pay one relaxed atomic load and nothing else.
//! * [`exposition`] — Prometheus text rendering, a total parser, and the
//!   bucket-wise merge the cluster router uses to aggregate backend
//!   expositions into one scrape surface.
//! * [`recorder`] — the always-on flight recorder: a bounded ring of
//!   structured [`span`] events (reservoir-sampled traffic plus forced
//!   anomaly capture) that the `trace` / `dump` control verbs reconstruct
//!   into span trees and [`chrome`] trace-event dumps. Its one query span
//!   emitter ([`QuerySpans`]) runs after each query completes, and the
//!   `slow` verb is a read of its forced ring ([`Recorder::slowest`]).
//! * [`capture`] — the always-on black-box ring of raw served
//!   request/response lines the `repro` verb turns into replayable
//!   bundles, and the shadow-audit sampler whose background auditor
//!   re-executes a 1-in-N sample of served queries.
//!
//! Everything is std-only and shared behind `Arc`s; the server and router
//! surface the state through `metrics` / `slow` / `trace` / `dump` /
//! `repro` control verbs, and benches snapshot it directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capture;
pub mod chrome;
pub mod exposition;
pub mod recorder;
pub mod slo;
pub mod span;

pub use capture::{AuditJob, AuditSampler, CaptureEntry, CaptureRing};
pub use recorder::Recorder;
pub use slo::{SloObjective, SloRegistry, SloStatus};
pub use span::{QuerySpans, SlowQuery, SpanEvent};

use exposition::{Family, Merge};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of log2 buckets per histogram. Bucket `i` covers
/// `[2^i, 2^(i+1))` µs (bucket 0 also absorbs 0; the last bucket absorbs
/// everything ≥ 2^31 µs ≈ 36 minutes).
pub const BUCKETS: usize = 32;

/// The bucket a microsecond value falls into (see [`BUCKETS`]).
#[inline]
pub fn bucket_index(us: u64) -> usize {
    (63 - (us | 1).leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` in µs; `u64::MAX` for the last
/// bucket (rendered as `le="+Inf"`).
pub fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

/// Stripes per [`Histogram`]: each recording thread lands on one stripe, so
/// worker threads on different stripes never touch the same cache lines.
const STRIPES: usize = 8;

/// One stripe of histogram counters, cache-line aligned so that adjacent
/// stripes in the array never false-share.
#[derive(Debug)]
#[repr(align(128))]
struct Stripe {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Stripe {
    fn new() -> Stripe {
        Stripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

/// The stripe this thread records into: assigned round-robin on first use,
/// then pinned for the thread's lifetime via a thread-local.
fn stripe_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
        s.set(v);
        v
    })
}

/// A lock-free log2 latency histogram over microseconds.
///
/// All mutation is relaxed atomics, striped per recording thread so that
/// engine workers hammering the same phase histogram never contend on a
/// cache line — recording is a handful of uncontended `fetch_add`s. A
/// concurrent [`snapshot`](Histogram::snapshot) folds the stripes and sees
/// some valid interleaving (telemetry, not accounting). Every histogram
/// has the same 32 buckets, which is what makes the router's key-wise
/// sum-merge of rendered expositions exact.
#[derive(Debug)]
pub struct Histogram {
    stripes: [Stripe; STRIPES],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { stripes: std::array::from_fn(|_| Stripe::new()) }
    }

    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        let stripe = &self.stripes[stripe_id()];
        stripe.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        stripe.sum_us.fetch_add(us, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters, folded across stripes.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        for stripe in &self.stripes {
            for (b, s) in snap.buckets.iter_mut().zip(stripe.buckets.iter()) {
                *b += s.load(Ordering::Relaxed);
            }
            snap.sum_us += stripe.sum_us.load(Ordering::Relaxed);
            snap.count += stripe.count.load(Ordering::Relaxed);
            snap.max_us = snap.max_us.max(stripe.max_us.load(Ordering::Relaxed));
        }
        snap
    }
}

/// An owned copy of a [`Histogram`]'s counters: mergeable, and the place
/// quantiles are derived.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (non-cumulative).
    pub buckets: [u64; BUCKETS],
    /// Sum of all observed values, µs.
    pub sum_us: u64,
    /// Number of observations.
    pub count: u64,
    /// Largest observed value, µs (exact, via `fetch_max`).
    pub max_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot { buckets: [0; BUCKETS], sum_us: 0, count: 0, max_us: 0 }
    }
}

impl HistogramSnapshot {
    /// Bucket-wise accumulate `other` into `self` (sum counts, max the max).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.sum_us += other.sum_us;
        self.count += other.count;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// An upper bound on the `q`-quantile (0 < `q` ≤ 1) in µs: the upper
    /// edge of the first bucket whose cumulative count reaches
    /// `ceil(q · count)`, clamped to the exact max. 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return bucket_upper(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// The window between an `earlier` cumulative snapshot and `self`:
    /// bucket-wise saturating difference of counts and sums. `max_us`
    /// carries `self`'s cumulative max — the per-window max is not
    /// tracked, so the cumulative value serves as its upper bound (which
    /// keeps [`HistogramSnapshot::quantile_us`] an upper bound too).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for (o, (s, e)) in out.buckets.iter_mut().zip(self.buckets.iter().zip(&earlier.buckets)) {
            *o = s.saturating_sub(*e);
        }
        out.sum_us = self.sum_us.saturating_sub(earlier.sum_us);
        out.count = self.count.saturating_sub(earlier.count);
        out.max_us = self.max_us;
        out
    }

    /// Observations in buckets whose upper edge exceeds `threshold_us`. A
    /// bucket straddling the threshold counts entirely, so this is an
    /// over-count of threshold-breaking observations — the SLO engine's
    /// conservative-toward-alerting "bad" count.
    pub fn count_over(&self, threshold_us: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| bucket_upper(*i) > threshold_us)
            .map(|(_, b)| *b)
            .sum()
    }

    /// The median upper bound, µs.
    pub fn p50(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// The 90th-percentile upper bound, µs.
    pub fn p90(&self) -> u64 {
        self.quantile_us(0.90)
    }

    /// The 99th-percentile upper bound, µs.
    pub fn p99(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

/// Per-query phase breakdown the engine fills while executing one request.
///
/// The engine returns this next to the response (never inside it); the
/// serving layer adds admission wait and end-to-end wall time and, when
/// the query is captured, hands all of it to the span emitter
/// ([`QuerySpans`]). Timings are zero when telemetry is disabled — the
/// engine skips the clock reads entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Cache outcome: `hit`, `revalidated`, `miss`, `coalesced`, or
    /// `uncached` (cache capacity 0). Always filled, even when disabled.
    pub cache: &'static str,
    /// Dataset epoch the query answered at. Always filled.
    pub epoch: u64,
    /// Planner time, µs.
    pub plan_us: u64,
    /// Artifact build time this query paid (builder-side only), µs.
    pub artifact_us: u64,
    /// Cache lookup + guard revalidation time, µs (sampled: the engine
    /// times 1-in-N probes, so this is zero for most warm hits).
    pub cache_us: u64,
    /// Solver time, µs.
    pub solve_us: u64,
    /// Region polyhedra this query's compute yielded (misses only; read
    /// from the computing thread's tally, so other queries running at the
    /// same time do not count). Always filled.
    pub region_yields: u64,
    /// Regions those streams pruned meanwhile, over every rule (see
    /// `region_yields`). Always filled.
    pub region_pruned: u64,
    /// Did the effort budget demote the plan to the greedy heuristic?
    /// Always filled (it is a plan property, not a timing).
    pub demoted: bool,
    /// Did a cache hit fail guard revalidation (forcing a recompute)?
    /// Always filled.
    pub guard_failed: bool,
}

type LabeledHists = RwLock<BTreeMap<String, BTreeMap<String, Arc<Histogram>>>>;

/// End-to-end latency histogram, per (tenant, route).
pub const REQUEST_DURATION: Family = Family::histogram(
    "knn_request_duration_us",
    "End-to-end request latency by tenant and route, microseconds.",
);
/// Per-phase latency histogram, per (tenant, phase).
pub const PHASE_DURATION: Family =
    Family::histogram("knn_phase_duration_us", "Per-phase execution time by tenant, microseconds.");
/// Help text of every histogram's `_max` companion gauge.
const MAX_HELP: &str = "Exact maximum of the observations in the sibling histogram.";
/// The exact-max companion of [`REQUEST_DURATION`]: a maximum merges by max.
pub const REQUEST_DURATION_MAX: Family =
    Family::gauge("knn_request_duration_us_max", MAX_HELP, Merge::Max);
/// The exact-max companion of [`PHASE_DURATION`].
pub const PHASE_DURATION_MAX: Family =
    Family::gauge("knn_phase_duration_us_max", MAX_HELP, Merge::Max);
/// Headline SLO burn per tenant. Every replica burns against the same
/// objective, so the worst one defines the tenant's health: max, as the
/// `top` and `slo` verbs merge it.
pub const SLO_BURN: Family = Family::gauge(
    "knn_slo_burn",
    "Error-budget burn rate, max of short and long windows (1.0 = on budget).",
    Merge::Max,
);
/// Observation windows that broke a tenant's SLO objective.
pub const SLO_VIOLATIONS: Family = Family::counter(
    "knn_slo_violations_total",
    "Observation windows whose attained quantile broke the objective.",
);
/// Every family a serving process's [`Telemetry::render`] can emit (the
/// free-form histograms and counters are the router's own, never merged).
pub const FAMILIES: &[Family] = &[
    REQUEST_DURATION,
    REQUEST_DURATION_MAX,
    PHASE_DURATION,
    PHASE_DURATION_MAX,
    SLO_BURN,
    SLO_VIOLATIONS,
];

/// The per-process telemetry registry. See the crate docs.
///
/// All recording methods early-return when the registry is disabled (the
/// default), so a `Telemetry` compiled in but idle costs one relaxed
/// atomic load per would-be record.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: AtomicBool,
    /// End-to-end latency per tenant → route.
    routes: LabeledHists,
    /// Phase timings per tenant → phase.
    phases: LabeledHists,
    /// Free-form histograms keyed by full metric name (no labels), e.g.
    /// the router's probe-round latency.
    named: RwLock<BTreeMap<String, Arc<Histogram>>>,
    /// Monotonic counters keyed by full series name (labels, if any,
    /// already rendered into the key).
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    /// The always-on flight recorder. Deliberately *not* gated on
    /// `enabled`: anomaly forensics must work on a default-configured
    /// process, and the recorder's unelected-path cost is one thread-local
    /// counter bump.
    recorder: Recorder,
    /// Per-tenant latency objectives and their burn-rate windows. Like the
    /// recorder, not gated on `enabled` — but with telemetry off the route
    /// histograms stay empty, so observations see no traffic.
    slo: SloRegistry,
    /// The always-on black-box capture ring (see [`capture`]). Not gated
    /// on `enabled` for the same reason as the recorder: `repro` must
    /// work on a default-configured process.
    capture: CaptureRing,
    /// Shadow-audit election + job hand-off (see [`capture`]).
    audit: AuditSampler,
}

fn labeled(map: &LabeledHists, a: &str, b: &str) -> Arc<Histogram> {
    if let Some(h) = map.read().unwrap().get(a).and_then(|m| m.get(b)) {
        return h.clone();
    }
    map.write().unwrap().entry(a.to_string()).or_default().entry(b.to_string()).or_default().clone()
}

impl Telemetry {
    /// A disabled registry behind an `Arc` (the only way it is ever held).
    pub fn new() -> Arc<Telemetry> {
        Arc::new(Telemetry::default())
    }

    /// Turns recording on or off. Off (the default) makes every record
    /// call a single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The process's flight recorder (always on; see [`Recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The per-tenant SLO registry (see [`slo`]).
    pub fn slo(&self) -> &SloRegistry {
        &self.slo
    }

    /// The black-box capture ring (always on; see [`capture`]).
    pub fn capture(&self) -> &CaptureRing {
        &self.capture
    }

    /// The shadow-audit sampler (see [`capture`]).
    pub fn audit(&self) -> &AuditSampler {
        &self.audit
    }

    /// `tenant`'s cumulative end-to-end latency: all of its per-route
    /// histograms merged into one snapshot.
    pub fn tenant_cumulative(&self, tenant: &str) -> HistogramSnapshot {
        let mut cum = HistogramSnapshot::default();
        if let Some(m) = self.routes.read().unwrap().get(tenant) {
            for h in m.values() {
                cum.merge(&h.snapshot());
            }
        }
        cum
    }

    /// Feeds `tenant`'s current cumulative latency into its SLO tracker
    /// (violations force anomaly spans into the flight recorder). `None`
    /// when the tenant has no registered objective.
    pub fn observe_slo(&self, tenant: &str) -> Option<SloStatus> {
        let cum = self.tenant_cumulative(tenant);
        self.slo.observe(tenant, cum, &self.recorder)
    }

    /// Observes and reports every tenant with a registered objective —
    /// what the `top` and `slo` verbs call so burn rates are current at
    /// the moment of asking.
    pub fn observe_slo_all(&self) -> Vec<SloStatus> {
        self.slo.tenants().iter().filter_map(|t| self.observe_slo(t)).collect()
    }

    /// The end-to-end histogram for `(tenant, route)`, creating it if
    /// needed. Hot paths should cache the returned handle.
    pub fn route_histogram(&self, tenant: &str, route: &str) -> Arc<Histogram> {
        labeled(&self.routes, tenant, route)
    }

    /// The phase histogram for `(tenant, phase)`, creating it if needed.
    pub fn phase_histogram(&self, tenant: &str, phase: &str) -> Arc<Histogram> {
        labeled(&self.phases, tenant, phase)
    }

    /// The free-form histogram named `name`, creating it if needed.
    pub fn named_histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.named.read().unwrap().get(name) {
            return h.clone();
        }
        self.named.write().unwrap().entry(name.to_string()).or_default().clone()
    }

    /// The counter for the full series name `series`, creating it if
    /// needed.
    pub fn counter(&self, series: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().unwrap().get(series) {
            return c.clone();
        }
        self.counters.write().unwrap().entry(series.to_string()).or_default().clone()
    }

    /// Records one end-to-end observation (no-op when disabled).
    pub fn record_route(&self, tenant: &str, route: &str, us: u64) {
        if self.is_enabled() {
            self.route_histogram(tenant, route).record(us);
        }
    }

    /// Records one phase observation (no-op when disabled).
    pub fn record_phase(&self, tenant: &str, phase: &str, us: u64) {
        if self.is_enabled() {
            self.phase_histogram(tenant, phase).record(us);
        }
    }

    /// Records into a free-form named histogram (no-op when disabled).
    pub fn record_named(&self, name: &str, us: u64) {
        if self.is_enabled() {
            self.named_histogram(name).record(us);
        }
    }

    /// Bumps a counter by `n` (no-op when disabled).
    pub fn add(&self, series: &str, n: u64) {
        if self.is_enabled() {
            self.counter(series).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Renders everything recorded so far as Prometheus text exposition.
    ///
    /// Families in fixed order (request histograms, phase histograms,
    /// free-form histograms, counters/gauges, SLO status), series sorted
    /// within each — the output is deterministic for a fixed state. Every
    /// non-empty family gets its `# HELP` / `# TYPE` headers before its
    /// first sample (the `_max` companion of each histogram is its own
    /// gauge family); an empty registry still renders to the empty string.
    pub fn render(&self) -> String {
        let labeled = |out: &mut String,
                       map: &LabeledHists,
                       (family, max): (&Family, &Family),
                       label: &str| {
            let map = map.read().unwrap();
            if map.values().all(BTreeMap::is_empty) {
                return;
            }
            family.push_header(out);
            max.push_header(out);
            for (tenant, m) in map.iter() {
                for (value, h) in m.iter() {
                    let labels = [("tenant", tenant.as_str()), (label, value.as_str())];
                    exposition::render_histogram(out, family.name, &labels, &h.snapshot());
                }
            }
        };
        let mut out = String::new();
        labeled(&mut out, &self.routes, (&REQUEST_DURATION, &REQUEST_DURATION_MAX), "route");
        labeled(&mut out, &self.phases, (&PHASE_DURATION, &PHASE_DURATION_MAX), "phase");
        for (name, h) in self.named.read().unwrap().iter() {
            exposition::push_header(
                &mut out,
                name,
                "histogram",
                "Free-form latency histogram, microseconds.",
            );
            exposition::push_header(&mut out, &format!("{name}_max"), "gauge", MAX_HELP);
            exposition::render_histogram(&mut out, name, &[], &h.snapshot());
        }
        {
            // Counters/gauges grouped by family so each family's headers
            // go out once, before its first series. `_total` names are
            // monotonic counters per Prometheus convention; anything else
            // registered here is a point-in-time gauge.
            let counters = self.counters.read().unwrap();
            let mut families: BTreeMap<&str, Vec<(&String, u64)>> = BTreeMap::new();
            for (series, c) in counters.iter() {
                families
                    .entry(exposition::family_of(series))
                    .or_default()
                    .push((series, c.load(Ordering::Relaxed)));
            }
            for (family, series) in families {
                let (kind, help) = if family.ends_with("_total") {
                    ("counter", "Monotonic event counter.")
                } else {
                    ("gauge", "Point-in-time gauge.")
                };
                exposition::push_header(&mut out, family, kind, help);
                for (key, v) in series {
                    exposition::push_sample(&mut out, key, v);
                }
            }
        }
        {
            let statuses = self.slo.all_status();
            if !statuses.is_empty() {
                SLO_BURN.push_header(&mut out);
                for st in &statuses {
                    let key = exposition::series_key(SLO_BURN.name, &[("tenant", &st.tenant)]);
                    out.push_str(&format!("{key} {:.4}\n", st.burn));
                }
                SLO_VIOLATIONS.push_header(&mut out);
                for st in &statuses {
                    let key =
                        exposition::series_key(SLO_VIOLATIONS.name, &[("tenant", &st.tenant)]);
                    exposition::push_sample(&mut out, &key, st.violations);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound lands in its bucket");
            assert_eq!(bucket_index(bucket_upper(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_records_and_derives_quantiles() {
        let h = Histogram::new();
        for us in [1u64, 2, 3, 100, 1000, 50_000] {
            h.record(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum_us, 51_106);
        assert_eq!(s.max_us, 50_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 6);
        // p50 of 6 obs → 3rd: value 3 lives in bucket [2,3], upper 3.
        assert_eq!(s.p50(), 3);
        // p99 → 6th obs: max clamps the bucket upper bound to 50_000.
        assert_eq!(s.p99(), 50_000);
        assert_eq!(HistogramSnapshot::default().p50(), 0);
    }

    /// Percentile edge cases pinned: an empty histogram derives 0 for
    /// every quantile (not the first bucket's upper bound), a one-sample
    /// histogram derives that sample's clamped bound everywhere, and a
    /// histogram holding only the maximum representable value clamps to
    /// the exact recorded max rather than `+Inf`.
    #[test]
    fn quantiles_pin_empty_single_and_max_only_cases() {
        let empty = HistogramSnapshot::default();
        for q in [0.01, 0.50, 0.90, 0.99, 1.0] {
            assert_eq!(empty.quantile_us(q), 0, "empty histogram quantile {q}");
        }

        let one = Histogram::new();
        one.record(7);
        let s = one.snapshot();
        // 7 lives in bucket [4,7] (upper 7); max clamps to exactly 7.
        for q in [0.01, 0.50, 0.99] {
            assert_eq!(s.quantile_us(q), 7, "single-sample quantile {q}");
        }

        let max_only = Histogram::new();
        max_only.record(u64::MAX);
        let s = max_only.snapshot();
        assert_eq!(s.count, 1);
        // The last bucket's upper bound is u64::MAX; the exact-max clamp
        // keeps the quantile at the recorded value.
        assert_eq!(s.p50(), u64::MAX);
        assert_eq!(s.p99(), u64::MAX);
    }

    #[test]
    fn snapshot_merge_is_bucketwise_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        for us in [5u64, 70, 900] {
            a.record(us);
        }
        for us in [8u64, 8, 1_000_000] {
            b.record(us);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let all = Histogram::new();
        for us in [5u64, 70, 900, 8, 8, 1_000_000] {
            all.record(us);
        }
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::new();
        t.record_route("d", "classify", 10);
        t.record_phase("d", "solve", 10);
        t.add("c_total", 3);
        assert_eq!(t.render(), "");

        t.set_enabled(true);
        t.record_route("d", "classify", 10);
        assert_eq!(t.route_histogram("d", "classify").snapshot().count, 1);
    }

    #[test]
    fn render_is_deterministic_and_valid() {
        let t = Telemetry::new();
        t.set_enabled(true);
        t.record_route("demo", "classify_hamming", 42);
        t.record_phase("demo", "solve", 17);
        t.record_named("knn_router_probe_round_us", 5);
        t.add("knn_router_dispatches_total", 2);
        t.add("knn_test_queue_depth", 3);
        t.slo().set("demo", SloObjective { quantile: 0.5, threshold_us: 1, windows: 2 }).unwrap();
        t.observe_slo("demo").unwrap();
        let text = t.render();
        assert_eq!(text, t.render());
        exposition::validate(&text).unwrap();
        assert!(text.contains(
            "knn_request_duration_us_count{tenant=\"demo\",route=\"classify_hamming\"} 1"
        ));
        assert!(text.contains("knn_router_dispatches_total 2"));
        // Every family carries its HELP/TYPE headers exactly once.
        for family in [
            "knn_request_duration_us",
            "knn_request_duration_us_max",
            "knn_phase_duration_us",
            "knn_router_probe_round_us",
            "knn_router_dispatches_total",
            "knn_test_queue_depth",
            "knn_slo_burn",
            "knn_slo_violations_total",
        ] {
            assert_eq!(text.matches(&format!("# HELP {family} ")).count(), 1, "{family}");
            assert_eq!(text.matches(&format!("# TYPE {family} ")).count(), 1, "{family}");
        }
        assert!(text.contains("# TYPE knn_router_dispatches_total counter"));
        assert!(text.contains("# TYPE knn_test_queue_depth gauge"));
        // The 42µs observation broke the 1µs p50 objective.
        assert!(text.contains("knn_slo_violations_total{tenant=\"demo\"} 1"));
        assert!(text.contains("knn_slo_burn{tenant=\"demo\"} 2.0000"));
    }

    #[test]
    fn snapshot_diff_is_the_window_between_observations() {
        let h = Histogram::new();
        for us in [10u64, 20, 3000] {
            h.record(us);
        }
        let first = h.snapshot();
        for us in [40u64, 500_000] {
            h.record(us);
        }
        let window = h.snapshot().diff(&first);
        assert_eq!(window.count, 2);
        assert_eq!(window.sum_us, 500_040);
        assert_eq!(window.buckets.iter().sum::<u64>(), 2);
        assert_eq!(window.max_us, 500_000, "cumulative max is the window's upper bound");
        assert_eq!(HistogramSnapshot::default().diff(&first).count, 0, "diff saturates");
        // count_over: buckets above the threshold, straddlers included.
        assert_eq!(first.count_over(4095), 0);
        assert_eq!(first.count_over(4000), 1, "3000's bucket [2048,4095] straddles 4000");
        assert_eq!(first.count_over(100), 1);
        assert_eq!(first.count_over(15), 2, "the [16,31] bucket straddling 15 counts as over");
        assert_eq!(first.count_over(0), 3);
    }
}
