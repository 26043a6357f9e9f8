//! The router's own series, declared once: one [`Family`] per
//! `knn_router_*` name, one [`Row`] per counter, rendered by the server's
//! own loop. The `metrics` verb appends them after the merged backend
//! expositions, so no name here may be a family a backend declares.

use knn_server::series::{render_rows, series, Row};
use knn_telemetry::exposition::{self, Family, Merge};
use knn_telemetry::{Histogram, MAX_HELP};
use std::sync::atomic::{AtomicU64, Ordering};

const PROBE_ROUND: Family = Family::histogram(
    "knn_router_probe_round_us",
    "Health-probe rounds over every backend, reconciles included, microseconds.",
);
const PROBE_ROUND_MAX: Family =
    Family::gauge("knn_router_probe_round_us_max", MAX_HELP, Merge::Max);
const DEMOTIONS: Family =
    Family::counter("knn_router_demotions_total", "Replicas demoted for failing a mutation.");
const DISPATCHES: Family =
    Family::counter("knn_router_dispatches_total", "Queries sent to a backend, redispatches too.");
const FAILOVERS: Family =
    Family::counter("knn_router_failovers_total", "Queries redispatched off a failed replica.");
const FILL_STALE: Family =
    Family::counter("knn_router_fill_stale_total", "Fill pushes dropped as stale by a mutation.");
const FILLS: Family =
    Family::counter("knn_router_fills_total", "Answers pushed to their failover replica.");
const RECONCILES: Family =
    Family::counter("knn_router_reconciles_total", "Replicas rebuilt from the retained log.");
const SCRAPE_FAILURES: Family =
    Family::counter("knn_router_scrape_failures_total", "Control replies lost or unparseable.");
const BACKENDS_SCRAPED: Family = Family::gauge(
    "knn_router_backends_scraped",
    "Backend expositions this merge covers.",
    Merge::Sum,
);

/// The router's counters, shared by its control plane, its probe loop and
/// every connection's dispatcher. Bumped with relaxed atomics, always on:
/// none of it reaches response bytes.
#[derive(Debug, Default)]
pub(crate) struct RouterMetrics {
    pub(crate) demotions: AtomicU64,
    pub(crate) dispatches: AtomicU64,
    pub(crate) failovers: AtomicU64,
    pub(crate) fill_stale: AtomicU64,
    pub(crate) fills: AtomicU64,
    pub(crate) reconciles: AtomicU64,
    pub(crate) scrape_failures: AtomicU64,
    pub(crate) probe_round: Histogram,
}

static ROWS: &[Row<RouterMetrics>] = &[
    series(&DEMOTIONS, &[], &[], |m| m.demotions.load(Ordering::Relaxed)),
    series(&DISPATCHES, &[], &[], |m| m.dispatches.load(Ordering::Relaxed)),
    series(&FAILOVERS, &[], &[], |m| m.failovers.load(Ordering::Relaxed)),
    series(&FILL_STALE, &[], &[], |m| m.fill_stale.load(Ordering::Relaxed)),
    series(&FILLS, &[], &[], |m| m.fills.load(Ordering::Relaxed)),
    series(&RECONCILES, &[], &[], |m| m.reconciles.load(Ordering::Relaxed)),
    series(&SCRAPE_FAILURES, &[], &[], |m| m.scrape_failures.load(Ordering::Relaxed)),
];

impl RouterMetrics {
    /// Appends every router series to a `metrics` reply whose merge covered
    /// `backends` expositions: each family's headers, then its samples.
    pub(crate) fn render(&self, out: &mut String, backends: usize) {
        PROBE_ROUND.push_header(out);
        PROBE_ROUND_MAX.push_header(out);
        exposition::render_histogram(out, PROBE_ROUND.name, &[], &self.probe_round.snapshot());
        render_rows(out, ROWS, self);
        BACKENDS_SCRAPED.push_header(out);
        exposition::push_sample(out, BACKENDS_SCRAPED.name, backends as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Router, RouterConfig};
    use knn_engine::json::{parse_bytes, Value};
    use knn_server::Client;
    use std::time::Duration;

    /// A fresh router (no backends, no probe loop, no traffic) renders every
    /// declared family once, headers first, every sample at 0 — and no
    /// router family is one a backend declares, which is what appending
    /// after the merge relies on.
    #[test]
    fn every_router_family_renders_at_zero_from_bind() {
        let config = RouterConfig { probe_interval: Duration::ZERO, ..RouterConfig::default() };
        let handle = Router::bind("127.0.0.1:0", config).unwrap().spawn();
        let mut c = Client::connect(handle.addr()).unwrap();
        let m = c.roundtrip(r#"{"id":"m","verb":"metrics"}"#).unwrap();
        handle.shutdown();
        let parsed = parse_bytes(m.as_bytes()).unwrap();
        let Some(Value::String(text)) = parsed.get("metrics") else { panic!("{m}") };
        exposition::validate(text).unwrap();
        let families = [
            PROBE_ROUND,
            PROBE_ROUND_MAX,
            DEMOTIONS,
            DISPATCHES,
            FAILOVERS,
            FILL_STALE,
            FILLS,
            RECONCILES,
            SCRAPE_FAILURES,
            BACKENDS_SCRAPED,
        ];
        for f in &families {
            assert_eq!(text.matches(&format!("# HELP {} ", f.name)).count(), 1, "{text}");
            assert_eq!(text.matches(&format!("# TYPE {} {}\n", f.name, f.kind)).count(), 1);
            assert_eq!(knn_server::series::merge_rule(f.name), None, "{}", f.name);
        }
        let samples = exposition::parse(text);
        for f in &families {
            assert!(samples.keys().any(|k| exposition::family_of(k) == f.name), "{}", f.name);
        }
        assert!(samples.values().all(|v| *v == 0.0), "{text}");
        assert_eq!(samples.get("knn_router_dispatches_total"), Some(&0.0));
    }
}
