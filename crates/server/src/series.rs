//! The served counters, declared once.
//!
//! Every number the `stats` and `metrics` verbs report is one [`Row`]: a
//! getter on a snapshot ([`TenantStats`], a tenant's per-route
//! [`RouteWorkSnapshot`], or [`AdmissionStats`]), the member path it takes
//! in the `stats` object, the exposition family and fixed labels it takes
//! in `metrics`, and the rule the cluster router merges it by across
//! replicas. `render_metrics` and `stats_members` are loops over these
//! tables, so a counter cannot appear in one view and drift in another.
//! Rows are listed in `stats` member order; a family's samples render
//! together, in the order the family first appears.

use crate::{AdmissionStats, TenantStats};
use knn_engine::json::Value;
use knn_engine::RouteWorkSnapshot;
use knn_telemetry::exposition::{push_sample, series_key, Family, Merge};

/// One served counter (see the module docs).
pub struct Row<T: 'static> {
    /// Member path in the `stats` object (empty: exposition-only).
    pub(crate) path: &'static [&'static str],
    /// Exposition family and the row's fixed labels, rendered after the
    /// snapshot's own (`tenant`, `route`); `None`: `stats`-only.
    pub(crate) series: Option<(&'static Family, &'static [(&'static str, &'static str)])>,
    /// Cross-replica merge rule — the family's, for a series row.
    pub(crate) merge: Merge,
    /// Reads the value off a snapshot.
    pub(crate) get: fn(&T) -> u64,
}

impl<T> Row<T> {
    /// The row's exposition family, if it has one.
    fn family(&self) -> Option<&'static Family> {
        self.series.map(|(family, _)| family)
    }
}

/// A row with an exposition series (merged by its family's rule).
const fn series<T>(
    family: &'static Family,
    labels: &'static [(&'static str, &'static str)],
    path: &'static [&'static str],
    get: fn(&T) -> u64,
) -> Row<T> {
    Row { path, series: Some((family, labels)), merge: family.merge, get }
}

/// A `stats`-only row.
const fn stat<T>(path: &'static [&'static str], merge: Merge, get: fn(&T) -> u64) -> Row<T> {
    Row { path, series: None, merge, get }
}

/// The dataset version. Every consistent replica of a tenant is at the
/// same epoch, so replicas merge by max, never by sum.
const EPOCH: Family =
    Family::gauge("knn_engine_epoch", "Current dataset version per tenant.", Merge::Max);
/// Mutations applied to the tenant's dataset. Every consistent replica
/// applies the same ones, so, like the epoch, they merge by max.
const MUTATIONS: Family = Family {
    name: "knn_engine_mutations_total",
    kind: "counter",
    help: "Applied mutations, by op.",
    merge: Merge::Max,
};
const REQUESTS: Family =
    Family::counter("knn_server_requests_total", "Queries completed per tenant.");
const ERRORS: Family =
    Family::counter("knn_server_errors_total", "Error responses among completed queries.");
const QUEUED: Family = Family::gauge(
    "knn_server_tenant_queued",
    "Queries currently waiting for admission, per tenant.",
    Merge::Sum,
);
const ACTIVE: Family = Family::gauge(
    "knn_server_tenant_active",
    "Queries currently executing, per tenant.",
    Merge::Sum,
);
const EVENTS: Family =
    Family::counter("knn_engine_cache_events_total", "Explanation-cache events, by kind.");
// Fill installs are deliberately not a cache event kind: a filled entry is
// neither a hit (the replica never saw the query) nor a miss (nothing was
// computed), so folding it in would corrupt hit-rate math.
const FILLS: Family = Family::counter(
    "knn_engine_cache_fill_total",
    "Cache entries installed by cross-replica fill pushes.",
);
const CELLS: Family = Family::counter(
    "knn_engine_artifact_cells_total",
    "Artifact cells built fresh vs carried across epochs.",
);
const BUILD_US: Family = Family::counter(
    "knn_engine_artifact_build_us_total",
    "Cumulative artifact build time, microseconds.",
);
const AUDITED: Family = Family::counter(
    "knn_audit_checked_total",
    "Shadow-audit re-executions compared against served bytes.",
);
const DIVERGED: Family = Family::counter(
    "knn_audit_diverged_total",
    "Shadow-audit re-executions whose bytes diverged from the served response.",
);
const YIELDS: Family = Family::counter(
    "knn_engine_region_yields_total",
    "Region polyhedra yielded by the lazy enumerator.",
);
const PRUNED: Family =
    Family::counter("knn_engine_region_pruned_total", "Candidate regions pruned, by rule.");
/// Estimated resident bytes, by component (the `top` verb's columns too).
pub(crate) const BYTES: Family = Family::gauge(
    "knn_engine_bytes",
    "Estimated resident bytes per tenant, by component.",
    Merge::Sum,
);
const LOG_LEN: Family = Family::gauge(
    "knn_engine_mutation_log_entries",
    "Mutations retained in the compacted revalidation log.",
    Merge::Sum,
);
const MEMO_LEN: Family = Family::gauge(
    "knn_engine_region_memo_entries",
    "Region-memo occupancy (see knn_engine_region_memo_capacity).",
    Merge::Sum,
);
const MEMO_CAP: Family =
    Family::gauge("knn_engine_region_memo_capacity", "Region-memo capacity bound.", Merge::Sum);
const WORK: Family =
    Family::counter("knn_engine_work_total", "Solver-layer work per tenant and route, by kind.");
const SOLVE_US: Family = Family::counter(
    "knn_engine_solve_us_total",
    "Cumulative solve CPU time per tenant and route, microseconds.",
);
const BUDGET: Family =
    Family::gauge("knn_server_admission_budget", "Global worker budget.", Merge::Sum);
const WAITING: Family = Family::gauge(
    "knn_server_admission_waiting",
    "Queries waiting in the global admission queue.",
    Merge::Sum,
);
const GRANTED: Family = Family::counter(
    "knn_server_admission_granted_total",
    "Admission slots granted over the process lifetime.",
);

/// Per-tenant rows, in `stats` member order.
pub static TENANT_ROWS: &[Row<TenantStats>] = &[
    series(&EPOCH, &[], &["version"], |s| s.engine.epoch),
    // Point counts describe one replica's copy of the dataset: max.
    stat(&["points"], Merge::Max, |s| s.points as u64),
    stat(&["points_pos"], Merge::Max, |s| s.points_pos as u64),
    stat(&["points_neg"], Merge::Max, |s| s.points_neg as u64),
    series(&MUTATIONS, &[("op", "insert")], &["inserts"], |s| s.engine.inserts),
    series(&MUTATIONS, &[("op", "remove")], &["removes"], |s| s.engine.removes),
    series(&REQUESTS, &[], &["requests"], |s| s.requests),
    series(&ERRORS, &[], &["errors"], |s| s.errors),
    series(&QUEUED, &[], &["queued"], |s| s.queued),
    series(&ACTIVE, &[], &["active"], |s| s.active),
    series(&EVENTS, &[("event", "hit")], &["cache", "hits"], |s| s.engine.cache.hits),
    series(&EVENTS, &[("event", "miss")], &["cache", "misses"], |s| s.engine.cache.misses),
    series(&EVENTS, &[("event", "coalesced")], &["cache", "coalesced"], |s| s.engine.coalesced),
    series(&EVENTS, &[("event", "revalidated")], &["cache", "revalidated"], |s| {
        s.engine.revalidated
    }),
    series(&FILLS, &[], &["cache", "filled"], |s| s.engine.filled),
    series(&EVENTS, &[("event", "eviction")], &["cache", "evictions"], |s| {
        s.engine.cache.evictions
    }),
    stat(&["cache", "entries"], Merge::Sum, |s| s.engine.cache.entries as u64),
    stat(&["cache", "capacity"], Merge::Sum, |s| s.engine.cache.capacity as u64),
    stat(&["inflight"], Merge::Sum, |s| s.engine.inflight as u64),
    stat(&["artifacts_built"], Merge::Sum, |s| s.engine.artifacts_built as u64),
    series(&CELLS, &[("kind", "built")], &["artifacts_built_total"], |s| {
        s.engine.artifacts_built_total
    }),
    series(&CELLS, &[("kind", "carried")], &["artifacts_carried"], |s| s.engine.artifacts_carried),
    series(&BUILD_US, &[], &["artifact_build_us"], |s| s.engine.artifact_build_us),
    series(&EVENTS, &[("event", "revalidation_failed")], &["revalidation_failed"], |s| {
        s.engine.revalidation_failed
    }),
    series(&AUDITED, &[], &["audit_checked"], |s| s.engine.audit_checked),
    series(&DIVERGED, &[], &["audit_diverged"], |s| s.engine.audit_diverged),
    series(&YIELDS, &[], &["regions", "yields"], |s| s.engine.regions.yields),
    series(&PRUNED, &[("rule", "empty")], &["regions", "pruned_empty"], |s| {
        s.engine.regions.pruned_empty
    }),
    series(&PRUNED, &[("rule", "dominated")], &["regions", "pruned_dominated"], |s| {
        s.engine.regions.pruned_dominated
    }),
    series(&PRUNED, &[("rule", "memo")], &["regions", "memo_pruned"], |s| {
        s.engine.regions.memo_pruned
    }),
    series(&BYTES, &[("component", "dataset")], &[], |s| s.engine.resources.dataset_bytes),
    series(&BYTES, &[("component", "mutation_log")], &[], |s| s.engine.resources.log_bytes),
    series(&BYTES, &[("component", "artifacts")], &[], |s| s.engine.resources.artifact_bytes),
    series(&BYTES, &[("component", "region_memo")], &[], |s| s.engine.resources.memo_bytes),
    series(&BYTES, &[("component", "cache")], &[], |s| s.engine.resources.cache_bytes),
    series(&LOG_LEN, &[], &[], |s| s.engine.resources.log_len),
    series(&MEMO_LEN, &[], &[], |s| s.engine.resources.memo_len),
    series(&MEMO_CAP, &[], &[], |s| s.engine.resources.memo_cap),
];

/// Per-(tenant, route) work rows (exposition-only).
pub static ROUTE_ROWS: &[Row<RouteWorkSnapshot>] = &[
    series(&WORK, &[("kind", "compute")], &[], |w| w.computes),
    series(&WORK, &[("kind", "lp_solve")], &[], |w| w.lp_solves),
    series(&WORK, &[("kind", "qp_solve")], &[], |w| w.qp_solves),
    series(&WORK, &[("kind", "kd_visit")], &[], |w| w.kd_visits),
    series(&WORK, &[("kind", "region_yield")], &[], |w| w.region_yields),
    series(&SOLVE_US, &[], &[], |w| w.solve_us),
];

/// Process-wide admission rows, in `stats` member order.
pub static ADMISSION_ROWS: &[Row<AdmissionStats>] = &[
    series(&BUDGET, &[], &["budget"], |a| a.budget as u64),
    stat(&["available"], Merge::Sum, |a| a.available as u64),
    series(&WAITING, &[], &["waiting"], |a| a.waiting as u64),
    series(&GRANTED, &[], &["granted"], |a| a.granted),
];

/// Every family the tables declare, each once, in first-appearance order.
fn families() -> Vec<&'static Family> {
    let mut out: Vec<&'static Family> = Vec::new();
    let all = TENANT_ROWS
        .iter()
        .filter_map(Row::family)
        .chain(ROUTE_ROWS.iter().filter_map(Row::family))
        .chain(ADMISSION_ROWS.iter().filter_map(Row::family));
    for family in all {
        if !out.iter().any(|f| f.name == family.name) {
            out.push(family);
        }
    }
    out
}

/// The declared merge rule of any family a server's `metrics` carries —
/// these tables' and the telemetry registry's. `None` means undeclared.
pub fn merge_rule(family: &str) -> Option<Merge> {
    families()
        .into_iter()
        .chain(knn_telemetry::FAMILIES)
        .find(|f| f.name == family)
        .map(|f| f.merge)
}

/// Appends the samples `rows` hold for `family` off one snapshot, labeled
/// `labels` then each row's fixed labels.
fn push_rows<T>(
    out: &mut String,
    rows: &[Row<T>],
    family: &Family,
    labels: &[(&str, &str)],
    v: &T,
) {
    for row in rows {
        let Some((f, fixed)) = row.series else { continue };
        if f.name == family.name {
            let all: Vec<(&str, &str)> = labels.iter().chain(fixed).copied().collect();
            push_sample(out, &series_key(f.name, &all), (row.get)(v));
        }
    }
}

/// The per-tenant and admission series of the `metrics` verb (appended
/// after the telemetry registry's histograms). Every family carries its
/// `# HELP` / `# TYPE` headers, even with no tenants; tenants render in the
/// order given (the registry's, sorted by name), so the exposition is a
/// pure function of the snapshots.
pub(crate) fn render_metrics(tenants: &[TenantStats], admission: &AdmissionStats) -> String {
    let mut out = String::new();
    for family in families() {
        family.push_header(&mut out);
        for s in tenants {
            push_rows(&mut out, TENANT_ROWS, family, &[("tenant", &s.name)], s);
            for w in &s.work {
                push_rows(
                    &mut out,
                    ROUTE_ROWS,
                    family,
                    &[("tenant", &s.name), ("route", &w.route)],
                    w,
                );
            }
        }
        push_rows(&mut out, ADMISSION_ROWS, family, &[], admission);
    }
    out
}

/// Inserts `v` at `path` in an object's members, creating intermediate
/// objects where they first appear.
fn insert_at(members: &mut Vec<(String, Value)>, path: &[&str], v: Value) {
    let Some((head, rest)) = path.split_first() else { return };
    if rest.is_empty() {
        members.push((head.to_string(), v));
        return;
    }
    let at = match members.iter().position(|(k, _)| k == head) {
        Some(at) => at,
        None => {
            members.push((head.to_string(), Value::Object(Vec::new())));
            members.len() - 1
        }
    };
    if let Value::Object(inner) = &mut members[at].1 {
        insert_at(inner, rest, v);
    }
}

/// The `stats` object of one snapshot: `members` followed by every row with
/// a path, nested along it.
fn stats_object<T>(rows: &[Row<T>], v: &T, mut members: Vec<(String, Value)>) -> Value {
    for row in rows.iter().filter(|r| !r.path.is_empty()) {
        insert_at(&mut members, row.path, Value::Number((row.get)(v) as f64));
    }
    Value::Object(members)
}

/// The `admission` and `tenants` members of the `stats` verb.
pub(crate) fn stats_members(
    tenants: &[TenantStats],
    admission: &AdmissionStats,
) -> Vec<(String, Value)> {
    let tenants = tenants
        .iter()
        .map(|s| stats_object(TENANT_ROWS, s, vec![("name".into(), Value::String(s.name.clone()))]))
        .collect();
    vec![
        ("admission".into(), stats_object(ADMISSION_ROWS, admission, Vec::new())),
        ("tenants".into(), Value::Array(tenants)),
    ]
}

/// A router's merge of its replicas' `stats` objects: one flat member per
/// row with a path, named by the path joined with `_` (`cache_hits`), each
/// folded over `replicas` by its row's declared rule (counts are never
/// negative, so folding from 0 is exact under both rules).
pub fn merge_stats<T>(rows: &[Row<T>], replicas: &[&Value]) -> Vec<(String, Value)> {
    let at = |v: &Value, path: &[&str]| path.iter().try_fold(v, |o, k| o.get(k))?.as_f64();
    rows.iter()
        .filter(|row| !row.path.is_empty())
        .map(|row| {
            let v = replicas.iter().filter_map(|v| at(v, row.path));
            (row.path.join("_"), Value::Number(v.fold(0.0, |acc, v| row.merge.fold(acc, v))))
        })
        .collect()
}

/// Merge rule of a `top`, `slo` or `audit` reply member. Burn rates are
/// the [`SLO_BURN`](knn_telemetry::SLO_BURN) gauge — the worst replica
/// defines a tenant's health — and the attained quantile, the objective's
/// parameters and the audit sample rate are a worst case or one setting
/// every replica reports: max. Everything else (bytes, requests, QPS,
/// window counts, violations, audit counts) is each replica's share: sum.
pub fn reply_merge(member: &str) -> Merge {
    const MAX: [&str; 10] = [
        "slo_burn",
        "burn",
        "short_burn",
        "long_burn",
        "quantile_us",
        "quantile",
        "threshold_us",
        "windows",
        "windows_held",
        "sample",
    ];
    if MAX.contains(&member) {
        Merge::Max
    } else {
        Merge::Sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_telemetry::exposition::{parse, validate};

    /// Every row reads its own field: on a state where every field holds a
    /// distinct value, each row's `stats` member equals its exposition
    /// sample, the rendering validates, and each family's headers appear
    /// exactly once.
    #[test]
    fn every_row_renders_the_same_value_in_stats_and_metrics() {
        let (tenants, admission) = crate::tests::synthetic_state();
        let text = render_metrics(&tenants, &admission);
        validate(&text).unwrap();
        for family in families() {
            assert_eq!(
                text.matches(&format!("# HELP {} ", family.name)).count(),
                1,
                "{}",
                family.name
            );
            assert_eq!(
                text.matches(&format!("# TYPE {} ", family.name)).count(),
                1,
                "{}",
                family.name
            );
        }
        let samples = parse(&text);
        let stats = Value::Object(stats_members(&tenants, &admission));
        let at = |v: &Value, path: &[&str]| {
            path.iter().try_fold(v, |o, k| o.get(k)).and_then(Value::as_f64)
        };
        let check = |rows_values: Vec<(f64, Option<f64>, Option<String>)>| {
            let mut seen = std::collections::BTreeSet::new();
            for (value, member, key) in rows_values {
                assert!(seen.insert(value as u64), "two rows read the same field ({value})");
                if let Some(member) = member {
                    assert_eq!(member, value, "stats member");
                }
                if let Some(key) = key {
                    assert_eq!(samples.get(&key), Some(&value), "sample {key}");
                }
            }
        };
        let Some(Value::Array(objects)) = stats.get("tenants") else { panic!("{stats:?}") };
        for (s, obj) in tenants.iter().zip(objects) {
            let mut values = Vec::new();
            for row in TENANT_ROWS {
                let member = (!row.path.is_empty()).then(|| at(obj, row.path).expect("member"));
                let key = row.series.map(|(f, labels)| {
                    let all: Vec<_> =
                        [("tenant", s.name.as_str())].iter().chain(labels).copied().collect();
                    series_key(f.name, &all)
                });
                values.push(((row.get)(s) as f64, member, key));
            }
            for w in &s.work {
                for row in ROUTE_ROWS {
                    let (f, labels) = row.series.unwrap();
                    let base = [("tenant", s.name.as_str()), ("route", w.route.as_str())];
                    let all: Vec<_> = base.iter().chain(labels).copied().collect();
                    values.push(((row.get)(w) as f64, None, Some(series_key(f.name, &all))));
                }
            }
            check(values);
        }
        let admission_obj = stats.get("admission").unwrap();
        check(
            ADMISSION_ROWS
                .iter()
                .map(|row| {
                    let key = row.series.map(|(f, labels)| series_key(f.name, labels));
                    ((row.get)(&admission) as f64, at(admission_obj, row.path), key)
                })
                .collect(),
        );
    }

    /// A router merge folds each member by its row's rule: the epoch and
    /// point counts keep the max across replicas, counters sum.
    #[test]
    fn merge_stats_folds_by_declared_rule() {
        let (tenants, _) = crate::tests::synthetic_state();
        let obj = stats_object(TENANT_ROWS, &tenants[0], Vec::new());
        let members = merge_stats(TENANT_ROWS, &[&obj, &obj]);
        let get =
            |k: &str| members.iter().find(|(m, _)| m == k).and_then(|(_, v)| v.as_f64()).unwrap();
        let s = &tenants[0];
        assert_eq!(get("version"), s.engine.epoch as f64);
        assert_eq!(get("points"), s.points as f64);
        assert_eq!(get("requests"), 2.0 * s.requests as f64);
        assert_eq!(get("cache_hits"), 2.0 * s.engine.cache.hits as f64);
        assert_eq!(merge_rule(EPOCH.name), Some(Merge::Max));
        assert_eq!(merge_rule("knn_slo_burn"), Some(Merge::Max));
        assert_eq!(merge_rule("knn_request_duration_us_max"), Some(Merge::Max));
        assert_eq!(merge_rule("knn_request_duration_us"), Some(Merge::Sum));
        assert_eq!(merge_rule("knn_no_such_family"), None);
    }
}
