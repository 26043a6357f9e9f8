//! Structured span events: the flight recorder's unit of capture.
//!
//! A span is one timed step of one query (or one control-plane event):
//! admission wait, plan decision, artifact build, cache probe, solve,
//! router dispatch, failover, epoch apply. Spans form trees through
//! `(seq, parent)` links — `parent == 0` marks a root — and carry an
//! optional trace id so cross-process reconstruction can stitch a router's
//! dispatch span to the backend's query tree.
//!
//! Nothing here ever reaches response bytes: spans live in the
//! [`Recorder`](crate::recorder::Recorder) rings and leave the process only
//! through the out-of-band `trace` / `dump` / `slow` verbs.
//!
//! A query's spans are written in one place, [`QuerySpans`], after the
//! query completed; [`SlowQuery`] is the `slow` verb's read of them.

use crate::QueryTrace;

/// One recorded span event. Field conventions keep the hot path
/// allocation-light: `name` and `anomaly` are static strings, and the
/// empty string stands for "untraced" / "no anomaly".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanEvent {
    /// Trace id this span belongs to (`""` = captured by sampling only).
    pub trace: String,
    /// Process-unique span sequence number (never 0).
    pub seq: u64,
    /// `seq` of the parent span; 0 for roots.
    pub parent: u64,
    /// Phase name: `query`, `admission`, `plan`, `artifact`, `cache`,
    /// `solve`, `dispatch`, `failover`, `apply`, ...
    pub name: &'static str,
    /// Free-form detail (route tag, cache outcome, `backend=N`, ...).
    pub detail: String,
    /// Tenant the span ran against (`""` for process-wide events).
    pub tenant: String,
    /// Dataset epoch observed, when meaningful.
    pub epoch: u64,
    /// Start, µs since the recorder's start instant.
    pub start_us: u64,
    /// Duration, µs (0 for instantaneous marker events).
    pub dur_us: u64,
    /// Why this span was force-captured (`""` = not an anomaly):
    /// `slow`, `error`, `demoted`, `guard_failed`, `failover`, ...
    pub anomaly: &'static str,
}

/// One completed query, as the span emitter
/// ([`Recorder::record_query`](crate::recorder::Recorder::record_query))
/// sees it. Built after the response line exists, from the [`QueryTrace`]
/// the engine returns, so capture is decided once per query — traced,
/// sampled, or anomalous — and can never touch response bytes.
#[derive(Debug)]
pub struct QuerySpans<'a> {
    /// Trace id (`""` when the sampler or an anomaly elected the query).
    pub trace: &'a str,
    /// Tenant the query ran against.
    pub tenant: &'a str,
    /// Request id (the echoed wire id).
    pub id: &'a str,
    /// The planner's route decision (the response's `route` member).
    pub route: &'a str,
    /// The engine's phase breakdown.
    pub qt: &'a QueryTrace,
    /// Was the response an error?
    pub err: bool,
    /// Did the end-to-end time exceed the recorder's slow floor?
    pub slow: bool,
    /// End-to-end time, µs.
    pub total_us: u64,
    /// Admission wait, µs; `Some` when the query went through the server.
    pub admission_us: Option<u64>,
    /// Capture reference: the server connection the query arrived on
    /// (`0` for in-process callers, which have none).
    pub conn: u64,
    /// The query's line within its connection (see `conn`).
    pub seq: u64,
}

impl QuerySpans<'_> {
    /// Why this query must be force-captured, by precedence
    /// `error` > `slow` > `guard_failed` > `demoted`; `""` when none.
    pub fn anomaly(&self) -> &'static str {
        if self.err {
            "error"
        } else if self.slow {
            "slow"
        } else if self.qt.guard_failed {
            "guard_failed"
        } else if self.qt.demoted {
            "demoted"
        } else {
            ""
        }
    }

    /// The query's span family, root first: a `query` root spanning
    /// `total_us` and ending at `end_us`, then its `admission`, `cache`,
    /// `plan`, `artifact` and `solve` children. Phase starts are laid out
    /// forward from the root's start in the order the phases ran, from
    /// their measured durations (one clock read per captured query).
    pub(crate) fn family(&self, end_us: u64, mut next_seq: impl FnMut() -> u64) -> Vec<SpanEvent> {
        let qt = self.qt;
        let anomaly = self.anomaly();
        let root = next_seq();
        let start_us = end_us.saturating_sub(self.total_us);
        let base = SpanEvent {
            trace: self.trace.to_string(),
            parent: root,
            tenant: self.tenant.to_string(),
            epoch: qt.epoch,
            ..SpanEvent::default()
        };
        let mut t = start_us;
        let mut family = vec![SpanEvent {
            seq: root,
            parent: 0,
            name: "query",
            // `id` goes last: ids are free text.
            detail: format!(
                "route={} cache={} conn={} seq={} id={}",
                self.route, qt.cache, self.conn, self.seq, self.id
            ),
            start_us,
            dur_us: self.total_us,
            anomaly,
            ..base.clone()
        }];
        let mut child = |name, detail: String, dur_us, anomaly| {
            family.push(SpanEvent {
                seq: next_seq(),
                name,
                detail,
                start_us: t,
                dur_us,
                anomaly,
                ..base.clone()
            });
            t += dur_us;
        };
        if let Some(us) = self.admission_us {
            child("admission", String::new(), us, "");
        }
        if qt.cache != "uncached" {
            let flag = if qt.guard_failed { "guard_failed" } else { "" };
            child("cache", format!("outcome={}", qt.cache), qt.cache_us, flag);
        }
        let error = if self.err { "error" } else { "" };
        if matches!(qt.cache, "miss" | "uncached") {
            let flag = if qt.demoted { "demoted" } else { "" };
            child("plan", format!("route={} demoted={}", self.route, qt.demoted), qt.plan_us, flag);
            if qt.artifact_us > 0 {
                child("artifact", "build".to_string(), qt.artifact_us, "");
            }
            let detail =
                format!("region_yields={} region_pruned={}", qt.region_yields, qt.region_pruned);
            child("solve", detail, qt.solve_us, error);
        } else if self.err {
            // A cached error response (errors cache too) still surfaces
            // as an anomaly marker.
            child("solve", "cached".to_string(), 0, error);
        }
        family
    }
}

/// One entry of the `slow` read: where a slow query's time went, parsed
/// back out of a retained `query` family (see
/// [`Recorder::slowest`](crate::recorder::Recorder::slowest)).
///
/// Phases are the server's decomposition of the end-to-end wall time:
/// admission wait, plan selection, artifact builds this query paid for,
/// cache lookup + guard revalidation, and the solver itself.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SlowQuery {
    /// Tenant the query ran against.
    pub tenant: String,
    /// Request id (echoed wire id).
    pub id: String,
    /// The planner's route decision (the response's `route` member).
    pub route: String,
    /// Cache outcome: `hit`, `revalidated`, `miss`, `coalesced`, or
    /// `uncached`.
    pub cache: String,
    /// Dataset epoch the query answered at.
    pub epoch: u64,
    /// End-to-end wall time, µs.
    pub total_us: u64,
    /// Time queued for a global admission slot, µs.
    pub admission_us: u64,
    /// Planner time, µs.
    pub plan_us: u64,
    /// Artifact build time this query paid (builder-side only), µs.
    pub artifact_us: u64,
    /// Cache lookup + guard revalidation time, µs (sampled: the engine
    /// times 1-in-N probes, so this is zero for most warm hits).
    pub cache_us: u64,
    /// Solver time, µs.
    pub solve_us: u64,
    /// The query's trace id, if a client traced it — the `slow` →
    /// `trace <id>` drill-down link.
    pub trace: Option<String>,
    /// Capture reference into the black-box ring ([`crate::capture`]):
    /// the server connection the query arrived on. Together with `seq`
    /// this is the `slow` → `repro` drill-down link.
    pub conn: u64,
    /// The query's sequence number within its connection (see `conn`).
    pub seq: u64,
}

impl SlowQuery {
    /// Parses a `query` root written by [`QuerySpans`]; the phase members
    /// stay zero until [`SlowQuery::add_phase`] sees the children.
    pub(crate) fn from_root(root: &SpanEvent) -> Option<SlowQuery> {
        let (head, id) = root.detail.split_once(" id=")?;
        let mut q = SlowQuery {
            tenant: root.tenant.clone(),
            id: id.to_string(),
            epoch: root.epoch,
            total_us: root.dur_us,
            trace: (!root.trace.is_empty()).then(|| root.trace.clone()),
            ..SlowQuery::default()
        };
        for (key, value) in head.split(' ').filter_map(|kv| kv.split_once('=')) {
            match key {
                "route" => q.route = value.to_string(),
                "cache" => q.cache = value.to_string(),
                "conn" => q.conn = value.parse().ok()?,
                "seq" => q.seq = value.parse().ok()?,
                _ => {}
            }
        }
        Some(q)
    }

    /// Takes one child span's duration into its phase member.
    pub(crate) fn add_phase(&mut self, child: &SpanEvent) {
        let slot = match child.name {
            "admission" => &mut self.admission_us,
            "cache" => &mut self.cache_us,
            "plan" => &mut self.plan_us,
            "artifact" => &mut self.artifact_us,
            "solve" => &mut self.solve_us,
            _ => return,
        };
        *slot = child.dur_us;
    }
}
