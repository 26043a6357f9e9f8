//! # knn-server — multi-tenant network serving over the explanation engine
//!
//! `knn-engine` serves in-process batches over one dataset; this crate turns
//! it into a network service multiplexing **many datasets and many
//! concurrent clients** onto shared engines — std-only TCP, no new
//! dependencies, speaking the newline-delimited JSON protocol of [`proto`]
//! (which reuses `knn_engine::json` end to end):
//!
//! ```text
//!  client ──TCP──► connection thread ──► registry (name → Arc<engine>)
//!                    │ reader: parse line, resolve tenant      [`registry`]
//!                    │ workers (≤ in-flight cap): ──► admission queue
//!                    │     tenant.serve(req)          (global FIFO budget)
//!                    ▼                                        [`admission`]
//!                  writer: reorder by seq, stream responses in order
//! ```
//!
//! The reader, the control barrier and the writer are the [`frame`] the
//! cluster router shares; this crate supplies the worker pool.
//!
//! * **Dataset registry** — the `load` / `unload` / `list` verbs manage named
//!   tenants at runtime; each owns one lazily-built
//!   [`ExplanationEngine`](knn_engine::ExplanationEngine) behind an `Arc`,
//!   so every connection querying a tenant shares its
//!   explanation cache, single-flight table, and artifacts. Reloading a
//!   name atomically replaces the tenant.
//! * **Live mutation** — the `insert` / `remove` verbs mutate a tenant's
//!   dataset in place, bumping its version (epoch). Invalidation is
//!   selective (the engine carries the untouched class's indexes across
//!   the epoch and revalidates guarded cache entries), and the control
//!   barrier below makes mutations deterministic points in each
//!   connection's stream: after any mutation sequence, responses are
//!   byte-identical to a server freshly loaded with the final dataset.
//! * **Fair admission** — one global worker budget for the whole process. A
//!   query must win an admission slot (strict FIFO) before it executes, and a
//!   connection can hold at most `conn_inflight` slots, so one tenant's
//!   exponential-tail queries cannot starve the others. Budgets are logical
//!   and scheduling-only: *when* a query runs can change, its bytes cannot.
//! * **Streamed, order-preserving responses** — responses go out as soon as
//!   they are ready, but always in request order per connection. For a fixed
//!   registry, the response stream for a request stream is byte-identical to
//!   the sequential in-process engine — the property the integration tests
//!   pin across 16 concurrent clients.
//! * **Observability** — the `stats` verb reports `health`/`uptime_ms`
//!   (the cluster router's liveness probe; it never waits on the admission
//!   queue), the admission queue, and per-tenant counters (requests,
//!   errors, queued, active, cache hit/miss/eviction/coalescing,
//!   artifacts built) without touching response bytes.
//!
//! The `xknn serve` / `xknn client` subcommands wire this to the shell; the
//! `server_throughput` bench records cold/warm throughput at 1/4/16 clients
//! in `BENCH_server.json`.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod frame;
pub mod proto;
pub mod registry;
pub mod series;

pub use admission::{Admission, AdmissionStats};
pub use client::Client;
pub use frame::Handle;
pub use registry::{Registry, Tenant, TenantStats};

use frame::{Connection, Endpoint, Listener, Query, Responses};
use knn_engine::bundle::BundleEntry;
use knn_engine::json::Value;
use knn_engine::{AuditOutcome, EngineConfig, Request};
use knn_telemetry::{AuditJob, SpanEvent, Telemetry};
use proto::Command;
use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Global worker budget: queries executing at once across all
    /// connections and tenants (`0` = all available cores).
    pub worker_budget: usize,
    /// Per-connection in-flight cap: one connection can occupy at most this
    /// many budget slots, so a single greedy client cannot drain the queue.
    pub conn_inflight: usize,
    /// Engine configuration applied to every loaded tenant. (`workers` is
    /// ignored here — the server schedules queries itself.)
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { worker_budget: 0, conn_inflight: 4, engine: EngineConfig::default() }
    }
}

struct Shared {
    registry: Registry,
    admission: Admission,
    /// Process-wide latency histograms and SLO status (enabled at bind) and
    /// the flight recorder the `slow`, `trace` and `dump` verbs read;
    /// shared with every tenant engine.
    telemetry: Arc<Telemetry>,
    conn_inflight: usize,
    /// Monotone connection ids. `(conn, seq)` is the capture reference: it
    /// names one served response in the black-box ring and in its query
    /// span's detail (and so in `slow` entries), and is the selector
    /// `repro` drills down on.
    conn_counter: AtomicU64,
    /// Bind time, for the `uptime_ms` field of `stats` — the cluster
    /// router's health probe wants a cheap liveness answer that never waits
    /// on the admission queue (and `stats` never does: it only snapshots
    /// counters).
    started: Instant,
    /// Per-tenant `(last scrape, request count at that scrape)` — the rate
    /// baseline for the `top` verb's QPS column. First scrape of a tenant
    /// rates over the whole uptime.
    top_baseline: Mutex<BTreeMap<String, (Instant, u64)>>,
}

/// The TCP server. Bind, optionally preload datasets through
/// [`Server::registry`], then [`Server::serve`] (blocking) or
/// [`Server::spawn`] (background thread).
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
    /// The shadow auditor (see [`auditor_loop`]): joined when the accept
    /// loop ends, after closing its queue.
    auditor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(addr)?;
        let budget = if config.worker_budget == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.worker_budget
        };
        let telemetry = Telemetry::new();
        telemetry.set_enabled(true);
        let shared = Arc::new(Shared {
            registry: Registry::with_telemetry(config.engine, telemetry.clone()),
            admission: Admission::new(budget),
            telemetry,
            conn_inflight: config.conn_inflight.max(1),
            conn_counter: AtomicU64::new(0),
            started: Instant::now(),
            top_baseline: Mutex::new(BTreeMap::new()),
        });
        let auditor = {
            let shared = shared.clone();
            std::thread::spawn(move || auditor_loop(&shared))
        };
        Ok(Server { listener, shared, auditor: Some(auditor) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The dataset registry (for preloading before serving).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Accepts connections until a client sends `shutdown`. Each connection
    /// gets its own reader/worker/writer threads.
    pub fn serve(mut self) -> std::io::Result<()> {
        self.listener.serve(&self.shared);
        // Wake the auditor out of its queue wait and let it drain.
        self.shared.telemetry.audit().close();
        if let Some(auditor) = self.auditor.take() {
            let _ = auditor.join();
        }
        Ok(())
    }

    /// Runs [`Server::serve`] on a background thread, returning a handle that
    /// can stop it.
    pub fn spawn(self) -> Handle {
        Handle::spawn(self.listener.stop().clone(), move || {
            let _ = self.serve();
        })
    }
}

/// One in-flight query job: output slot, tenant, request, trace id (the
/// client's `"trace"` member — out-of-band, never echoed in the response),
/// and the raw request line (kept for the capture ring, so a repro bundle
/// replays exactly the bytes the client sent).
type Job = (u64, Arc<Tenant>, Request, Option<String>, String);

/// A server connection's dispatcher: a pool of `conn_inflight` workers (the
/// per-connection in-flight cap) that pull jobs in request order and each
/// acquire a global admission slot per query.
struct ServerConn {
    shared: Arc<Shared>,
    jobs: mpsc::Sender<Job>,
    workers: Vec<JoinHandle<()>>,
}

impl Endpoint for Shared {
    type Conn = ServerConn;

    fn open(self: &Arc<Self>, responses: Responses) -> ServerConn {
        // Connection ids start at 1: `(conn:0, seq:0)` stays an impossible
        // capture reference (what in-process callers without a connection get).
        let conn = self.conn_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..self.conn_inflight)
            .map(|_| {
                let (job_rx, responses, shared) = (job_rx.clone(), responses.clone(), self.clone());
                std::thread::spawn(move || loop {
                    let job = job_rx.lock().unwrap().recv();
                    let Ok((seq, tenant, request, trace, raw)) = job else { break };
                    let line = tenant.serve(
                        &shared.admission,
                        &request,
                        trace.as_deref(),
                        conn,
                        seq,
                        &raw,
                    );
                    responses.deliver(seq, line.into_bytes());
                })
            })
            .collect();
        ServerConn { shared: self.clone(), jobs, workers }
    }

    fn control(self: &Arc<Self>, id: &str, command: Command, _value: &Value) -> String {
        run_control(self, id, command)
    }
}

impl Connection for ServerConn {
    fn dispatch(&mut self, q: Query<'_>) -> Result<(), String> {
        let Some(tenant) = self.shared.registry.get(&q.dataset) else {
            return Err(q.unknown_tenant());
        };
        let raw = String::from_utf8_lossy(q.line).into_owned();
        let _ = self.jobs.send((q.seq, tenant, q.request, q.trace, raw));
        Ok(())
    }

    fn close(self) {
        drop(self.jobs);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// The continuous shadow audit: drains the sampler's queue and re-executes
/// each elected query against the live engine, comparing response bytes.
/// A re-execution is only sound at the epoch the original answered at, so
/// jobs whose tenant has moved on (or been reloaded) are dropped as stale —
/// the audit is opportunistic coverage, not a completeness proof. On
/// divergence the auditor force-records an `audit` span (anomaly
/// `diverged`, so `dump`/`trace` surface it) and auto-exports a repro
/// bundle for the offline `xknn replay` debugger.
fn auditor_loop(shared: &Arc<Shared>) {
    let audit = shared.telemetry.audit();
    loop {
        let Some(job) = audit.next(Duration::from_millis(50)) else {
            if audit.is_closed() {
                return;
            }
            continue;
        };
        let Some(tenant) = shared.registry.get(&job.tenant) else { continue };
        let Ok(req) = Request::from_json_bytes(job.request.as_bytes(), &job.id) else { continue };
        match tenant.engine.audit_replay(&req, job.epoch, &job.response) {
            AuditOutcome::Match | AuditOutcome::Stale => {}
            AuditOutcome::Diverged { got } => report_divergence(shared, &tenant, &job, &got),
        }
    }
}

/// A shadow-audit divergence is the one condition this whole plane exists
/// to catch: same request, same epoch, different bytes. Record it loudly
/// (forced anomaly span) and durably (auto-exported bundle under the OS
/// temp dir, path on stderr) — the serving path itself is never touched.
fn report_divergence(shared: &Arc<Shared>, tenant: &Tenant, job: &AuditJob, got: &str) {
    let recorder = shared.telemetry.recorder();
    recorder.push(
        SpanEvent {
            trace: job.trace.clone().unwrap_or_default(),
            seq: recorder.next_seq(),
            parent: 0,
            name: "audit",
            detail: format!(
                "conn={} seq={} got {} bytes, served {}",
                job.conn,
                job.seq,
                got.len(),
                job.response.len()
            ),
            tenant: job.tenant.clone(),
            epoch: job.epoch,
            start_us: recorder.now_us(),
            dur_us: 0,
            anomaly: "diverged",
        },
        true,
    );
    let bundle = tenant.bundle_with(vec![BundleEntry {
        conn: job.conn,
        seq: job.seq,
        backend: None,
        epoch: job.epoch,
        trace: job.trace.clone(),
        request: job.request.clone(),
        response: job.response.clone(),
    }]);
    let path = std::env::temp_dir()
        .join(format!("xknn-audit-{}-{}-{}.json", job.tenant, job.conn, job.seq));
    match std::fs::write(&path, bundle.to_json() + "\n") {
        Ok(()) => eprintln!(
            "xknn shadow audit: divergence on tenant `{}` (conn={} seq={}); repro bundle at {}",
            job.tenant,
            job.conn,
            job.seq,
            path.display()
        ),
        Err(e) => eprintln!(
            "xknn shadow audit: divergence on tenant `{}` (conn={} seq={}); bundle export failed: {e}",
            job.tenant, job.conn, job.seq
        ),
    }
}

/// Applies one mutation to a tenant's shared engine and formats the
/// response: `{"ok":true,"<verbed>":name,"version":...,"points":...}`.
/// Runs at the connection's control barrier, so pipelined queries before
/// the mutation answer at the old version and queries after it at the new.
fn run_mutation(
    shared: &Arc<Shared>,
    id: &str,
    name: &str,
    mutation: knn_engine::Mutation,
    verbed: &str,
) -> String {
    let Some(tenant) = shared.registry.get(name) else {
        return proto::no_dataset_line(id, name);
    };
    match tenant.apply_logged(mutation) {
        Err(e) => proto::error_line(id, &e),
        Ok(receipt) => proto::ok_line(
            id,
            vec![
                (verbed.to_string(), Value::String(name.to_string())),
                ("version".into(), Value::Number(receipt.epoch as f64)),
                ("points".into(), Value::Number(receipt.points as f64)),
            ],
        ),
    }
}

/// One `top` row per tenant, ranked by estimated bytes (descending, then
/// name): memory by component, request rate since the previous `top`
/// scrape, and SLO burn. Feeds the registered SLO objectives a fresh
/// observation window first, so the burn columns reflect traffic up to
/// this call.
fn top_rows(shared: &Arc<Shared>) -> Vec<Value> {
    let num64 = |n: u64| Value::Number(n as f64);
    let now = Instant::now();
    let mut baseline = shared.top_baseline.lock().unwrap();
    let mut rows: Vec<(u64, String, Value)> = shared
        .registry
        .list()
        .iter()
        .map(|t| {
            let s = t.stats();
            let r = s.engine.resources;
            let (t0, req0) =
                baseline.insert(s.name.clone(), (now, s.requests)).unwrap_or((shared.started, 0));
            let dt = now.duration_since(t0).as_secs_f64().max(1e-6);
            let qps = (s.requests.saturating_sub(req0)) as f64 / dt;
            let slo = shared.telemetry.observe_slo(&s.name);
            // One column per `knn_engine_bytes` component row.
            let bytes = series::TENANT_ROWS
                .iter()
                .filter_map(|row| match row.series {
                    Some((f, &[(_, component)])) if f.name == series::BYTES.name => {
                        Some((component.to_string(), num64((row.get)(&s))))
                    }
                    _ => None,
                })
                .collect();
            let row = Value::Object(vec![
                ("tenant".into(), Value::String(s.name.clone())),
                ("bytes_total".into(), num64(r.total_bytes())),
                ("bytes".into(), Value::Object(bytes)),
                ("requests".into(), num64(s.requests)),
                ("qps".into(), Value::Number((qps * 100.0).round() / 100.0)),
                (
                    "slo_burn".into(),
                    Value::Number(
                        slo.as_ref().map_or(0.0, |st| (st.burn * 10_000.0).round() / 10_000.0),
                    ),
                ),
                ("slo_violations".into(), num64(slo.as_ref().map_or(0, |st| st.violations))),
            ]);
            (r.total_bytes(), s.name, row)
        })
        .collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    rows.into_iter().map(|(_, _, row)| row).collect()
}

/// One span event as a JSON object — every field, plus an (initially
/// empty) `children` array the tree builder and the cluster router's
/// stitcher fill in.
fn span_node(ev: &SpanEvent) -> Value {
    Value::Object(vec![
        ("name".into(), Value::String(ev.name.to_string())),
        ("detail".into(), Value::String(ev.detail.clone())),
        ("tenant".into(), Value::String(ev.tenant.clone())),
        ("epoch".into(), Value::Number(ev.epoch as f64)),
        ("start_us".into(), Value::Number(ev.start_us as f64)),
        ("dur_us".into(), Value::Number(ev.dur_us as f64)),
        ("anomaly".into(), Value::String(ev.anomaly.to_string())),
        ("children".into(), Value::Array(Vec::new())),
    ])
}

/// Reconstructs the span tree of `spans` (expected sorted by
/// `(start_us, seq)`, as [`Recorder::spans_for`](knn_telemetry::Recorder)
/// hands them out): every span whose `parent` is 0 — or points at a span
/// no longer retained — becomes a root; the rest nest under their parent,
/// preserving start order. The cluster router reuses this to render each
/// process's local tree before grafting backend trees under its dispatch
/// spans.
pub fn span_tree(spans: &[SpanEvent]) -> Vec<Value> {
    // Trees are tiny (one query's spans); quadratic child-gathering keeps
    // the builder free of index bookkeeping.
    fn build(spans: &[SpanEvent], parent_seq: u64) -> Vec<Value> {
        spans
            .iter()
            .filter(|ev| ev.parent == parent_seq)
            .map(|ev| {
                let mut node = span_node(ev);
                let children = build(spans, ev.seq);
                if let Value::Object(members) = &mut node {
                    if let Some((_, v)) = members.iter_mut().find(|(k, _)| k == "children") {
                        *v = Value::Array(children);
                    }
                }
                node
            })
            .collect()
    }
    let retained: std::collections::BTreeSet<u64> = spans.iter().map(|ev| ev.seq).collect();
    let mut roots = build(spans, 0);
    // Orphans (parent evicted from the ring) surface as roots rather than
    // disappearing: a trace is forensic data, partial beats silent.
    for ev in spans.iter().filter(|ev| ev.parent != 0 && !retained.contains(&ev.parent)) {
        roots.push(span_node(ev));
    }
    roots
}

/// Executes one control verb, returning the response line.
fn run_control(shared: &Arc<Shared>, id: &str, command: Command) -> String {
    let num = |n: usize| Value::Number(n as f64);
    let num64 = |n: u64| Value::Number(n as f64);
    match command {
        Command::Query { .. } | Command::Ping | Command::Quit | Command::Shutdown => {
            unreachable!("the connection frame handles these")
        }
        Command::Load { name, path, text, replay } => {
            let text = match (text, path) {
                (Some(t), None) => t,
                (None, Some(p)) => match std::fs::read_to_string(&p) {
                    Ok(t) => t,
                    Err(e) => return proto::error_line(id, &format!("cannot read {p}: {e}")),
                },
                _ => unreachable!("parse_line enforces exactly one of path/text"),
            };
            match shared.registry.load_with_replay(&name, &text, &replay) {
                Err(e) => proto::error_line(id, &e),
                Ok(tenant) => {
                    let s = tenant.stats();
                    proto::ok_line(
                        id,
                        vec![
                            ("loaded".into(), Value::String(name)),
                            ("points".into(), num(s.points)),
                            ("dim".into(), num(s.dim)),
                            ("version".into(), num64(s.engine.epoch)),
                        ],
                    )
                }
            }
        }
        Command::Unload { name } => match shared.registry.unload(&name) {
            Err(e) => proto::error_line(id, &e),
            Ok(()) => proto::ok_line(id, vec![("unloaded".into(), Value::String(name))]),
        },
        Command::Insert { name, label, point } => run_mutation(
            shared,
            id,
            &name,
            knn_engine::Mutation::Insert { point, label },
            "inserted",
        ),
        Command::Remove { name, index } => {
            run_mutation(shared, id, &name, knn_engine::Mutation::Remove { id: index }, "removed")
        }
        Command::List => {
            let datasets: Vec<Value> = shared
                .registry
                .list()
                .iter()
                .map(|t| {
                    let s = t.stats();
                    Value::Object(vec![
                        ("name".into(), Value::String(s.name)),
                        ("points".into(), num(s.points)),
                        ("dim".into(), num(s.dim)),
                    ])
                })
                .collect();
            proto::ok_line(id, vec![("datasets".into(), Value::Array(datasets))])
        }
        Command::Stats => {
            let tenants: Vec<TenantStats> =
                shared.registry.list().iter().map(|t| t.stats()).collect();
            let mut members = vec![
                ("health".into(), Value::String("ok".into())),
                ("uptime_ms".into(), num64(shared.started.elapsed().as_millis() as u64)),
            ];
            members.extend(series::stats_members(&tenants, &shared.admission.stats()));
            proto::ok_line(id, members)
        }
        Command::Metrics => {
            // Scrapes drive the SLO windows: each `metrics` (or `top`) call
            // diffs the cumulative histograms into one observation window.
            shared.telemetry.observe_slo_all();
            let mut text = shared.telemetry.render();
            let tenants: Vec<TenantStats> =
                shared.registry.list().iter().map(|t| t.stats()).collect();
            text.push_str(&series::render_metrics(&tenants, &shared.admission.stats()));
            proto::ok_line(id, vec![("metrics".into(), Value::String(text))])
        }
        Command::Top => proto::ok_line(id, vec![("top".into(), Value::Array(top_rows(shared)))]),
        Command::Slo { name, objective } => match objective {
            Some(o) => match shared.telemetry.slo().set(&name, o) {
                Err(e) => proto::error_line(id, &e),
                Ok(()) => proto::ok_line(
                    id,
                    vec![
                        ("slo".into(), Value::String(name)),
                        ("quantile".into(), Value::Number(o.quantile)),
                        ("threshold_us".into(), num64(o.threshold_us)),
                        ("windows".into(), num(o.windows)),
                    ],
                ),
            },
            None => match shared.telemetry.observe_slo(&name) {
                None => {
                    let msg =
                        format!("no slo objective for `{name}` (set one with `threshold_us`)");
                    proto::error_line(id, &msg)
                }
                Some(s) => proto::ok_line(
                    id,
                    vec![
                        ("slo".into(), Value::String(s.tenant)),
                        ("quantile".into(), Value::Number(s.objective.quantile)),
                        ("threshold_us".into(), num64(s.objective.threshold_us)),
                        ("windows".into(), num(s.objective.windows)),
                        ("windows_held".into(), num(s.windows_held)),
                        ("good".into(), num64(s.good)),
                        ("total".into(), num64(s.total)),
                        ("quantile_us".into(), num64(s.quantile_us)),
                        ("short_burn".into(), Value::Number(s.short_burn)),
                        ("long_burn".into(), Value::Number(s.long_burn)),
                        ("burn".into(), Value::Number(s.burn)),
                        ("violations".into(), num64(s.violations)),
                    ],
                ),
            },
        },
        Command::Slow => {
            let slow: Vec<Value> = shared
                .telemetry
                .recorder()
                .slowest()
                .into_iter()
                .map(|q| {
                    Value::Object(vec![
                        ("tenant".into(), Value::String(q.tenant)),
                        ("id".into(), Value::String(q.id)),
                        ("route".into(), Value::String(q.route)),
                        ("cache".into(), Value::String(q.cache)),
                        ("epoch".into(), num64(q.epoch)),
                        ("conn".into(), num64(q.conn)),
                        ("seq".into(), num64(q.seq)),
                        ("total_us".into(), num64(q.total_us)),
                        ("admission_us".into(), num64(q.admission_us)),
                        ("plan_us".into(), num64(q.plan_us)),
                        ("artifact_us".into(), num64(q.artifact_us)),
                        ("cache_us".into(), num64(q.cache_us)),
                        ("solve_us".into(), num64(q.solve_us)),
                        ("trace".into(), q.trace.map(Value::String).unwrap_or(Value::Null)),
                    ])
                })
                .collect();
            proto::ok_line(id, vec![("slow".into(), Value::Array(slow))])
        }
        Command::Trace { trace } => {
            let spans = shared.telemetry.recorder().spans_for(&trace);
            proto::ok_line(
                id,
                vec![
                    ("trace".into(), Value::String(trace)),
                    ("spans".into(), Value::Array(span_tree(&spans))),
                ],
            )
        }
        Command::Dump => {
            let events = shared.telemetry.recorder().all();
            let chrome = knn_telemetry::chrome::chrome_trace_json(&events, 0);
            proto::ok_line(
                id,
                vec![
                    ("events".into(), num(events.len())),
                    ("chrome".into(), Value::String(chrome)),
                ],
            )
        }
        Command::Fill { name, epoch, request, response } => {
            let Some(tenant) = shared.registry.get(&name) else {
                return proto::no_dataset_line(id, &name);
            };
            // Best-effort by design: a stale epoch or an already-present
            // newer entry answers ok with filled:false rather than an error,
            // so routers can fire-and-forget without error-path bookkeeping.
            let installed = tenant.engine.insert_external(
                epoch,
                &request,
                response.route.clone(),
                response.result.clone(),
            );
            proto::ok_line(
                id,
                vec![
                    ("fill".into(), Value::String(name)),
                    ("filled".into(), Value::Bool(installed)),
                ],
            )
        }
        Command::Repro { trace, conn, seq, name } => {
            let capture = shared.telemetry.capture();
            let captures = if let Some(trace) = &trace {
                capture.by_trace(trace)
            } else if let (Some(conn), Some(seq)) = (conn, seq) {
                capture.by_ref(conn, seq).into_iter().collect()
            } else {
                capture.for_tenant(name.as_deref().unwrap_or_default())
            };
            let Some(first) = captures.first() else {
                let msg = "no captured requests match that selector (the capture ring is bounded and keeps the newest)";
                return proto::error_line(id, msg);
            };
            // A bundle replays one tenant's seed; a trace that touched
            // several tenants exports against the first one captured.
            let tenant_name = first.tenant.clone();
            let Some(tenant) = shared.registry.get(&tenant_name) else {
                return proto::no_dataset_line(id, &tenant_name);
            };
            let entries: Vec<BundleEntry> = captures
                .iter()
                .filter(|e| e.tenant == tenant_name)
                .map(|e| BundleEntry {
                    conn: e.conn,
                    seq: e.seq,
                    backend: None,
                    epoch: e.epoch,
                    trace: e.trace.clone(),
                    request: e.request.clone(),
                    response: e.response.clone(),
                })
                .collect();
            let bundle = tenant.bundle_with(entries);
            proto::ok_line(
                id,
                vec![
                    ("repro".into(), Value::String(tenant_name)),
                    ("entries".into(), num(bundle.entries.len())),
                    ("bundle".into(), Value::String(bundle.to_json())),
                ],
            )
        }
        Command::Audit { sample } => {
            let audit = shared.telemetry.audit();
            if let Some(rate) = sample {
                audit.set_rate(rate);
            }
            let (mut checked, mut diverged) = (0u64, 0u64);
            for t in shared.registry.list() {
                let s = t.stats();
                checked += s.engine.audit_checked;
                diverged += s.engine.audit_diverged;
            }
            proto::ok_line(
                id,
                vec![
                    ("sample".into(), num64(audit.rate())),
                    ("checked".into(), num64(checked)),
                    ("diverged".into(), num64(diverged)),
                    ("queued".into(), num(audit.queued())),
                    ("dropped".into(), num64(audit.dropped())),
                ],
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOOL: &str = "+ 1 1 1\n+ 1 1 0\n- 0 0 0\n- 0 0 1\n";

    /// A fixed synthetic registry state: two tenants (two routes each) and
    /// an admission queue, every counter holding a value no other counter
    /// holds, so a member rendered from the wrong field cannot pass.
    pub(crate) fn synthetic_state() -> (Vec<TenantStats>, AdmissionStats) {
        let mut next = 0u64;
        let mut v = || {
            next += 7;
            next
        };
        let mut tenants = Vec::new();
        for name in ["alpha", "beta"] {
            let mut s = TenantStats {
                name: name.into(),
                points: v() as usize,
                points_pos: v() as usize,
                points_neg: v() as usize,
                dim: v() as usize,
                requests: v(),
                errors: v(),
                queued: v(),
                active: v(),
                engine: knn_engine::EngineStats::default(),
                work: Vec::new(),
            };
            let e = &mut s.engine;
            e.cache.hits = v();
            e.cache.misses = v();
            e.cache.evictions = v();
            e.cache.entries = v() as usize;
            e.cache.capacity = v() as usize;
            e.cache.bytes = v();
            e.coalesced = v();
            e.inflight = v() as usize;
            e.artifacts_built = v() as usize;
            e.epoch = v();
            e.inserts = v();
            e.removes = v();
            e.revalidated = v();
            e.revalidation_failed = v();
            e.filled = v();
            e.regions.yields = v();
            e.regions.pruned_empty = v();
            e.regions.pruned_dominated = v();
            e.regions.memo_pruned = v();
            e.artifact_build_us = v();
            e.artifacts_built_total = v();
            e.artifacts_carried = v();
            e.audit_checked = v();
            e.audit_diverged = v();
            let r = &mut e.resources;
            r.dataset_bytes = v();
            r.log_bytes = v();
            r.log_len = v();
            r.artifact_bytes = v();
            r.memo_bytes = v();
            r.memo_len = v();
            r.memo_cap = v();
            r.cache_bytes = v();
            for route in ["hamming-index", "l2-lp-regions"] {
                s.work.push(knn_engine::RouteWorkSnapshot {
                    route: route.into(),
                    computes: v(),
                    lp_solves: v(),
                    qp_solves: v(),
                    kd_visits: v(),
                    region_yields: v(),
                    solve_us: v(),
                });
            }
            tenants.push(s);
        }
        let admission = AdmissionStats {
            budget: v() as usize,
            available: v() as usize,
            waiting: v() as usize,
            granted: v(),
        };
        (tenants, admission)
    }

    /// Flattens a JSON value to `path → leaf`: object members by name,
    /// arrays of named objects by their `name`, other arrays by index.
    fn flatten(prefix: &str, v: &Value, out: &mut BTreeMap<String, Value>) {
        match v {
            Value::Object(members) => {
                for (k, m) in members {
                    flatten(&format!("{prefix}.{k}"), m, out);
                }
            }
            Value::Array(items) => {
                for (i, m) in items.iter().enumerate() {
                    let key =
                        m.get("name").and_then(Value::as_str).map_or(i.to_string(), str::to_string);
                    flatten(&format!("{prefix}[{key}]"), m, out);
                }
            }
            leaf => {
                out.insert(prefix.to_string(), leaf.clone());
            }
        }
    }

    /// Output compatibility: every `stats` member and every exposition
    /// sample the renderers produced for the synthetic state when this
    /// golden was recorded is still produced, with the same value. Order
    /// may change; the only sample allowed to disappear is the deleted
    /// `knn_server_admission_queue_depth` alias.
    #[test]
    fn stats_and_metrics_keep_every_golden_member_and_sample() {
        let (tenants, admission) = synthetic_state();
        let stats = Value::Object(series::stats_members(&tenants, &admission));
        let golden =
            knn_engine::json::parse_bytes(include_bytes!("../testdata/stats.json")).unwrap();
        let (mut want, mut got) = (BTreeMap::new(), BTreeMap::new());
        flatten("", &golden, &mut want);
        flatten("", &stats, &mut got);
        assert!(!want.is_empty());
        for (path, v) in &want {
            assert_eq!(got.get(path), Some(v), "stats member {path}");
        }

        let text = series::render_metrics(&tenants, &admission);
        let now = knn_telemetry::exposition::parse(&text);
        let golden = knn_telemetry::exposition::parse(include_str!("../testdata/metrics.txt"));
        assert!(!golden.is_empty());
        for (key, v) in &golden {
            if knn_telemetry::exposition::family_of(key) == "knn_server_admission_queue_depth" {
                continue;
            }
            assert_eq!(now.get(key), Some(v), "exposition sample {key}");
        }
    }

    fn spawn_server() -> Handle {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        server.registry().load("toy", BOOL).unwrap();
        server.spawn()
    }

    #[test]
    fn end_to_end_lifecycle() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();

        let pong = c.roundtrip(r#"{"id":"p","verb":"ping"}"#).unwrap();
        assert_eq!(pong, r#"{"id":"p","ok":true,"pong":true}"#);

        let resp = c
            .roundtrip(
                r#"{"dataset":"toy","id":"q","cmd":"classify","metric":"hamming","point":[1,1,1]}"#,
            )
            .unwrap();
        assert_eq!(resp, r#"{"id":"q","ok":true,"route":"hamming-index","label":"+"}"#);

        let loaded = c
            .roundtrip(r#"{"id":"l","verb":"load","name":"inline","text":"+ 1 0\n- 0 1"}"#)
            .unwrap();
        assert_eq!(
            loaded,
            r#"{"id":"l","ok":true,"loaded":"inline","points":2,"dim":2,"version":0}"#
        );

        let list = c.roundtrip(r#"{"verb":"list"}"#).unwrap();
        assert!(list.contains(r#""name":"inline""#) && list.contains(r#""name":"toy""#), "{list}");

        let stats = c.roundtrip(r#"{"verb":"stats"}"#).unwrap();
        assert!(stats.contains(r#""admission""#) && stats.contains(r#""requests":1"#), "{stats}");

        let unloaded = c.roundtrip(r#"{"verb":"unload","name":"inline"}"#).unwrap();
        assert!(unloaded.contains(r#""ok":true"#), "{unloaded}");
        let gone = c.roundtrip(r#"{"dataset":"inline","cmd":"classify","point":[1,0]}"#).unwrap();
        assert!(gone.contains("no dataset named"), "{gone}");

        let bye = c.roundtrip(r#"{"verb":"quit"}"#).unwrap();
        assert!(bye.contains(r#""bye":true"#), "{bye}");
        assert_eq!(c.recv().unwrap(), None, "server closes after quit");

        handle.shutdown();
    }

    #[test]
    fn responses_keep_request_order_while_pipelined() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();
        let mut input = String::new();
        for i in 0..40 {
            let cmd = if i % 3 == 0 { "counterfactual" } else { "classify" };
            input.push_str(&format!(
                "{{\"dataset\":\"toy\",\"id\":\"q{i}\",\"cmd\":\"{cmd}\",\"metric\":\"hamming\",\"point\":[{},{},{}]}}\n",
                i % 2,
                (i / 2) % 2,
                (i / 4) % 2
            ));
        }
        let out = c.run_stream(&input).unwrap();
        assert_eq!(out.len(), 40);
        for (i, line) in out.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"id\":\"q{i}\"")), "slot {i}: {line}");
        }
        handle.shutdown();
    }

    #[test]
    fn malformed_lines_get_error_responses_and_the_connection_survives() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();
        for bad in ["not json", "{\"verb\":\"fly\"}", "[]", "{\"cmd\":\"classify\"}"] {
            let resp = c.roundtrip(bad).unwrap();
            assert!(resp.contains(r#""ok":false"#), "{bad} -> {resp}");
        }
        // Still serving after the garbage:
        let resp = c
            .roundtrip(r#"{"dataset":"toy","cmd":"classify","metric":"hamming","point":[0,0,0]}"#)
            .unwrap();
        assert!(resp.contains(r#""label":"-""#), "{resp}");
        handle.shutdown();
    }

    /// The `fill` verb end to end: an explanation computed against one
    /// tenant installs into a twin tenant holding the same dataset at the
    /// same epoch, after which the twin answers byte-identically from cache
    /// (counted under `filled`, not hits/misses) — while a fill labeled with
    /// a stale epoch is dropped with `filled:false`.
    #[test]
    fn fill_verb_installs_epoch_checked_entries() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();
        let loaded = c
            .roundtrip(r#"{"id":"l","verb":"load","name":"twin","text":"+ 1 1 1\n+ 1 1 0\n- 0 0 0\n- 0 0 1"}"#)
            .unwrap();
        assert!(loaded.contains(r#""ok":true"#), "{loaded}");

        // Compute one cold explanation on `toy`.
        let q = r#"{"dataset":"toy","id":"q","cmd":"counterfactual","metric":"hamming","point":[1,1,1]}"#;
        let computed = c.roundtrip(q).unwrap();
        assert!(computed.contains(r#""ok":true"#), "{computed}");

        // Push it into `twin` at the matching epoch: installed.
        let fill = format!(
            r#"{{"id":"f","verb":"fill","name":"twin","epoch":0,"req":{},"resp":{}}}"#,
            Value::String(q.into()).to_json(),
            Value::String(computed.clone()).to_json(),
        );
        let ack = c.roundtrip(&fill).unwrap();
        assert_eq!(ack, r#"{"id":"f","ok":true,"fill":"twin","filled":true}"#);

        // The twin now answers from cache, byte-identically to the origin.
        let qt = q.replace(r#""dataset":"toy""#, r#""dataset":"twin""#);
        assert_eq!(c.roundtrip(&qt).unwrap(), computed);
        let stats = c.roundtrip(r#"{"verb":"stats"}"#).unwrap();
        let twin = stats.split(r#""name":"twin""#).nth(1).expect("twin stats");
        for member in [r#""hits":1"#, r#""misses":0"#, r#""filled":1"#] {
            assert!(twin.contains(member), "missing {member}: {twin}");
        }
        let metrics = c.roundtrip(r#"{"verb":"metrics"}"#).unwrap();
        assert!(metrics.contains(r#"knn_engine_cache_fill_total{tenant=\"twin\"} 1"#), "{metrics}");

        // Mutate the twin (epoch 0 → 1): the same fill is now stale and dropped.
        let ins = c
            .roundtrip(r#"{"id":"i","verb":"insert","name":"twin","label":"-","point":[0,1,0]}"#)
            .unwrap();
        assert!(ins.contains(r#""version":1"#), "{ins}");
        let stale = c.roundtrip(&fill).unwrap();
        assert_eq!(stale, r#"{"id":"f","ok":true,"fill":"twin","filled":false}"#);

        // Unknown tenants are an error, not a silent drop.
        let missing = fill.replace(r#""name":"twin""#, r#""name":"ghost""#);
        assert!(c.roundtrip(&missing).unwrap().contains("no dataset named"), "ghost fill");
        handle.shutdown();
    }

    /// The mutation verbs over the wire: versions bump, queries see the new
    /// dataset, stats report epochs and per-class counts, and the mutated
    /// tenant answers byte-identically to a fresh server loaded with its
    /// final dataset.
    #[test]
    fn insert_and_remove_verbs_mutate_the_tenant_live() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();

        // [0,0,1] is a negative dataset point: 0 flips to "- 0 0 1".
        let q = r#"{"dataset":"toy","id":"q","cmd":"classify","metric":"hamming","point":[0,0,1]}"#;
        let before = c.roundtrip(q).unwrap();
        assert!(before.contains(r#""label":"-""#), "{before}");

        // Insert a positive point *at* the query: the 0-flip tie goes "+".
        let ins = c
            .roundtrip(r#"{"id":"i","verb":"insert","name":"toy","label":"+","point":[0,0,1]}"#)
            .unwrap();
        assert_eq!(ins, r#"{"id":"i","ok":true,"inserted":"toy","version":1,"points":5}"#);
        let after = c.roundtrip(q).unwrap();
        assert!(after.contains(r#""label":"+""#), "{after}");

        // Remove it again (it sits at index 4, the end).
        let rm = c.roundtrip(r#"{"id":"r","verb":"remove","name":"toy","index":4}"#).unwrap();
        assert_eq!(rm, r#"{"id":"r","ok":true,"removed":"toy","version":2,"points":4}"#);
        let reverted = c.roundtrip(q).unwrap();
        assert_eq!(reverted, before, "mutation round-trip restores the original bytes");

        let stats = c.roundtrip(r#"{"verb":"stats"}"#).unwrap();
        for member in [
            r#""version":2"#,
            r#""inserts":1"#,
            r#""removes":1"#,
            r#""points_pos":2"#,
            r#""points_neg":2"#,
        ] {
            assert!(stats.contains(member), "missing {member}: {stats}");
        }

        // Mutating a missing tenant and invalid mutations are plain errors.
        let missing =
            c.roundtrip(r#"{"verb":"insert","name":"nope","label":"+","point":[1,1,1]}"#).unwrap();
        assert!(missing.contains("no dataset named"), "{missing}");
        let bad_dim =
            c.roundtrip(r#"{"verb":"insert","name":"toy","label":"+","point":[1,1]}"#).unwrap();
        assert!(bad_dim.contains("dimension"), "{bad_dim}");
        let bad_idx = c.roundtrip(r#"{"verb":"remove","name":"toy","index":9}"#).unwrap();
        assert!(bad_idx.contains("out of range"), "{bad_idx}");

        handle.shutdown();
    }

    /// The observability plane: `metrics` answers valid Prometheus text
    /// exposition with non-empty route histograms and the per-tenant engine
    /// counters; `slow` reads the slowest retained query families without
    /// draining them; neither changes the bytes of the queries around them.
    #[test]
    fn metrics_and_slow_verbs_expose_telemetry_out_of_band() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();

        let q = r#"{"dataset":"toy","id":"q","cmd":"counterfactual","metric":"hamming","point":[1,0,1]}"#;
        let before = c.roundtrip(q).unwrap();
        for i in 0..4 {
            let line = format!(
                r#"{{"dataset":"toy","id":"w{i}","cmd":"classify","metric":"hamming","point":[{},{},1]}}"#,
                i % 2,
                (i / 2) % 2
            );
            assert!(c.roundtrip(&line).unwrap().contains(r#""ok":true"#));
        }

        let m = c.roundtrip(r#"{"id":"m","verb":"metrics"}"#).unwrap();
        let parsed = knn_engine::json::parse_bytes(m.as_bytes()).unwrap();
        let Some(Value::String(text)) = parsed.get("metrics") else {
            panic!("metrics member missing: {m}");
        };
        knn_telemetry::exposition::validate(text).unwrap();
        let samples = knn_telemetry::exposition::parse(text);
        let served: f64 = samples
            .iter()
            .filter(|(k, _)| k.starts_with("knn_request_duration_us_count{"))
            .map(|(_, v)| *v)
            .sum();
        assert!(served >= 5.0, "route histograms cover the warm queries: {served}");
        for series in [
            r#"knn_request_duration_us_count{tenant="toy",route="hamming-index"}"#,
            r#"knn_phase_duration_us_count{tenant="toy",phase="admission"}"#,
            r#"knn_engine_region_yields_total{tenant="toy"}"#,
            r#"knn_engine_region_pruned_total{tenant="toy",rule="empty"}"#,
            r#"knn_engine_cache_events_total{tenant="toy",event="miss"}"#,
            r#"knn_engine_artifact_cells_total{tenant="toy",kind="built"}"#,
            "knn_server_admission_granted_total",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }

        // `slow` is a read: the counterfactual (multi-µs) is listed, and
        // asking again answers the same entries.
        let s = c.roundtrip(r#"{"id":"s","verb":"slow"}"#).unwrap();
        assert!(s.contains(r#""total_us":"#) && s.contains(r#""cache":"#), "{s}");
        let s2 = c.roundtrip(r#"{"id":"s","verb":"slow"}"#).unwrap();
        assert_eq!(s2, s, "a second `slow` equals the first");

        // Telemetry is out-of-band: the same query answers byte-identically.
        assert_eq!(c.roundtrip(q).unwrap(), before);
        handle.shutdown();
    }

    /// A server whose connections run one query at a time, so each
    /// connection's queries draw the sampler on one fresh worker thread.
    fn spawn_serial_server() -> (Handle, Arc<Shared>) {
        let config = ServerConfig { conn_inflight: 1, ..ServerConfig::default() };
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        server.registry().load("toy", BOOL).unwrap();
        let shared = server.shared.clone();
        (server.spawn(), shared)
    }

    /// The `seq=` of a `query` root's detail (its line on the connection).
    fn root_seq(root: &SpanEvent) -> Option<u64> {
        root.detail.split(' ').find_map(|kv| kv.strip_prefix("seq=")?.parse().ok())
    }

    /// Capture is decided once per query: 256 untraced classify queries on
    /// one connection draw the sampler 256 times on one worker thread, so
    /// four of them, 64 apart, are sampled, and no query is recorded twice.
    /// Each recorded family is a served `query` root with `conn=`/`seq=`
    /// and an `admission` child. A family not forced by an anomaly was
    /// sampled; the thread's first draw takes its phase from a process-wide
    /// counter, so which four are sampled is not fixed, but exactly four
    /// are, all congruent mod 64.
    #[test]
    fn untraced_queries_draw_the_sampler_once() {
        let (handle, shared) = spawn_serial_server();
        let mut c = Client::connect(handle.addr()).unwrap();
        for i in 0..256 {
            let line = format!(
                r#"{{"dataset":"toy","id":"q{i}","cmd":"classify","metric":"hamming","point":[{},{},{}]}}"#,
                i % 2,
                (i / 2) % 2,
                (i / 4) % 2
            );
            assert!(c.roundtrip(&line).unwrap().contains(r#""ok":true"#));
        }
        let spans = shared.telemetry.recorder().all();
        let roots: Vec<&SpanEvent> = spans.iter().filter(|e| e.parent == 0).collect();
        for root in &roots {
            assert_eq!(root.name, "query", "no lone spans: {root:?}");
            assert!(root.detail.contains(" conn=1 seq="), "served root: {root:?}");
            assert!(
                spans.iter().any(|e| e.parent == root.seq && e.name == "admission"),
                "admission child under {root:?}"
            );
        }
        let mut seqs: Vec<u64> = roots.iter().map(|r| root_seq(r).unwrap()).collect();
        seqs.sort_unstable();
        let families = seqs.len();
        seqs.dedup();
        assert_eq!(seqs.len(), families, "a query recorded twice");
        let mut sampled = Vec::new();
        for root in &roots {
            match root.anomaly {
                "" => sampled.push(root_seq(root).unwrap()),
                anomaly => assert_eq!(anomaly, "slow", "forced only as slow: {root:?}"),
            }
        }
        // Some phase r: r, r + 64, r + 128 and r + 192 each left a family
        // (a sampled query that was also slow is recorded as `slow`), and
        // every unforced family is one of them.
        let phase = (0..64u64).find(|r| {
            (0..4).all(|j| seqs.binary_search(&(r + 64 * j)).is_ok())
                && sampled.iter().all(|s| s % 64 == *r)
        });
        assert!(
            phase.is_some(),
            "no phase sampled 4 of 256: families {seqs:?}, sampled {sampled:?}"
        );
        handle.shutdown();
    }

    /// The samplers draw one query in 64 across connections, not the first
    /// query of each: 200 one-query connections (fresh worker threads
    /// each) leave about 200/64 sampled `query` families and shadow audits,
    /// where drawing from a per-thread count starting at 0 sampled and
    /// audited every one of them.
    #[test]
    fn one_query_connections_sample_one_in_n() {
        let (handle, shared) = spawn_serial_server();
        for i in 0..200 {
            let mut c = Client::connect(handle.addr()).unwrap();
            let line = format!(
                r#"{{"dataset":"toy","id":"c{i}","cmd":"classify","metric":"hamming","point":[{},{},1]}}"#,
                i % 2,
                (i / 2) % 2
            );
            assert!(c.roundtrip(&line).unwrap().contains(r#""ok":true"#));
        }
        let spans = shared.telemetry.recorder().all();
        let sampled = spans.iter().filter(|e| e.parent == 0 && e.anomaly.is_empty()).count();
        assert!(sampled <= 8, "{sampled} of 200 one-query connections sampled");
        let audit = shared.telemetry.audit();
        let deadline = Instant::now() + Duration::from_secs(10);
        while audit.queued() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = shared.registry.get("toy").unwrap().stats();
        let audited = stats.engine.audit_checked + audit.dropped() + audit.queued() as u64;
        assert!(audited <= 8, "{audited} of 200 one-query connections audited");
        handle.shutdown();
    }

    /// Anomalies force a capture whether or not a sampler fired: every one
    /// of 64 erroring queries leaves a forced `query` root marked `error`.
    #[test]
    fn every_error_response_forces_a_capture() {
        let (handle, shared) = spawn_serial_server();
        let mut c = Client::connect(handle.addr()).unwrap();
        for i in 0..64 {
            // ℓ1 minimal-SR at k = 3 is a refused Table-1 cell (Thm 5).
            let line = format!(
                r#"{{"dataset":"toy","id":"e{i}","cmd":"minimal-sr","metric":"l1","k":3,"point":[{},{},1]}}"#,
                i % 2,
                (i / 2) % 2
            );
            assert!(c.roundtrip(&line).unwrap().contains(r#""ok":false"#));
        }
        let spans = shared.telemetry.recorder().all();
        let errors: Vec<&SpanEvent> =
            spans.iter().filter(|e| e.name == "query" && e.anomaly == "error").collect();
        assert_eq!(errors.len(), 64, "one forced family per error response");
        let mut seqs: Vec<u64> = errors.iter().filter_map(|r| root_seq(r)).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..64).collect::<Vec<u64>>());
        handle.shutdown();
    }

    /// The resource plane: `top` ranks tenants by estimated bytes with QPS
    /// and SLO burn columns; `slo` sets and reads a latency objective; both
    /// are out-of-band (query bytes unchanged around them). The metrics
    /// exposition carries the byte/work gauges with full HELP/TYPE headers.
    #[test]
    fn top_and_slo_verbs_account_resources_out_of_band() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();
        c.roundtrip(r#"{"verb":"load","name":"second","text":"+ 1 0\n- 0 1"}"#).unwrap();

        let q = r#"{"dataset":"toy","id":"q","cmd":"counterfactual","metric":"hamming","point":[1,0,1]}"#;
        let before = c.roundtrip(q).unwrap();
        assert!(c
            .roundtrip(r#"{"dataset":"second","cmd":"classify","point":[1,0]}"#)
            .unwrap()
            .contains(r#""ok":true"#));

        // An objective with an absurdly low threshold: the first window
        // (all traffic so far) must burn and record a violation.
        let set = c
            .roundtrip(r#"{"id":"o","verb":"slo","name":"toy","quantile":0.5,"threshold_us":0,"windows":4}"#)
            .unwrap();
        assert_eq!(
            set,
            r#"{"id":"o","ok":true,"slo":"toy","quantile":0.5,"threshold_us":0,"windows":4}"#
        );

        let t = c.roundtrip(r#"{"id":"t","verb":"top"}"#).unwrap();
        let parsed = knn_engine::json::parse_bytes(t.as_bytes()).unwrap();
        let Some(Value::Array(rows)) = parsed.get("top") else { panic!("top member: {t}") };
        assert_eq!(rows.len(), 2, "one row per tenant: {t}");
        let mut totals = Vec::new();
        for row in rows {
            let total = row.get("bytes_total").and_then(Value::as_u64).unwrap();
            assert!(total > 0, "every tenant holds bytes: {t}");
            for member in ["tenant", "bytes", "requests", "qps", "slo_burn", "slo_violations"] {
                assert!(row.get(member).is_some(), "row missing {member}: {t}");
            }
            totals.push(total);
        }
        assert!(totals[0] >= totals[1], "ranked by bytes descending: {t}");
        let toy_row =
            rows.iter().find(|r| r.get("tenant") == Some(&Value::String("toy".into()))).unwrap();
        assert!(
            toy_row.get("slo_burn").and_then(Value::as_f64).unwrap() > 0.0,
            "a 0us threshold burns: {t}"
        );

        let status = c.roundtrip(r#"{"id":"g","verb":"slo","name":"toy"}"#).unwrap();
        for member in [r#""slo":"toy""#, r#""windows_held":"#, r#""violations":"#, r#""burn":"#] {
            assert!(status.contains(member), "missing {member}: {status}");
        }
        let no_obj = c.roundtrip(r#"{"verb":"slo","name":"second"}"#).unwrap();
        assert!(no_obj.contains("no slo objective"), "{no_obj}");
        let bad =
            c.roundtrip(r#"{"verb":"slo","name":"toy","quantile":1.5,"threshold_us":10}"#).unwrap();
        assert!(bad.contains(r#""ok":false"#), "quantile out of (0,1) rejected: {bad}");

        // The new gauges ride the exposition, headers included.
        let m = c.roundtrip(r#"{"id":"m","verb":"metrics"}"#).unwrap();
        let parsed = knn_engine::json::parse_bytes(m.as_bytes()).unwrap();
        let Some(Value::String(text)) = parsed.get("metrics") else { panic!("{m}") };
        knn_telemetry::exposition::validate(text).unwrap();
        for series in [
            r#"knn_engine_bytes{tenant="toy",component="dataset"}"#,
            r#"knn_engine_bytes{tenant="toy",component="cache"}"#,
            r#"knn_engine_work_total{tenant="toy",route="#,
            r#"knn_engine_mutation_log_entries{tenant="toy"}"#,
            "knn_server_admission_waiting",
            r#"knn_server_tenant_active{tenant="toy"}"#,
            r#"knn_slo_burn{tenant="toy"}"#,
            "# HELP knn_engine_bytes",
            "# TYPE knn_engine_bytes gauge",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }

        // Accounting is out-of-band: the warmed query answers byte-identically.
        assert_eq!(c.roundtrip(q).unwrap(), before);
        handle.shutdown();
    }

    /// Every family a live server exposes declares how the router merges
    /// it — a new series cannot ship without a rule.
    #[test]
    fn every_served_family_declares_a_merge_rule() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();
        c.roundtrip(r#"{"verb":"slo","name":"toy","quantile":0.5,"threshold_us":1}"#).unwrap();
        let q = r#"{"dataset":"toy","cmd":"counterfactual","metric":"hamming","point":[1,0,1]}"#;
        assert!(c.roundtrip(q).unwrap().contains(r#""ok":true"#));
        let m = c.roundtrip(r#"{"verb":"metrics"}"#).unwrap();
        let parsed = knn_engine::json::parse_bytes(m.as_bytes()).unwrap();
        let Some(Value::String(text)) = parsed.get("metrics") else { panic!("{m}") };
        let families: Vec<&str> =
            text.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next()).collect();
        for family in ["knn_request_duration_us_max", "knn_slo_burn", "knn_engine_epoch"] {
            assert!(families.contains(&family), "{family} missing:\n{text}");
        }
        for family in families {
            assert!(series::merge_rule(family).is_some(), "{family} declares no merge rule");
        }
        handle.shutdown();
    }

    /// Reload semantics: `load` of an existing name atomically replaces the
    /// tenant — new dataset, fresh version — with no unload required.
    #[test]
    fn load_replaces_an_existing_tenant_atomically() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();

        let mutated = c
            .roundtrip(r#"{"id":"i","verb":"insert","name":"toy","label":"+","point":[1,1,1]}"#)
            .unwrap();
        assert!(mutated.contains(r#""version":1"#), "{mutated}");

        let reloaded =
            c.roundtrip(r#"{"id":"l","verb":"load","name":"toy","text":"+ 1 1\n- 0 0"}"#).unwrap();
        assert_eq!(
            reloaded, r#"{"id":"l","ok":true,"loaded":"toy","points":2,"dim":2,"version":0}"#,
            "reload answers like a fresh load"
        );
        let q =
            c.roundtrip(r#"{"dataset":"toy","id":"q","cmd":"classify","point":[1,0.9]}"#).unwrap();
        assert!(q.contains(r#""label":"+""#), "query runs against the replacement: {q}");
        let stats = c.roundtrip(r#"{"verb":"stats"}"#).unwrap();
        assert!(stats.contains(r#""version":0"#), "fresh epoch after reload: {stats}");
        handle.shutdown();
    }

    /// `load` with a `replay` log lands at the final version in one step —
    /// the reconciler's repair path.
    #[test]
    fn load_with_replay_restores_a_mutated_tenant() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();
        let line = format!(
            r#"{{"id":"l","verb":"load","name":"restored","text":{},"replay":[{{"op":"insert","label":"+","point":[0,1,1]}},{{"op":"remove","index":0}}]}}"#,
            Value::String(BOOL.into()).to_json()
        );
        let loaded = c.roundtrip(&line).unwrap();
        assert_eq!(
            loaded,
            r#"{"id":"l","ok":true,"loaded":"restored","points":4,"dim":3,"version":2}"#
        );
        // The restored tenant answers exactly like one mutated verb-by-verb.
        let stepwise = c
            .roundtrip(&format!(
                r#"{{"verb":"load","name":"stepwise","text":{}}}"#,
                Value::String(BOOL.into()).to_json()
            ))
            .and_then(|_| {
                c.roundtrip(r#"{"verb":"insert","name":"stepwise","label":"+","point":[0,1,1]}"#)
            })
            .and_then(|_| c.roundtrip(r#"{"verb":"remove","name":"stepwise","index":0}"#));
        assert!(stepwise.unwrap().contains(r#""version":2"#));
        for point in ["[0,1,1]", "[1,1,0]", "[0,0,0]"] {
            let a = c
                .roundtrip(&format!(
                    r#"{{"dataset":"restored","id":"q","cmd":"classify","metric":"hamming","point":{point}}}"#
                ))
                .unwrap();
            let b = c
                .roundtrip(&format!(
                    r#"{{"dataset":"stepwise","id":"q","cmd":"classify","metric":"hamming","point":{point}}}"#
                ))
                .unwrap();
            assert_eq!(a, b, "replayed and stepwise tenants agree on {point}");
        }
        handle.shutdown();
    }

    /// The forensics plane: a `"trace"` member never changes response
    /// bytes, `trace <id>` reconstructs the query's span tree (root →
    /// admission + phase children), `dump` exports parseable Chrome
    /// trace-event JSON, and `slow` entries link back to the trace id.
    #[test]
    fn trace_verb_reconstructs_spans_and_dump_exports_chrome_json() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();

        let q = r#"{"dataset":"toy","id":"q","cmd":"counterfactual","metric":"hamming","point":[1,0,1]}"#;
        let traced = r#"{"dataset":"toy","id":"q","cmd":"counterfactual","metric":"hamming","point":[1,0,1],"trace":"t-7"}"#;
        let oracle = c.roundtrip(q).unwrap();
        let echoed = c.roundtrip(traced).unwrap();
        assert_eq!(echoed, oracle, "a trace id must never leak into response bytes");

        let t = c.roundtrip(r#"{"id":"t","verb":"trace","trace":"t-7"}"#).unwrap();
        let parsed = knn_engine::json::parse_bytes(t.as_bytes()).unwrap();
        assert_eq!(parsed.get("trace"), Some(&Value::String("t-7".into())));
        let Some(Value::Array(roots)) = parsed.get("spans") else {
            panic!("spans member missing: {t}");
        };
        assert_eq!(roots.len(), 1, "one traced query, one root: {t}");
        let root = &roots[0];
        assert_eq!(root.get("name"), Some(&Value::String("query".into())));
        let Some(Value::Array(children)) = root.get("children") else { panic!("{t}") };
        let names: Vec<&str> =
            children.iter().filter_map(|ch| ch.get("name").and_then(Value::as_str)).collect();
        assert!(names.contains(&"admission"), "admission child present: {names:?}");
        // The traced run was the second identical query: a cache hit.
        assert!(names.contains(&"cache"), "cache child present: {names:?}");

        // An unknown trace id answers with an empty tree, not an error.
        let none = c.roundtrip(r#"{"id":"n","verb":"trace","trace":"nope"}"#).unwrap();
        assert!(none.contains(r#""spans":[]"#), "{none}");

        let d = c.roundtrip(r#"{"id":"d","verb":"dump"}"#).unwrap();
        let parsed = knn_engine::json::parse_bytes(d.as_bytes()).unwrap();
        let Some(Value::String(chrome)) = parsed.get("chrome") else {
            panic!("chrome member missing: {d}");
        };
        let events = knn_engine::json::parse_bytes(chrome.as_bytes()).unwrap();
        let Value::Array(events) = events else { panic!("chrome dump not an array") };
        assert!(!events.is_empty(), "dump covers the traced spans");
        assert!(events.iter().any(|e| e.get("ph") == Some(&Value::String("X".into()))));

        // `slow` links back: the traced counterfactual carries t-7.
        let s = c.roundtrip(r#"{"id":"s","verb":"slow"}"#).unwrap();
        assert!(s.contains(r#""trace":"t-7""#) || s.contains(r#""trace":null"#), "{s}");

        handle.shutdown();
    }

    /// The forensics close-out plane, end to end: every served response is
    /// captured, `repro` exports a self-contained bundle (seed plus replay
    /// ops plus captured lines) whose offline replay is byte-identical even
    /// across a mid-stream mutation, a `slow` entry's `(conn, seq)`
    /// reference drills down into a single-entry bundle, and the shadow
    /// auditor at sample rate 1 re-checks the traffic with zero
    /// divergences.
    #[test]
    fn repro_verb_exports_bundles_and_the_shadow_audit_stays_clean() {
        let handle = spawn_server();
        let mut c = Client::connect(handle.addr()).unwrap();

        let a = c.roundtrip(r#"{"id":"a","verb":"audit","sample":1}"#).unwrap();
        for member in [r#""sample":1"#, r#""checked":"#, r#""diverged":0"#, r#""dropped":0"#] {
            assert!(a.contains(member), "missing {member}: {a}");
        }

        // Traffic across a mutation: the traced query answers at epoch 0,
        // the rest at epoch 1 — one bundle must reproduce both.
        let q0 = r#"{"dataset":"toy","id":"q0","cmd":"counterfactual","metric":"hamming","point":[1,0,1],"trace":"t-r"}"#;
        let served0 = c.roundtrip(q0).unwrap();
        let ins =
            c.roundtrip(r#"{"verb":"insert","name":"toy","label":"+","point":[0,0,1]}"#).unwrap();
        assert!(ins.contains(r#""version":1"#), "{ins}");
        let q1 =
            r#"{"dataset":"toy","id":"q1","cmd":"classify","metric":"hamming","point":[0,0,1]}"#;
        let served1 = c.roundtrip(q1).unwrap();
        assert!(served1.contains(r#""label":"+""#), "{served1}");

        // Tenant-window repro: both captures, the seed, and the insert op.
        let r = c.roundtrip(r#"{"id":"r","verb":"repro","name":"toy"}"#).unwrap();
        let parsed = knn_engine::json::parse_bytes(r.as_bytes()).unwrap();
        assert_eq!(parsed.get("repro"), Some(&Value::String("toy".into())));
        assert_eq!(parsed.get("entries").and_then(Value::as_u64), Some(2), "{r}");
        let Some(Value::String(text)) = parsed.get("bundle") else { panic!("{r}") };
        let bundle = knn_engine::bundle::ReproBundle::from_json(text).unwrap();
        assert_eq!(bundle.replay.len(), 1, "the insert rides the bundle");
        let report = bundle.replay().unwrap();
        assert_eq!((report.checked, report.final_epoch), (2, 1));
        assert!(report.divergences.is_empty(), "{report:?}");
        assert!(
            bundle.entries.iter().any(|e| e.response == served0)
                && bundle.entries.iter().any(|e| e.response == served1),
            "captured bytes are the served bytes"
        );

        // Trace-id repro narrows to the traced query.
        let rt = c.roundtrip(r#"{"id":"rt","verb":"repro","trace":"t-r"}"#).unwrap();
        let parsed = knn_engine::json::parse_bytes(rt.as_bytes()).unwrap();
        assert_eq!(parsed.get("entries").and_then(Value::as_u64), Some(1), "{rt}");

        // The slow → repro drill-down: take (conn, seq) off a slow entry.
        let s = c.roundtrip(r#"{"id":"s","verb":"slow"}"#).unwrap();
        let parsed = knn_engine::json::parse_bytes(s.as_bytes()).unwrap();
        let Some(Value::Array(slow)) = parsed.get("slow") else { panic!("{s}") };
        let entry = slow.first().expect("the counterfactual is a slow entry");
        let conn = entry.get("conn").and_then(Value::as_u64).unwrap();
        let seq = entry.get("seq").and_then(Value::as_u64).unwrap();
        let rs = c
            .roundtrip(&format!(r#"{{"id":"rs","verb":"repro","conn":{conn},"seq":{seq}}}"#))
            .unwrap();
        let parsed = knn_engine::json::parse_bytes(rs.as_bytes()).unwrap();
        assert_eq!(parsed.get("entries").and_then(Value::as_u64), Some(1), "{rs}");

        // No matching capture is an error, not an empty bundle.
        let miss = c.roundtrip(r#"{"verb":"repro","trace":"nope"}"#).unwrap();
        assert!(miss.contains("no captured requests"), "{miss}");

        // The shadow auditor drains the sampled jobs without divergence;
        // its counters surface through the audit verb and the exposition.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let a = c.roundtrip(r#"{"id":"a2","verb":"audit"}"#).unwrap();
            let parsed = knn_engine::json::parse_bytes(a.as_bytes()).unwrap();
            let checked = parsed.get("checked").and_then(Value::as_u64).unwrap();
            let queued = parsed.get("queued").and_then(Value::as_u64).unwrap();
            assert_eq!(parsed.get("diverged").and_then(Value::as_u64), Some(0), "{a}");
            if checked >= 1 && queued == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "auditor never drained: {a}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let m = c.roundtrip(r#"{"id":"m","verb":"metrics"}"#).unwrap();
        let parsed = knn_engine::json::parse_bytes(m.as_bytes()).unwrap();
        let Some(Value::String(text)) = parsed.get("metrics") else { panic!("{m}") };
        assert!(text.contains(r#"knn_audit_checked_total{tenant="toy"}"#), "{text}");
        assert!(text.contains(r#"knn_audit_diverged_total{tenant="toy"} 0"#), "{text}");
        let st = c.roundtrip(r#"{"verb":"stats"}"#).unwrap();
        assert!(st.contains(r#""audit_checked":"#) && st.contains(r#""audit_diverged":0"#), "{st}");

        handle.shutdown();
    }
}
