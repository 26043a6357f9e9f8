//! The in-process replay: the byte oracle for every run, and with a
//! [`Tracer`] the source of the per-layer spans.
//!
//! Each client's operations are replayed against a fresh
//! `ExplanationEngine` per tenant (same dataset text, same default
//! config as the server) in stream order: queries between two mutations
//! run on `workers` threads, the way a server connection's in-flight
//! workers do, and each mutation is applied at its stream position, the
//! way the server's control barrier applies it. Response bytes are a pure
//! function of (dataset at epoch, config, request), so the replayed line
//! must equal the served line byte for byte.

use crate::workload::{id_of, mutation_ack, Body, Op, Workload};
use knn_core::classifier::BooleanKnn;
use knn_engine::artifacts::ArtifactStore;
use knn_engine::{exec, plan, textfmt, EngineConfig, ExplanationEngine, Metric, Outcome};
use knn_engine::{QueryKind, Request, Response};
use knn_server::{proto, Admission};
use knn_space::{BitVec, Label, OddK};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One engine per tenant, configured like the server's.
pub struct Engines {
    engines: Vec<ExplanationEngine>,
    names: Vec<&'static str>,
}

impl Engines {
    /// Fresh engines over the workload's dataset texts.
    pub fn new(w: &Workload) -> Result<Engines, String> {
        let mut engines = Vec::new();
        for t in &w.tenants {
            engines.push(ExplanationEngine::new(
                textfmt::parse_dataset(&t.text)?,
                EngineConfig::default(),
            ));
        }
        Ok(Engines { engines, names: w.tenants.iter().map(|t| t.name).collect() })
    }

    /// The engine of tenant `i`.
    pub fn get(&self, i: usize) -> &ExplanationEngine {
        &self.engines[i]
    }

    /// Every engine.
    pub fn all(&self) -> &[ExplanationEngine] {
        &self.engines
    }
}

/// One recorded span (benchmark-side, around one public call).
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer name (`proto.parse`, `engine.run`, ...).
    pub name: &'static str,
    /// Client stream the operation belongs to.
    pub client: usize,
    /// Operation index within that stream.
    pub op: usize,
    /// Whether this is the operation's root span.
    pub root: bool,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Route tag or cache outcome, when meaningful.
    pub detail: &'static str,
}

impl SpanRec {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Collects spans in memory; written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
    /// Admission queue with the server's budget, so the replay waits the
    /// way served queries do.
    admission: Admission,
}

impl Tracer {
    /// A tracer whose admission queue has `budget` slots.
    pub fn new(budget: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            admission: Admission::new(budget),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("no replay worker panics holding spans"))
    }

    fn push_all(&self, local: Vec<SpanRec>) {
        self.spans.lock().expect("no replay worker panics holding spans").extend(local);
    }
}

/// One client's recorded spans, flushed to the tracer at segment ends.
struct LocalSpans<'t> {
    tracer: &'t Tracer,
    client: usize,
    spans: Vec<SpanRec>,
}

impl LocalSpans<'_> {
    fn span(
        &mut self,
        name: &'static str,
        op: usize,
        t0: Instant,
        t1: Instant,
        detail: &'static str,
    ) {
        let (start_ns, end_ns) = (self.tracer.ns(t0), self.tracer.ns(t1));
        let root = name == "op" || name == "decompose";
        self.spans.push(SpanRec { name, client: self.client, op, root, start_ns, end_ns, detail });
    }
}

impl Drop for LocalSpans<'_> {
    fn drop(&mut self) {
        self.tracer.push_all(std::mem::take(&mut self.spans));
    }
}

/// One client's operations to replay, each with the served line to check
/// it against (`None`: only compute the oracle line).
pub type Stream = Vec<(Op, Option<String>)>;

/// What replaying one client's stream produced.
#[derive(Default)]
pub struct Replayed {
    /// The oracle line of every operation.
    pub lines: Vec<String>,
    /// Whether the replay engine answered the query from its cache.
    pub hit: Vec<bool>,
    /// Checked operations (those with a served line).
    pub checked: usize,
    /// One description per mismatch.
    pub failures: Vec<String>,
}

/// Checked-operation totals over every client.
pub struct ReplaySummary {
    /// Operations compared against a served line.
    pub checked: usize,
    /// One description per mismatch.
    pub failures: Vec<String>,
}

/// Folds per-client replays into totals.
pub fn summarize(replayed: Vec<Replayed>) -> ReplaySummary {
    let mut s = ReplaySummary { checked: 0, failures: Vec::new() };
    for r in replayed {
        s.checked += r.checked;
        s.failures.extend(r.failures);
    }
    s
}

/// How many computed (cache-miss) queries per client the traced run
/// decomposes into plan / artifact build / solve.
const DECOMPOSE_PER_CLIENT: usize = 200;

/// Replays every client's stream concurrently (one thread per client, plus
/// `workers` threads per query segment), checking served lines.
pub fn replay(
    engines: &Engines,
    streams: Vec<Stream>,
    workers: usize,
    tracer: Option<&Tracer>,
) -> Vec<Replayed> {
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| s.spawn(move || replay_client(engines, c, stream, workers, tracer)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    })
}

fn replay_client(
    engines: &Engines,
    client: usize,
    stream: Stream,
    workers: usize,
    tracer: Option<&Tracer>,
) -> Replayed {
    let n = stream.len();
    let mut out =
        Replayed { lines: vec![String::new(); n], hit: vec![false; n], ..Replayed::default() };
    let stride = (n / DECOMPOSE_PER_CLIENT).max(1);
    let mut decomposer = Decomposer::default();
    let mut i = 0;
    while i < n {
        let end = (i..n).find(|&j| matches!(stream[j].0.body, Body::Mutation(_))).unwrap_or(n);
        let results = run_segment(engines, client, &stream[i..end], i, workers, tracer);
        for (k, line, hit) in results {
            out.lines[k] = line;
            out.hit[k] = hit;
        }
        for (k, (op, served)) in stream.iter().enumerate().take(end).skip(i) {
            if let Some(served) = served {
                out.checked += 1;
                if let Some(why) = check(engines, op, served, &out.lines[k]) {
                    out.failures.push(format!("client {client} op {k}: {why}"));
                }
            }
            if let Some(t) = tracer {
                if !out.hit[k] && k % stride == 0 {
                    decomposer.run(engines, t, client, k, op);
                }
            }
        }
        if end < n {
            let (op, served) = &stream[end];
            let mut spans = tracer.map(|t| LocalSpans { tracer: t, client, spans: Vec::new() });
            let t0 = Instant::now();
            out.lines[end] = apply(engines, op);
            if let Some(spans) = spans.as_mut() {
                let t1 = Instant::now();
                spans.span("delta.apply", end, t0, t1, "");
                spans.span("op", end, t0, t1, "");
            }
            if let Some(served) = served {
                out.checked += 1;
                if *served != out.lines[end] {
                    out.failures.push(format!(
                        "client {client} op {end}: served {served} but oracle {}",
                        out.lines[end]
                    ));
                }
            }
        }
        i = end + 1;
    }
    out
}

/// Runs one mutation-free run of queries on `workers` threads; returns
/// `(index, line, cache hit)` per query.
fn run_segment(
    engines: &Engines,
    client: usize,
    seg: &[(Op, Option<String>)],
    base: usize,
    workers: usize,
    tracer: Option<&Tracer>,
) -> Vec<(usize, String, bool)> {
    let next = AtomicUsize::new(0);
    let workers = workers.min(seg.len()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut spans =
                        tracer.map(|t| LocalSpans { tracer: t, client, spans: Vec::new() });
                    let mut done = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some((op, _)) = seg.get(j) else { break };
                        let (line, hit) = match spans.as_mut() {
                            None => {
                                let Body::Query(req) = &op.body else { unreachable!() };
                                let resp = engines.get(op.tenant).run(req);
                                (resp.to_json_line(), false)
                            }
                            Some(spans) => traced_query(engines, spans, base + j, op),
                        };
                        done.push((base + j, line, hit));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("replay worker panicked")).collect()
    })
}

/// One query through the layers' public functions, a span around each:
/// the server's line parser, the admission queue, the engine, the
/// serializer.
fn traced_query(
    engines: &Engines,
    spans: &mut LocalSpans<'_>,
    k: usize,
    op: &Op,
) -> (String, bool) {
    let admission = &spans.tracer.admission;
    let t0 = Instant::now();
    let parsed = proto::parse_line_value(op.line.as_bytes(), "0");
    let t1 = Instant::now();
    let req = match parsed {
        Ok((proto::Parsed { command: proto::Command::Query { request, .. }, .. }, _)) => request,
        _ => unreachable!("generated query lines parse"),
    };
    let slot = admission.acquire();
    let t2 = Instant::now();
    let (resp, qt) = engines.get(op.tenant).run_with_trace(&req);
    let t3 = Instant::now();
    drop(slot);
    let line = resp.to_json_line();
    let t4 = Instant::now();
    spans.span("proto.parse", k, t0, t1, "");
    spans.span("admission.wait", k, t1, t2, "");
    spans.span("engine.run", k, t2, t3, qt.cache);
    spans.span("engine.serialize", k, t3, t4, "");
    spans.span("op", k, t0, t4, "");
    (line, qt.cache != "miss")
}

/// The idle in-process cost of one query, µs: the median over `n` calls of
/// parse + engine (a cache hit after the first call) + serialize.
pub fn idle_cost_us(engines: &Engines, op: &Op, n: usize) -> f64 {
    let engine = engines.get(op.tenant);
    let costs: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let (parsed, _) =
                proto::parse_line_value(op.line.as_bytes(), "0").expect("generated lines parse");
            if let proto::Command::Query { request, .. } = parsed.command {
                std::hint::black_box(engine.run(&request).to_json_line());
            }
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    crate::stats::Percentiles::new(costs).quantile(0.5).unwrap_or(0.0)
}

/// Applies a mutation to its tenant's engine; returns the ack line.
fn apply(engines: &Engines, op: &Op) -> String {
    let Body::Mutation(m) = &op.body else { unreachable!("called on mutations only") };
    let id = id_of(op);
    match engines.get(op.tenant).apply(m.clone()) {
        Ok(r) => mutation_ack(&id, engines.names[op.tenant], m, r.epoch, r.points),
        Err(e) => proto::error_line(&id, &e),
    }
}

/// Compares a served line with the oracle line and, for Hamming classify
/// and counterfactual answers, re-checks it against the plain linear-scan
/// classifier (`knn_core::classifier::BooleanKnn`, the definition the
/// `knn_core::brute` oracles are built on), independent of the served
/// route's indexes and SAT encoding.
fn check(engines: &Engines, op: &Op, served: &str, oracle: &str) -> Option<String> {
    if served != oracle {
        return Some(format!("served {served} but oracle {oracle}"));
    }
    let Body::Query(req) = &op.body else { return None };
    if req.metric != Metric::Hamming
        || !matches!(req.kind, QueryKind::Classify | QueryKind::Counterfactual)
    {
        return None;
    }
    let data = engines.get(op.tenant).data();
    let ds = data.boolean.as_ref()?;
    let k = OddK::new(req.k)?;
    let knn = BooleanKnn::new(ds, k);
    let bits = |p: &[f64]| BitVec::from_bools(&p.iter().map(|&v| v == 1.0).collect::<Vec<_>>());
    let x = bits(&req.point);
    let fx = knn.classify(&x);
    match Response::from_json_line(served).ok()?.result {
        Ok(Outcome::Label(l)) if l != fx => {
            Some(format!("{}: served label {l:?}, linear scan says {fx:?}", req.id))
        }
        Ok(Outcome::Counterfactual { point, dist, .. }) => {
            let y = bits(&point);
            let fy = knn.classify(&y);
            let d = x.hamming(&y) as f64;
            (fy == fx || d != dist).then(|| {
                format!(
                    "{}: witness label {fy:?} (query {fx:?}) at distance {d}, reported {dist}",
                    req.id
                )
            })
        }
        _ => None,
    }
}

/// The traced run's decomposition of computed queries into the engine's
/// inner layers, each timed around its public function: the planner, the
/// first artifact-store call of the epoch (which builds), and the
/// executor with artifacts already built.
#[derive(Default)]
struct Decomposer {
    /// `(tenant, epoch)` → the store artifacts are built into.
    stores: Vec<((usize, u64), Arc<ArtifactStore>)>,
}

impl Decomposer {
    fn run(&mut self, engines: &Engines, tracer: &Tracer, client: usize, k: usize, op: &Op) {
        let Body::Query(req) = &op.body else { return };
        let engine = engines.get(op.tenant);
        let data = engine.data();
        let key = (op.tenant, engine.epoch());
        let store = match self.stores.iter().find(|(k, _)| *k == key) {
            Some((_, s)) => s.clone(),
            None => {
                self.stores.retain(|((t, _), _)| *t != op.tenant);
                self.stores.push((key, Arc::new(ArtifactStore::new())));
                self.stores.last().expect("just pushed").1.clone()
            }
        };
        let mut spans = LocalSpans { tracer, client, spans: Vec::new() };
        let t0 = Instant::now();
        let Ok(planned) = plan::plan(req, false) else { return };
        let t1 = Instant::now();
        let built0 = store.metrics().snapshot().built;
        build_artifacts(&store, &data, req, planned.tag);
        let t2 = Instant::now();
        let built = store.metrics().snapshot().built > built0;
        let resp = exec::execute(&data, &store, req, None);
        let t3 = Instant::now();
        std::hint::black_box(resp);
        spans.span("engine.plan", k, t0, t1, planned.tag);
        if built {
            spans.span("engine.artifact_build", k, t1, t2, planned.tag);
        }
        spans.span("core.solve", k, t2, t3, planned.tag);
        spans.span("decompose", k, t0, t3, planned.tag);
    }
}

/// Calls the artifact-store getters route `tag` reads, so the executor
/// afterwards finds them built.
fn build_artifacts(store: &ArtifactStore, data: &knn_engine::EngineData, req: &Request, tag: &str) {
    let classes = [Label::Positive, Label::Negative];
    match tag {
        "hamming-index" => {
            for l in classes {
                if data.boolean.as_ref().is_some_and(|b| b.count_of(l) > 0) {
                    store.hamming_class_index(data, l);
                }
            }
        }
        "kdtree-class-index" => {
            let p = req.metric.lp_exponent().unwrap_or(2);
            for l in classes {
                if data.continuous.count_of(l) > 0 {
                    store.kd_class_index(data, p, l);
                }
            }
        }
        t if t.starts_with("l2-") => {
            if let Some(k) = OddK::new(req.k) {
                store.l2_lazy_regions(data, k);
            }
        }
        _ => {}
    }
}
