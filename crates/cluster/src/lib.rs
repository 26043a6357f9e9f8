//! # knn-cluster — a sharding/replication router over `knn-server` backends
//!
//! One `knn-server` process multiplexes many tenants; this crate scales the
//! other axis: **one (hot) tenant across many server processes**. A router
//! process fronts N backends, speaking the same newline-delimited JSON
//! protocol on both sides — for query and error lines, clients cannot tell
//! a router from a server by the bytes (control verbs answer with
//! cluster-shaped members: replica sets, per-backend health):
//!
//! ```text
//!                        ┌─ placement map: tenant ─rendezvous-hash→ replicas
//!  client ──TCP──► router│                                    [`placement`]
//!                        ├─ backend pool: spawn-or-attach, health probes,
//!                        │  mark-down / mark-up                    [`pool`]
//!                        └─ per-connection scatter-gather:
//!                           queries routed by cache affinity,
//!                           responses merged in request order   [`scatter`]
//!                                │
//!                 ┌──────────────┼──────────────┐
//!            knn-server     knn-server     knn-server   (N processes)
//! ```
//!
//! * **Backend pool** — spawn `xknn serve` children on ephemeral ports or
//!   attach to already-running servers; a probe thread polls each backend's
//!   `stats` verb (`health`/`uptime_ms`) and marks backends up; any TCP
//!   failure marks them down.
//! * **Control plane** — every control line the router sends a backend
//!   (probes, load/unload and mutation fan-out, rebuilds, fills, the
//!   cluster verbs' scrapes) is one [`Backend::ask`]: `"ok":true` comes back
//!   parsed, any other reply is a refusal with the backend's error text, and
//!   a failed or unparseable exchange is a failure. Replies are read within
//!   [`pool::CONTROL_DEADLINE`], so a backend that stays silent is marked
//!   down instead of stalling the probe loop and the control-plane lock.
//! * **Placement map** — `load` assigns a tenant a replica set by
//!   deterministic rendezvous hashing (optionally `"replicas":r` per tenant)
//!   and fans the dataset out to every replica (re-loading an existing name
//!   atomically replaces it everywhere); `unload` retracts it.
//! * **Live mutation** — `insert` / `remove` fan out to every replica of
//!   the tenant under the control-plane lock, so replicas never diverge: a
//!   replica that misses a mutation is demoted from the active set before
//!   the client hears the ack, and the probe loop's reconciler rebuilds it
//!   atomically from the retained seed text plus the full mutation log
//!   (`load` + `replay`) before re-admitting it. The log is kept as
//!   [`knn_engine::Mutation`] values and encoded for the wire by
//!   `knn_engine::bundle::mutation_to_op`, like a lone server's bundles.
//!   Per-replica versions are visible in the cluster `stats` verb.
//! * **Batch scatter-gather** — a client's pipelined batch is partitioned
//!   across its tenant's replicas and merged back in sequence order. Each
//!   query is a pure function of `(dataset, config, request)`, so
//!   request-level sharding keeps the response stream **byte-identical**
//!   to a single server — including under replica failure, when pending
//!   queries are redispatched to survivors (see [`scatter`] for the failure
//!   model).
//! * **Cache-affinity routing + cross-replica fill** — every query line is
//!   routed by rendezvous hash of the engine's deterministic cache key, so
//!   every repeat of a query prefers the replica already holding its cached
//!   explanation (warm throughput scales with backends instead of
//!   inverting), and the key's remaining replicas, in the same rendezvous
//!   order, are its failover order. Lines the router cannot parse never
//!   reach a backend: the router answers them itself. A replica that
//!   computes a cold answer has it pushed to the key's first failover
//!   replica via the `fill` verb — best-effort, deduplicated,
//!   epoch-checked on both ends.
//! * **Cluster stats** — the router's `stats` verb aggregates per-backend
//!   admission and per-tenant cache counters into one cluster view.
//!
//! The `xknn router` subcommand wires this to the shell; the
//! `router_throughput` bench records 1/2/4-backend cold and warm throughput
//! in `BENCH_cluster.json`.

#![warn(missing_docs)]

pub mod placement;
pub mod pool;
mod scatter;

pub use placement::{PlacementMap, TenantPlacement};
pub use pool::{AskError, Backend, BackendPool, BackendSnapshot};

use knn_engine::bundle::mutation_to_op;
use knn_engine::json::{parse_bytes, Value};
use knn_engine::Mutation;
use knn_server::frame::{Connection, Endpoint, Listener, Query, Responses, Stop};
use knn_server::proto::{self, Command};
use knn_server::Handle;
use knn_telemetry::exposition::{self, Merge};
use knn_telemetry::{SloObjective, Telemetry};
use scatter::{Dispatcher, PendingQuery};
use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Router configuration. Query routing has no setting: every query prefers
/// its cache-affinity home replica, and every cold answer is offered for a
/// cross-replica fill.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Default replicas per tenant when a `load` names none
    /// (`0` = replicate on every backend).
    pub replication: usize,
    /// Health-probe cadence (`Duration::ZERO` disables the probe loop;
    /// data-path failures still mark backends down, but nothing marks them
    /// up again).
    pub probe_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig { replication: 0, probe_interval: Duration::from_millis(500) }
    }
}

/// Where a `load` fan-out takes the dataset from.
#[derive(Clone, Copy, Debug)]
pub enum LoadSource<'a> {
    /// A file the *router* reads and forwards inline (backends need not
    /// share a filesystem with it).
    Path(&'a str),
    /// Inline dataset text.
    Text(&'a str),
}

/// The router's retained state for one placed tenant: everything needed to
/// rebuild any replica byte-for-byte — the seed text plus the full mutation
/// log, and the replica set that acknowledged the seed (`desired`). The
/// *active* replica set (queries route only there) lives in the placement
/// map and is always a subset of `desired`: a replica that fails a
/// mutation is demoted from the active set on the spot and repaired back
/// into it by the reconciler.
#[derive(Clone)]
struct TenantSource {
    /// The seed dataset text fanned out at load time.
    seed: Arc<str>,
    /// Applied mutations since the seed, oldest first: the fan-out lines,
    /// the `replay` items of a rebuild and a repro bundle's `replay` are
    /// all encoded from these.
    muts: Vec<Mutation>,
    /// The replicas that acknowledged the seed load, in placement order.
    desired: Vec<usize>,
}

impl TenantSource {
    /// The version (epoch) every consistent replica must be at.
    fn version(&self) -> u64 {
        self.muts.len() as u64
    }
}

struct RouterShared {
    pool: Arc<BackendPool>,
    placement: Arc<PlacementMap>,
    /// Router-side counters (dispatches, failovers, demotions, reconciles)
    /// and the probe-round latency histogram. Enabled at bind; the
    /// `metrics` verb appends its rendering after the merged backend
    /// expositions (series names are disjoint from the backends').
    telemetry: Arc<Telemetry>,
    /// The client listener's stop flag: the probe loop and the fill worker
    /// end with the accept loop.
    stop: Arc<Stop>,
    started: Instant,
    probe_interval: Duration,
    /// Connection counter, naming router-minted trace ids (`r{conn}-{line}`).
    conn_counter: AtomicUsize,
    /// Retained seed text + mutation log per tenant, so the probe loop can
    /// rebuild a replica that restarted with an empty registry (or missed a
    /// mutation) to the exact current version.
    sources: Mutex<BTreeMap<String, TenantSource>>,
    /// Serializes the control plane: `load`/`unload`/mutation fan-outs and
    /// reconciles must not interleave (split-brain: replicas holding one
    /// client's data under a placement recording another's; a reconcile
    /// replaying a log a concurrent mutation is extending). These are rare
    /// control-plane operations, so holding a lock across the roundtrips is
    /// fine.
    load_lock: Mutex<()>,
    /// The fill hub: completed answers are offered here and a worker
    /// thread pushes them to peer replicas.
    fill: Arc<FillHub>,
}

/// One completed keyed answer, queued for best-effort propagation to the
/// tenant's peer replicas.
struct FillJob {
    tenant: String,
    /// The answer's affinity key: picks the push target (the key's first
    /// failover replica).
    key: u64,
    /// Backend that produced (or already cached) the answer — excluded
    /// from the push set.
    origin: usize,
    /// Router-side tenant version at *dispatch* time; re-verified under
    /// the load lock before pushing (see [`push_fill`]).
    version: u64,
    /// The forwarded request line (UTF-8 of the exact bytes the backend
    /// answered).
    req: String,
    /// The response line the backend produced.
    resp: String,
}

/// Fan-in point for cross-replica cache fill: dispatchers offer completed
/// answers; a single worker thread drains the queue and pushes each
/// fresh `(tenant, key)`'s answer to the tenant's other replicas over
/// their control channels. Fire-and-forget by design — a lost push costs
/// one future cache miss, never a wrong byte.
pub(crate) struct FillHub {
    tx: Mutex<mpsc::Sender<FillJob>>,
    /// `(tenant, affinity key)` pairs already offered, so a hot key's
    /// thousandth repeat does not re-push the same immutable entry.
    /// Bounded by clearing on overflow: dedup is an optimization — the
    /// engine's insert path tolerates (and ignores) duplicates.
    seen: Mutex<std::collections::HashSet<(String, u64)>>,
}

/// Cap on the fill dedup set; clearing past this only costs re-pushes.
const FILL_SEEN_CAP: usize = 65_536;

impl FillHub {
    /// Queues `q`'s completed answer for propagation unless its
    /// `(tenant, affinity key)` was already offered. Called off the response
    /// path (after the client has its bytes); never blocks on I/O.
    pub(crate) fn offer(&self, q: &scatter::PendingQuery, origin: usize, resp: &[u8]) {
        let key = q.key;
        {
            let mut seen = self.seen.lock().unwrap();
            if seen.len() >= FILL_SEEN_CAP {
                seen.clear();
            }
            if !seen.insert((q.tenant.clone(), key)) {
                return;
            }
        }
        let req = String::from_utf8_lossy(q.line.trim_ascii()).into_owned();
        let resp = String::from_utf8_lossy(resp).into_owned();
        let job = FillJob { tenant: q.tenant.clone(), key, origin, version: q.version, req, resp };
        let _ = self.tx.lock().unwrap().send(job);
    }
}

/// The fill worker: drains the hub's queue, re-validating and pushing each
/// job. Polls with a timeout so it notices router shutdown.
fn start_fill_worker(shared: &Arc<RouterShared>, rx: mpsc::Receiver<FillJob>) {
    let shared = shared.clone();
    std::thread::spawn(move || loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(job) => push_fill(&shared, job),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.stop.is_set() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    });
}

/// Pushes one answer to the key's **first failover replica** — the
/// highest-ranked replica in the key's affinity order that is not the
/// origin — under the load lock, and only if the tenant's version still
/// equals the job's dispatch-time version.
///
/// One target, not all peers: affinity routing sends a key's repeats to
/// its home replica, so the only other replica that will ever see the key
/// (short of a double failure) is the next one in its affinity order.
/// Filling just that replica buys warm failover at 1/(N-1) of the push
/// traffic and keeps each replica's cache holding its own shard instead
/// of every replica holding everything.
///
/// Why the lock and the version check are both load-bearing: a mutation
/// fan-out bumps the router-side version only *after* every replica acked,
/// so a query can race it — computed on a replica already at N+1 while the
/// router still reads N. Labeling that answer with N and pushing it to a
/// replica still at N would install bytes from the future under the old
/// epoch: silent divergence. Holding the load lock means no fan-out is in
/// flight while we push, and `version == job.version` means none completed
/// since dispatch either — so every active replica is at exactly the
/// epoch the answer was computed at. The backend's own epoch check on
/// insert ([`knn_engine::ExplanationEngine::insert_external`]) remains as
/// the second belt.
fn push_fill(shared: &Arc<RouterShared>, job: FillJob) {
    let _load_serialized = shared.load_lock.lock().unwrap();
    let current = shared.sources.lock().unwrap().get(&job.tenant).map(|s| s.version());
    if current != Some(job.version) {
        shared.telemetry.add("knn_router_fill_stale_total", 1);
        return;
    }
    let Some(active) = shared.placement.get(&job.tenant) else { return };
    let line = Value::Object(vec![
        ("id".into(), Value::String("fill".into())),
        ("verb".into(), Value::String("fill".into())),
        ("name".into(), Value::String(job.tenant.clone())),
        ("epoch".into(), Value::Number(job.version as f64)),
        ("req".into(), Value::String(job.req)),
        ("resp".into(), Value::String(job.resp)),
    ])
    .to_json();
    let target = scatter::affinity_order(job.key, &active).into_iter().find(|&id| id != job.origin);
    if let Some(id) = target {
        let Some(backend) = shared.pool.get(id) else { return };
        if !backend.is_healthy() {
            return; // it will rebuild its cache the usual way
        }
        // Best-effort: an error or a `filled:false` answer costs nothing
        // but the miss the peer would have had anyway.
        let _ = backend.ask(&line);
        shared.telemetry.add("knn_router_fills_total", 1);
    }
}

/// The router process: bind, attach/spawn backends, preload tenants, then
/// [`Router::serve`] (blocking) or [`Router::spawn`] (background thread).
pub struct Router {
    listener: Listener,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Binds the client-facing listener to `addr` (`127.0.0.1:0` for an
    /// ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: RouterConfig) -> std::io::Result<Router> {
        let listener = Listener::bind(addr)?;
        let telemetry = Telemetry::new();
        telemetry.set_enabled(true);
        let (fill_tx, fill_rx) = mpsc::channel();
        let shared = Arc::new(RouterShared {
            pool: Arc::new(BackendPool::new()),
            placement: Arc::new(PlacementMap::new(config.replication)),
            telemetry,
            stop: listener.stop().clone(),
            started: Instant::now(),
            probe_interval: config.probe_interval,
            conn_counter: AtomicUsize::new(0),
            sources: Mutex::new(BTreeMap::new()),
            load_lock: Mutex::new(()),
            fill: Arc::new(FillHub {
                tx: Mutex::new(fill_tx),
                seen: Mutex::new(std::collections::HashSet::new()),
            }),
        });
        start_fill_worker(&shared, fill_rx);
        Ok(Router { listener, shared })
    }

    /// The bound client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The backend pool (attach backends before serving).
    pub fn pool(&self) -> &BackendPool {
        &self.shared.pool
    }

    /// The placement map.
    pub fn placement(&self) -> &PlacementMap {
        &self.shared.placement
    }

    /// Registers an already-running backend server.
    pub fn attach(&self, addr: SocketAddr) -> Arc<Backend> {
        self.shared.pool.attach(addr)
    }

    /// Spawns an owned `xknn serve` backend child on an ephemeral port.
    /// `extra_args` go to the child verbatim (e.g. `--workers`, `--cache`).
    pub fn spawn_backend(
        &self,
        xknn: &std::path::Path,
        extra_args: &[String],
    ) -> std::io::Result<Arc<Backend>> {
        self.shared.pool.spawn(xknn, extra_args)
    }

    /// Places `name` by rendezvous hash and fans the dataset out to every
    /// replica. Returns the replica ids.
    pub fn load(
        &self,
        name: &str,
        source: LoadSource<'_>,
        replication: Option<usize>,
    ) -> Result<Vec<usize>, String> {
        fan_out_load(&self.shared, name, source, Placement::Auto(replication))
    }

    /// [`Router::load`] with an explicit replica set (operator override /
    /// test pinning) instead of rendezvous placement.
    pub fn load_pinned(
        &self,
        name: &str,
        source: LoadSource<'_>,
        replicas: Vec<usize>,
    ) -> Result<Vec<usize>, String> {
        fan_out_load(&self.shared, name, source, Placement::Pinned(replicas))
    }

    /// Accepts client connections until a client sends `shutdown`. Also
    /// starts the health-probe loop.
    pub fn serve(self) -> std::io::Result<()> {
        start_probe_loop(&self.shared);
        self.listener.serve(&self.shared);
        // Spawned backends die with the router.
        self.shared.pool.shutdown_spawned();
        Ok(())
    }

    /// Runs [`Router::serve`] on a background thread. Its handle's
    /// `shutdown` also shuts down spawned backends.
    pub fn spawn(self) -> Handle {
        Handle::spawn(self.listener.stop().clone(), move || {
            let _ = self.serve();
        })
    }
}

/// The probe loop doubles as a **reconciler**: each round, every backend
/// that answers its `stats` probe has the probe's per-tenant versions
/// compared to the router's expected versions, and any desired replica
/// that is missing a tenant (restarted amnesiac) or holds it at the wrong
/// version (missed a mutation) is rebuilt — one atomic `load` carrying the
/// retained seed text plus the full mutation log as `replay`, so the
/// replica is never observable at an intermediate version. Until that
/// converges, inconsistent replicas are out of the tenant's *active* set
/// (queries never route to them) and the scatter layer's not-loaded
/// redispatch (see [`scatter`]) keeps response bytes correct.
fn start_probe_loop(shared: &Arc<RouterShared>) {
    if shared.probe_interval.is_zero() {
        return;
    }
    let shared = shared.clone();
    std::thread::spawn(move || {
        while !shared.stop.is_set() {
            let round = Instant::now();
            for backend in shared.pool.backends() {
                if backend.probe() {
                    reconcile_backend(&shared, &backend);
                }
            }
            shared
                .telemetry
                .record_named("knn_router_probe_round_us", round.elapsed().as_micros() as u64);
            std::thread::sleep(shared.probe_interval);
        }
    });
}

/// Repairs any desired replica of a placed tenant this backend hosts that
/// is missing the tenant (restarted amnesiac) or holds it at the wrong
/// version. Serialized with `load`/`unload`/mutations by the load lock —
/// otherwise a reconcile running off a stale snapshot could rebuild a
/// tenant a concurrent `unload` just removed, or replay a log a concurrent
/// mutation is extending.
///
/// The versions the repair decision reads come from a **fresh** `stats`
/// roundtrip made *under the load lock*, never from the probe response
/// that triggered the reconcile: a mutation holds the lock across its
/// fan-out, so by the time the reconcile acquires it, probe-time state may
/// describe the previous version — acting on it would demote a perfectly
/// consistent replica (and, transiently, every replica of the tenant).
///
/// The repair itself is **atomic**: a single `load` with the seed text and
/// the mutation log as `replay`, which the backend applies before the
/// tenant becomes visible. A repaired (or consistent-but-demoted) replica
/// is re-admitted to the tenant's active set, in desired order.
fn reconcile_backend(shared: &Arc<RouterShared>, backend: &Backend) {
    let _load_serialized = shared.load_lock.lock().unwrap();
    let sources = shared.sources.lock().unwrap().clone();
    if sources.is_empty() {
        return;
    }
    let Ok(v) = backend.ask(r#"{"id":"reconcile","verb":"stats"}"#) else { return };
    // tenant name → reported version on this backend.
    let held: BTreeMap<&str, u64> = v
        .get("tenants")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|t| {
            let name = t.get("name").and_then(Value::as_str)?;
            Some((name, t.get("version").and_then(Value::as_u64).unwrap_or(0)))
        })
        .collect();
    for (name, src) in &sources {
        if !src.desired.contains(&backend.id) {
            continue;
        }
        let active = shared.placement.get(name).unwrap_or_default();
        let consistent = held.get(name.as_str()) == Some(&src.version());
        if consistent {
            if !active.contains(&backend.id) {
                // Applied its mutations but the ack was lost: re-admit.
                readmit(shared, name, src, &active, backend.id);
            }
            continue;
        }
        // Inconsistent: make sure no queries route here, then rebuild
        // atomically and re-admit on success.
        if active.contains(&backend.id) {
            let demoted: Vec<usize> =
                active.iter().copied().filter(|&id| id != backend.id).collect();
            shared.placement.pin(name, demoted);
        }
        if backend.ask(&load_line(name, src)).is_ok() {
            shared.telemetry.add("knn_router_reconciles_total", 1);
            let active = shared.placement.get(name).unwrap_or_default();
            readmit(shared, name, src, &active, backend.id);
        }
    }
}

/// Re-pins `name`'s active replica set to `active ∪ {id}`, ordered by the
/// tenant's desired replica order (deterministic listings).
fn readmit(
    shared: &Arc<RouterShared>,
    name: &str,
    src: &TenantSource,
    active: &[usize],
    id: usize,
) {
    let merged: Vec<usize> =
        src.desired.iter().copied().filter(|r| active.contains(r) || *r == id).collect();
    shared.placement.pin(name, merged);
}

/// The wire line that rebuilds `name` on a backend: the seed text plus the
/// retained mutation log as `replay` (omitted while empty, which keeps the
/// initial fan-out line identical to PR 3's).
fn load_line(name: &str, src: &TenantSource) -> String {
    let mut members = vec![
        ("id".into(), Value::String("fanout".into())),
        ("verb".into(), Value::String("load".into())),
        ("name".into(), Value::String(name.to_string())),
        ("text".into(), Value::String(src.seed.to_string())),
    ];
    if !src.muts.is_empty() {
        members
            .push(("replay".into(), Value::Array(src.muts.iter().map(mutation_to_op).collect())));
    }
    Value::Object(members).to_json()
}

/// The wire line that applies `m` to `name` on a backend: `m`'s `replay`
/// item ([`mutation_to_op`]) with its `op` as the verb, so the fan-out and
/// a later rebuild encode the same mutation the same way.
fn mutation_line(name: &str, m: &Mutation) -> String {
    let Value::Object(mut members) = mutation_to_op(m) else { unreachable!("ops are objects") };
    members[0].0 = "verb".into();
    members.insert(0, ("id".into(), Value::String("fanout".into())));
    members.insert(2, ("name".into(), Value::String(name.to_string())));
    Value::Object(members).to_json()
}

/// What one control line sent to a replica set got back.
struct Sent {
    /// The replicas that answered `"ok":true`, in the order asked.
    acked: Vec<usize>,
    /// Every other replica, in the order asked.
    failed: Vec<usize>,
    /// The first refusal's or failure's text.
    first_err: Option<String>,
}

/// Sends `line` to each backend in `ids`, one after another, and sorts
/// them by their answers.
fn send_to(shared: &RouterShared, ids: &[usize], line: &str) -> Sent {
    let mut sent = Sent { acked: Vec::new(), failed: Vec::new(), first_err: None };
    for &id in ids {
        let reply = match shared.pool.get(id) {
            Some(backend) => backend.ask(line).map_err(AskError::message),
            None => Err(format!("no backend with id {id}")),
        };
        match reply {
            Ok(_) => sent.acked.push(id),
            Err(e) => {
                sent.failed.push(id);
                sent.first_err.get_or_insert(e);
            }
        }
    }
    sent
}

/// Best-effort `unload` of `name` on each of `ids`: a dead replica has
/// nothing to unload, and one that refuses is no longer this tenant's
/// concern.
fn unload_from(shared: &RouterShared, name: &str, ids: impl IntoIterator<Item = usize>) {
    let line = Value::Object(vec![
        ("id".into(), Value::String("fanout".into())),
        ("verb".into(), Value::String("unload".into())),
        ("name".into(), Value::String(name.to_string())),
    ])
    .to_json();
    for id in ids {
        if let Some(backend) = shared.pool.get(id) {
            let _ = backend.ask(&line);
        }
    }
}

/// How a `load` picks its candidate replica set.
enum Placement {
    Auto(Option<usize>),
    Pinned(Vec<usize>),
}

/// Places a tenant and fans its dataset out to every candidate replica,
/// atomically **replacing** any tenant already placed under that name
/// (matching the single server's reload semantics). Only the replicas that
/// **acknowledge** the load become the tenant's replica set — a backend
/// that is down must never be routed queries for data it does not hold.
/// The dataset text is retained (with an empty mutation log) so the probe
/// loop can rebuild an acknowledged replica that later restarts empty.
fn fan_out_load(
    shared: &Arc<RouterShared>,
    name: &str,
    source: LoadSource<'_>,
    placement: Placement,
) -> Result<Vec<usize>, String> {
    let _load_serialized = shared.load_lock.lock().unwrap();
    let n = shared.pool.len();
    if n == 0 {
        return Err("no backends attached".into());
    }
    let text = match source {
        LoadSource::Text(t) => t.to_string(),
        LoadSource::Path(p) => {
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?
        }
    };
    let candidates = match placement {
        Placement::Auto(replication) => shared.placement.rendezvous(name, n, replication),
        Placement::Pinned(ids) => {
            if ids.is_empty() || ids.iter().any(|&id| id >= n) {
                return Err(format!("pinned replicas {ids:?} out of range (pool size {n})"));
            }
            ids
        }
    };
    // The old generation's *desired* set, not just the active one: a
    // replica demoted by a failed mutation still holds (stale) data and
    // must be cleaned up on replace like everyone else.
    let previous = shared.sources.lock().unwrap().get(name).map(|s| s.desired.clone());
    let src =
        TenantSource { seed: Arc::from(text.as_str()), muts: Vec::new(), desired: Vec::new() };
    let Sent { acked, first_err, .. } = send_to(shared, &candidates, &load_line(name, &src));
    if acked.is_empty() {
        // A reload that reached nobody changes nothing: the previous
        // generation (if any) stays placed and retained.
        return Err(first_err.unwrap_or_else(|| "load failed on every replica".into()));
    }
    shared
        .sources
        .lock()
        .unwrap()
        .insert(name.to_string(), TenantSource { desired: acked.clone(), ..src });
    shared.placement.pin(name, acked.clone());
    // A replace: old-generation replicas that are not part of the new set
    // still hold the old data — drop it (best-effort; an unreachable one is
    // simply no longer this tenant's concern).
    if let Some(old) = previous {
        unload_from(shared, name, old.into_iter().filter(|id| !acked.contains(id)));
    }
    Ok(acked)
}

/// Fans `unload` out to the tenant's replicas and retracts the placement.
/// Holds the load lock so it cannot interleave with a `load`, a mutation,
/// or a reconcile of the same name.
fn fan_out_unload(shared: &Arc<RouterShared>, name: &str) -> Result<Vec<usize>, String> {
    let _load_serialized = shared.load_lock.lock().unwrap();
    let replicas = shared.placement.remove(name)?;
    let desired = shared.sources.lock().unwrap().remove(name).map(|s| s.desired);
    // Every desired replica may hold data (a demoted one holds a stale
    // generation) — unload them all, not just the active set.
    unload_from(shared, name, desired.unwrap_or_else(|| replicas.clone()));
    Ok(replicas)
}

/// Fans one mutation out to every *active* replica of `name` under the
/// load lock, appends it to the retained log, and answers the client:
/// `{"ok":true,"<verbed>":name,"version":...,"replicas":[...]}`.
///
/// Failure handling keeps replicas from diverging: a replica that does not
/// acknowledge the mutation is **demoted** from the active set right here
/// (and best-effort unloaded), so no query can read its stale state after
/// the mutation's response; the reconciler repairs and re-admits it later
/// by replaying the log. If *no* replica acknowledges, the mutation did
/// not happen: the log is not extended and the client gets an error. The
/// first refusal from a live, consistent replica (a deterministic
/// validation error — bad dimension, index out of range) is reported
/// verbatim, and since validation is deterministic, every consistent
/// replica refused it identically — nothing diverged.
fn fan_out_mutation(
    shared: &Arc<RouterShared>,
    id: &str,
    name: &str,
    mutation: Mutation,
    verbed: &str,
) -> String {
    let _load_serialized = shared.load_lock.lock().unwrap();
    let Some(active) = shared.placement.get(name) else {
        return proto::no_dataset_line(id, name);
    };
    let Sent { acked, failed, first_err } =
        send_to(shared, &active, &mutation_line(name, &mutation));
    if acked.is_empty() {
        let e = first_err.unwrap_or_else(|| "mutation failed on every replica".into());
        return proto::error_line(id, &e);
    }
    // Partial failure: demote the failures before the client hears the ack,
    // so post-mutation queries can only reach replicas that applied it.
    if !failed.is_empty() {
        shared.telemetry.add("knn_router_demotions_total", failed.len() as u64);
        shared.placement.pin(name, acked.clone());
        unload_from(shared, name, failed);
    }
    let version = {
        let mut sources = shared.sources.lock().unwrap();
        let src = sources.get_mut(name).expect("placed tenants are retained");
        src.muts.push(mutation);
        src.version()
    };
    proto::ok_line(
        id,
        vec![
            (verbed.to_string(), Value::String(name.to_string())),
            ("version".into(), Value::Number(version as f64)),
            (
                "replicas".into(),
                Value::Array(acked.iter().map(|&i| Value::Number(i as f64)).collect()),
            ),
        ],
    )
}

/// A router connection's dispatcher: the frame's queries go through the
/// [`scatter::Dispatcher`].
struct RouterConn {
    shared: Arc<RouterShared>,
    /// Names router-minted trace ids (`r{conn}-{line}`).
    conn: usize,
    disp: Arc<Dispatcher>,
}

impl Endpoint for RouterShared {
    type Conn = RouterConn;

    fn open(self: &Arc<Self>, responses: Responses) -> RouterConn {
        let conn = self.conn_counter.fetch_add(1, Ordering::Relaxed);
        let disp = Dispatcher::new(
            self.pool.clone(),
            self.placement.clone(),
            responses,
            self.telemetry.clone(),
            self.fill.clone(),
        );
        RouterConn { shared: self.clone(), conn, disp }
    }

    fn control(self: &Arc<Self>, id: &str, command: Command, value: &Value) -> String {
        run_cluster_control(self, id, command, value)
    }
}

impl Connection for RouterConn {
    fn dispatch(&mut self, q: Query<'_>) -> Result<(), String> {
        let shared = &self.shared;
        if shared.placement.get(&q.dataset).is_none() {
            return Err(q.unknown_tenant());
        }
        let has_id = q.value.get("id").is_some();
        // Trace propagation: a client's `"trace"` member rides the
        // forwarded bytes as-is; for a 1-in-N sampled untraced query the
        // router mints an id and splices it in-band, so the backend
        // captures the same query the router's dispatch span covers.
        // Either way the id never reaches response bytes.
        let minted = (q.value.get("trace").is_none() && shared.telemetry.recorder().sample())
            .then(|| format!("r{}-{}", self.conn, q.lineno));
        let trace = q.trace.or_else(|| minted.clone());
        let start_us = if trace.is_some() { shared.telemetry.recorder().now_us() } else { 0 };
        // The affinity key is the engine's own cache-key hash — computable
        // here without any dataset or artifact, because it is a pure
        // function of the request. The version snapshot is the epoch a fill
        // of this answer would be labeled with.
        let key = knn_engine::cache::affinity_hash(&q.request);
        let version =
            shared.sources.lock().unwrap().get(&q.dataset).map(|s| s.version()).unwrap_or(0);
        self.disp.dispatch(PendingQuery {
            seq: q.seq,
            line: forward_query_line(q.line, q.lineno, has_id, minted.as_deref()),
            id: q.request.id,
            tenant: q.dataset,
            attempts: 0,
            trace,
            start_us,
            key,
            version,
            not_loaded: None,
        });
        Ok(())
    }

    fn close(self) {
        self.disp.close();
    }
}

/// The bytes forwarded to a backend for a client's query line: the raw line
/// itself — the backend computes the response from the parsed request, and
/// parsing is bytes-in-semantics-out — except for two splices at the
/// opening brace, both preserving every other byte (numeric formatting in
/// `point` etc. is untouched):
///
/// * a line with no `"id"` member (`has_id`, from the caller's
///   already-parsed view of the line) gets the client's line number
///   `lineno` injected, because the backend's own line counter (the default
///   id) will not match the client's;
/// * a router-minted trace id (`minted_trace`; only for lines with no
///   `"trace"` member of their own) rides in-band as a `"trace"` member,
///   which the backend reads out-of-band and never echoes.
fn forward_query_line(
    raw: &[u8],
    lineno: u64,
    has_id: bool,
    minted_trace: Option<&str>,
) -> Vec<u8> {
    let mut inject = String::new();
    if !has_id {
        inject.push_str(&format!("\"id\":\"{lineno}\","));
    }
    if let Some(t) = minted_trace {
        inject.push_str("\"trace\":");
        inject.push_str(&Value::String(t.to_string()).to_json());
        inject.push(',');
    }
    let mut out = Vec::with_capacity(raw.len() + inject.len() + 1);
    if inject.is_empty() {
        out.extend_from_slice(raw);
    } else {
        let brace = raw.iter().position(|&b| b == b'{').unwrap_or(0);
        out.extend_from_slice(&raw[..=brace]);
        out.extend_from_slice(inject.as_bytes());
        out.extend_from_slice(&raw[brace + 1..]);
    }
    out.push(b'\n');
    out
}

/// Executes one control verb at the router. `value` is the parsed line.
fn run_cluster_control(
    shared: &Arc<RouterShared>,
    id: &str,
    command: Command,
    value: &Value,
) -> String {
    let num = |n: usize| Value::Number(n as f64);
    let ids = |v: &[usize]| Value::Array(v.iter().map(|&i| num(i)).collect());
    match command {
        Command::Query { .. } | Command::Ping | Command::Quit | Command::Shutdown => {
            unreachable!("the connection frame handles these")
        }
        Command::Load { name, path, text, replay } => {
            if !replay.is_empty() {
                // `replay` is the router→backend repair channel; a client
                // expressing history should send the mutations as verbs.
                let msg = "`replay` is not accepted through the router (send insert/remove verbs)";
                return proto::error_line(id, msg);
            }
            let source = match (&text, &path) {
                (Some(t), None) => LoadSource::Text(t),
                (None, Some(p)) => LoadSource::Path(p),
                _ => unreachable!("parse_line enforces exactly one of path/text"),
            };
            // `load` may carry a per-tenant `"replicas":r` member the shared
            // proto doesn't model.
            let replicas = value.get("replicas").and_then(Value::as_u64).map(|r| r as usize);
            match fan_out_load(shared, &name, source, Placement::Auto(replicas)) {
                Err(e) => proto::error_line(id, &e),
                Ok(replicas) => proto::ok_line(
                    id,
                    vec![
                        ("loaded".into(), Value::String(name)),
                        ("replicas".into(), ids(&replicas)),
                    ],
                ),
            }
        }
        Command::Insert { name, label, point } => {
            fan_out_mutation(shared, id, &name, Mutation::Insert { point, label }, "inserted")
        }
        Command::Remove { name, index } => {
            fan_out_mutation(shared, id, &name, Mutation::Remove { id: index }, "removed")
        }
        Command::Unload { name } => match fan_out_unload(shared, &name) {
            Err(e) => proto::error_line(id, &e),
            Ok(replicas) => proto::ok_line(
                id,
                vec![("unloaded".into(), Value::String(name)), ("replicas".into(), ids(&replicas))],
            ),
        },
        Command::List => {
            let datasets: Vec<Value> = shared
                .placement
                .list()
                .into_iter()
                .map(|t| {
                    Value::Object(vec![
                        ("name".into(), Value::String(t.name)),
                        ("replicas".into(), ids(&t.replicas)),
                    ])
                })
                .collect();
            proto::ok_line(id, vec![("datasets".into(), Value::Array(datasets))])
        }
        Command::Fill { .. } => {
            // `fill` is the router→backend cache-fill channel; a client has
            // no epoch authority, so the router refuses it the same way it
            // refuses client `replay`.
            let msg = "`fill` is not accepted through the router (cache fill is router-originated)";
            proto::error_line(id, msg)
        }
        Command::Stats => cluster_stats_line(shared, id),
        Command::Metrics => cluster_metrics_line(shared, id),
        Command::Top => cluster_top_line(shared, id),
        Command::Slo { name, objective } => cluster_slo_line(shared, id, &name, objective),
        Command::Slow => cluster_slow_line(shared, id),
        Command::Trace { trace } => cluster_trace_line(shared, id, &trace),
        Command::Dump => cluster_dump_line(shared, id),
        Command::Repro { trace, conn, seq, name } => {
            cluster_repro_line(shared, id, trace.as_deref(), conn, seq, name.as_deref())
        }
        Command::Audit { sample } => cluster_audit_line(shared, id, sample),
    }
}

/// Sends one control line to every healthy backend and returns each
/// `"ok":true` reply with its backend id, in pool order — the one fan-out
/// behind every cluster control verb. Unhealthy backends are skipped
/// (nothing was expected of them), and a refusal is an answer (that
/// backend has nothing for this request); a healthy backend whose
/// roundtrip fails or whose reply does not parse bumps
/// `knn_router_scrape_failures_total`, so a partial answer never passes
/// silently for a cluster-wide one.
fn fan_out(shared: &RouterShared, line: &str) -> Vec<(usize, Value)> {
    shared
        .pool
        .backends()
        .iter()
        .filter(|backend| backend.is_healthy())
        .filter_map(|backend| match backend.ask(line) {
            Ok(v) => Some((backend.id, v)),
            Err(AskError::Refused(_)) => None,
            Err(AskError::Failed(_)) => {
                shared.telemetry.add("knn_router_scrape_failures_total", 1);
                None
            }
        })
        .collect()
}

/// Folds `reply`'s numeric members into `acc` by their declared rule
/// ([`knn_server::series::reply_merge`]), recursing into nested objects;
/// any other member keeps its first-seen value.
fn fold_members(acc: &mut Vec<(String, Value)>, reply: &[(String, Value)]) {
    for (key, v) in reply {
        match (acc.iter_mut().find(|(k, _)| k == key), v) {
            (None, _) => acc.push((key.clone(), v.clone())),
            (Some((_, Value::Number(cur))), Value::Number(n)) => {
                *cur = knn_server::series::reply_merge(key).fold(*cur, *n)
            }
            (Some((_, Value::Object(inner))), Value::Object(m)) => fold_members(inner, m),
            _ => {}
        }
    }
}

/// The `ok:true` replies to `line` folded into one reply body (without
/// `id`/`ok`) plus a `replicas` count; `None` when no live backend
/// answered ok.
fn merged_reply(shared: &RouterShared, line: &str) -> Option<Vec<(String, Value)>> {
    let mut acc = Vec::new();
    let mut replicas = 0usize;
    for (_, v) in fan_out(shared, line) {
        if let Value::Object(members) = &v {
            fold_members(&mut acc, members);
            replicas += 1;
        }
    }
    acc.retain(|(k, _)| k != "id" && k != "ok");
    acc.push(("replicas".into(), Value::Number(replicas as f64)));
    (replicas > 0).then_some(acc)
}

/// The cluster `metrics` verb: the backends' expositions **merged
/// key-wise**, each family by its declared rule
/// ([`knn_server::series::merge_rule`]: histogram buckets and counters
/// sum, `_max` companions and per-replica gauges such as the epoch and the
/// SLO burn take the max — exact for the histograms because every backend
/// emits the identical fixed bucket set), then the router's own series
/// appended (`knn_router_*`: dispatches, failovers, demotions, reconciles,
/// scrape failures, the probe-round histogram — names disjoint from
/// anything a backend emits). The `knn_router_backends_scraped` gauge says
/// how many expositions this merge actually covers.
fn cluster_metrics_line(shared: &Arc<RouterShared>, id: &str) -> String {
    let texts: Vec<String> = fan_out(shared, r#"{"id":"agg","verb":"metrics"}"#)
        .into_iter()
        .filter_map(|(_, v)| v.get("metrics").and_then(Value::as_str).map(str::to_string))
        .collect();
    let rule = |family: &str| knn_server::series::merge_rule(family).unwrap_or(Merge::Sum);
    let mut text = exposition::merge(&texts, rule);
    text.push_str(&shared.telemetry.render());
    exposition::push_header(
        &mut text,
        "knn_router_backends_scraped",
        "gauge",
        "Backend expositions this merge covers.",
    );
    exposition::push_sample(&mut text, "knn_router_backends_scraped", texts.len() as u64);
    proto::ok_line(id, vec![("metrics".into(), Value::String(text))])
}

/// The cluster `top` verb: every live backend's rows merged per tenant —
/// bytes / requests / QPS / violations **sum** (each backend holds its own
/// replica of the data and serves its own share of the traffic), burn
/// rates **max-merge** (the worst replica defines the tenant's SLO health;
/// averaging would let a healthy replica mask a burning one). Rows come
/// back ranked by merged bytes descending, then tenant name.
fn cluster_top_line(shared: &Arc<RouterShared>, id: &str) -> String {
    let mut merged: Vec<Value> = Vec::new();
    let mut scraped = 0usize;
    for (_, v) in fan_out(shared, r#"{"id":"agg","verb":"top"}"#) {
        let Some(rows) = v.get("top").and_then(Value::as_array) else { continue };
        scraped += 1;
        for row in rows {
            match (merged.iter_mut().find(|m| m.get("tenant") == row.get("tenant")), row) {
                (Some(Value::Object(acc)), Value::Object(members)) => fold_members(acc, members),
                _ => merged.push(row.clone()),
            }
        }
    }
    for row in &mut merged {
        if let Value::Object(members) = row {
            for (k, v) in members.iter_mut() {
                if let ("qps", Value::Number(q)) = (k.as_str(), v) {
                    *q = (*q * 100.0).round() / 100.0;
                }
            }
        }
    }
    let bytes = |row: &Value| row.get("bytes_total").and_then(Value::as_u64).unwrap_or(0);
    let tenant = |row: &Value| row.get("tenant").and_then(Value::as_str).map(str::to_string);
    merged.sort_by_key(|row| (std::cmp::Reverse(bytes(row)), tenant(row)));
    proto::ok_line(
        id,
        vec![
            ("top".into(), Value::Array(merged)),
            ("backends_scraped".into(), Value::Number(scraped as f64)),
        ],
    )
}

/// The cluster `slo` verb. **Set** fans the objective to every live
/// backend (setting it on a backend that doesn't host the tenant is
/// harmless — no traffic, no windows) and reports how many acknowledged.
/// **Get** merges each backend's status: good/total/violations sum, burn
/// rates and the attained quantile max-merge — the same
/// worst-replica-wins rule as `top`.
fn cluster_slo_line(
    shared: &Arc<RouterShared>,
    id: &str,
    name: &str,
    objective: Option<SloObjective>,
) -> String {
    let Some(o) = objective else {
        let req = Value::Object(vec![
            ("id".into(), Value::String("agg".into())),
            ("verb".into(), Value::String("slo".into())),
            ("name".into(), Value::String(name.to_string())),
        ])
        .to_json();
        return match merged_reply(shared, &req) {
            Some(members) => proto::ok_line(id, members),
            None => {
                proto::error_line(id, &format!("no slo objective for `{name}` on any live backend"))
            }
        };
    };
    let objective = vec![
        ("quantile".into(), Value::Number(o.quantile)),
        ("threshold_us".into(), Value::Number(o.threshold_us as f64)),
        ("windows".into(), Value::Number(o.windows as f64)),
    ];
    let mut line = vec![
        ("id".into(), Value::String("fanout".into())),
        ("verb".into(), Value::String("slo".into())),
        ("name".into(), Value::String(name.to_string())),
    ];
    line.extend(objective.iter().cloned());
    let acked = fan_out(shared, &Value::Object(line).to_json()).len();
    if acked == 0 {
        return proto::error_line(id, "no live backend accepted the slo objective");
    }
    let mut members = vec![("slo".into(), Value::String(name.to_string()))];
    members.extend(objective);
    members.push(("replicas".into(), Value::Number(acked as f64)));
    proto::ok_line(id, members)
}

/// The cluster `trace` verb: the router's local span tree for `trace`
/// (dispatch completions, failover anomalies), with every healthy
/// backend's reconstruction of the same trace **stitched** under the
/// router's matching `dispatch` span — matched by the `backend=<id>`
/// detail the dispatch recorder wrote, and tagged with an explicit
/// `"backend"` member. A backend's spans with no surviving dispatch span
/// (evicted from the router's ring) get a synthesized dispatch node:
/// partial forensics beat silently dropped ones.
fn cluster_trace_line(shared: &Arc<RouterShared>, id: &str, trace: &str) -> String {
    let req = Value::Object(vec![
        ("id".into(), Value::String("agg".into())),
        ("verb".into(), Value::String("trace".into())),
        ("trace".into(), Value::String(trace.to_string())),
    ])
    .to_json();
    let mut roots = knn_server::span_tree(&shared.telemetry.recorder().spans_for(trace));
    for (backend, v) in fan_out(shared, &req) {
        match v.get("spans") {
            Some(Value::Array(spans)) if !spans.is_empty() => {
                graft_backend_spans(&mut roots, backend, spans.clone())
            }
            _ => {}
        }
    }
    proto::ok_line(
        id,
        vec![
            ("trace".into(), Value::String(trace.to_string())),
            ("spans".into(), Value::Array(roots)),
        ],
    )
}

/// Nests `spans` (one backend's span-tree roots) under the router's first
/// `dispatch` node for that backend, adding the `"backend"` member; or
/// synthesizes the dispatch node when the router retained none.
fn graft_backend_spans(roots: &mut Vec<Value>, backend_id: usize, spans: Vec<Value>) {
    let tag = format!("backend={backend_id}");
    let slot = roots.iter().position(|n| {
        n.get("name").and_then(Value::as_str) == Some("dispatch")
            && n.get("detail").and_then(Value::as_str) == Some(tag.as_str())
    });
    match slot {
        Some(i) => {
            if let Value::Object(members) = &mut roots[i] {
                if !members.iter().any(|(k, _)| k == "backend") {
                    let at =
                        members.iter().position(|(k, _)| k == "children").unwrap_or(members.len());
                    members.insert(at, ("backend".into(), Value::Number(backend_id as f64)));
                }
                if let Some((_, Value::Array(children))) =
                    members.iter_mut().find(|(k, _)| k == "children")
                {
                    children.extend(spans);
                }
            }
        }
        None => roots.push(Value::Object(vec![
            ("name".into(), Value::String("dispatch".into())),
            ("detail".into(), Value::String(tag)),
            ("backend".into(), Value::Number(backend_id as f64)),
            ("children".into(), Value::Array(spans)),
        ])),
    }
}

/// The cluster `dump` verb: one merged Chrome trace-event array — the
/// router's own recorder at `pid` 0, each backend's dump rewritten to
/// `pid` `backend.id + 1` so every process gets its own lane group in the
/// viewer.
fn cluster_dump_line(shared: &Arc<RouterShared>, id: &str) -> String {
    let router_chrome =
        knn_telemetry::chrome::chrome_trace_json(&shared.telemetry.recorder().all(), 0);
    let mut merged: Vec<Value> = match parse_bytes(router_chrome.as_bytes()) {
        Ok(Value::Array(events)) => events,
        _ => Vec::new(),
    };
    for (backend, v) in fan_out(shared, r#"{"id":"agg","verb":"dump"}"#) {
        let Some(chrome) = v.get("chrome").and_then(Value::as_str) else { continue };
        let Ok(Value::Array(events)) = parse_bytes(chrome.as_bytes()) else { continue };
        for mut ev in events {
            if let Value::Object(members) = &mut ev {
                for (k, val) in members.iter_mut() {
                    if k == "pid" {
                        *val = Value::Number((backend + 1) as f64);
                    }
                }
            }
            merged.push(ev);
        }
    }
    proto::ok_line(
        id,
        vec![
            ("events".into(), Value::Number(merged.len() as f64)),
            ("chrome".into(), Value::String(Value::Array(merged).to_json())),
        ],
    )
}

/// The cluster `slow` verb: a fan-out merge of every live backend's
/// `slow` read, each entry tagged with its backend id, slowest first and
/// truncated to the same [`SLOWEST`](knn_telemetry::recorder::SLOWEST).
/// Backend reads are non-destructive, so concurrent watchers all see the
/// same entries.
fn cluster_slow_line(shared: &Arc<RouterShared>, id: &str) -> String {
    let mut merged = Vec::new();
    for (backend, v) in fan_out(shared, r#"{"id":"agg","verb":"slow"}"#) {
        for entry in v.get("slow").and_then(Value::as_array).unwrap_or(&[]) {
            let Value::Object(members) = entry else { continue };
            let mut members = members.clone();
            members.push(("backend".into(), Value::Number(backend as f64)));
            merged.push(Value::Object(members));
        }
    }
    let total = |e: &Value| e.get("total_us").and_then(Value::as_u64).unwrap_or(0);
    merged.sort_by_key(|e| std::cmp::Reverse(total(e)));
    merged.truncate(knn_telemetry::recorder::SLOWEST);
    proto::ok_line(id, vec![("slow".into(), Value::Array(merged))])
}

/// The cluster `repro` verb: forwards the selector to every healthy
/// backend, then assembles ONE bundle from the **router's** retained
/// source (seed text + full mutation log) with each backend's captured
/// entries merged in, tagged with their backend id. Runs under the load
/// lock so no load/mutation fan-out can advance the source mid-assembly —
/// the bundle's replay log is pinned at a version every merged entry's
/// epoch is ≤ (entries beyond it, impossible in a quiesced cluster, are
/// dropped rather than exported unreplayable). A `conn`/`seq` selector is
/// backend-local (the ids the cluster `slow` entries carry), so only the
/// backend that owns the reference contributes.
fn cluster_repro_line(
    shared: &Arc<RouterShared>,
    id: &str,
    trace: Option<&str>,
    conn: Option<u64>,
    seq: Option<u64>,
    name: Option<&str>,
) -> String {
    let _load_serialized = shared.load_lock.lock().unwrap();
    let mut members = vec![
        ("id".into(), Value::String("agg".into())),
        ("verb".into(), Value::String("repro".into())),
    ];
    if let Some(t) = trace {
        members.push(("trace".into(), Value::String(t.to_string())));
    }
    if let (Some(c), Some(s)) = (conn, seq) {
        members.push(("conn".into(), Value::Number(c as f64)));
        members.push(("seq".into(), Value::Number(s as f64)));
    }
    if let Some(n) = name {
        members.push(("name".into(), Value::String(n.to_string())));
    }
    let req = Value::Object(members).to_json();

    let mut tenant: Option<String> = name.map(str::to_string);
    let mut config = None;
    let mut entries: Vec<knn_engine::bundle::BundleEntry> = Vec::new();
    for (backend, v) in fan_out(shared, &req) {
        let Some(text) = v.get("bundle").and_then(Value::as_str) else { continue };
        let Ok(bundle) = knn_engine::bundle::ReproBundle::from_json(text) else { continue };
        let target = tenant.get_or_insert_with(|| bundle.tenant.clone());
        if bundle.tenant != *target {
            continue; // a trace that crossed tenants exports the first one
        }
        config.get_or_insert(bundle.config);
        entries.extend(bundle.entries.into_iter().map(|mut e| {
            e.backend = Some(backend as u64);
            e
        }));
    }
    let (Some(tenant), Some(config)) = (tenant, config) else {
        let msg = "no captured requests match that selector on any live backend";
        return proto::error_line(id, msg);
    };
    let sources = shared.sources.lock().unwrap();
    let Some(src) = sources.get(&tenant) else {
        return proto::no_dataset_line(id, &tenant);
    };
    let version = src.version();
    entries.retain(|e| e.epoch <= version);
    entries.sort_by(|a, b| {
        (a.epoch, a.backend, a.conn, a.seq).cmp(&(b.epoch, b.backend, b.conn, b.seq))
    });
    let bundle = knn_engine::bundle::ReproBundle {
        tenant: tenant.clone(),
        config,
        seed: src.seed.to_string(),
        replay: src.muts.clone(),
        entries,
    };
    proto::ok_line(
        id,
        vec![
            ("repro".into(), Value::String(tenant)),
            ("entries".into(), Value::Number(bundle.entries.len() as f64)),
            ("bundle".into(), Value::String(bundle.to_json())),
        ],
    )
}

/// The cluster `audit` verb: fans the sample rate (if given) to every live
/// backend and merges their shadow-audit counters — checked/diverged,
/// queue depth and drop counts summed, the configured rate echoed.
fn cluster_audit_line(shared: &Arc<RouterShared>, id: &str, sample: Option<u64>) -> String {
    let line = match sample {
        Some(rate) => format!(r#"{{"id":"fanout","verb":"audit","sample":{rate}}}"#),
        None => r#"{"id":"agg","verb":"audit"}"#.to_string(),
    };
    match merged_reply(shared, &line) {
        Some(members) => proto::ok_line(id, members),
        None => proto::error_line(id, "no live backend answered the audit verb"),
    }
}

/// The cluster `stats` verb: every live backend's `stats` merged into a
/// cluster view — admission and per-tenant counters folded by the rules
/// their [`knn_server::series`] rows declare, flattened (`cache_hits`), plus
/// the version picture: the router's expected version, the desired replica
/// set, and each desired replica's reported version (`null` while a replica
/// is down or amnesiac) — and per-backend health. Parsing is total: a
/// backend answering garbage just contributes nothing.
fn cluster_stats_line(shared: &Arc<RouterShared>, id: &str) -> String {
    use knn_server::series::{merge_stats, ADMISSION_ROWS, TENANT_ROWS};
    let num = |n: usize| Value::Number(n as f64);
    let ids = |v: &[usize]| Value::Array(v.iter().map(|&i| num(i)).collect());
    let replies = fan_out(shared, r#"{"id":"agg","verb":"stats"}"#);
    let admission: Vec<&Value> = replies.iter().filter_map(|(_, v)| v.get("admission")).collect();
    let placed: BTreeMap<String, Vec<usize>> =
        shared.placement.list().into_iter().map(|t| (t.name, t.replicas)).collect();
    let sources = shared.sources.lock().unwrap();
    let names: std::collections::BTreeSet<&String> = placed.keys().chain(sources.keys()).collect();
    let tenants: Vec<Value> = names
        .into_iter()
        .map(|name| {
            // Only tenants the router placed: a backend may serve others.
            let held: Vec<(usize, &Value)> = replies
                .iter()
                .flat_map(|(backend, v)| {
                    let rows = v.get("tenants").and_then(Value::as_array).unwrap_or(&[]);
                    let mine =
                        rows.iter().filter(|t| t.get("name").and_then(Value::as_str) == Some(name));
                    mine.map(move |t| (*backend, t))
                })
                .collect();
            let (desired, version) =
                sources.get(name).map_or((&[][..], 0), |src| (&src.desired[..], src.version()));
            // One version slot per *desired* replica, aligned by position:
            // a demoted or silent replica shows `null`, a stale one shows a
            // number below `version` — divergence is visible either way.
            let versions = desired
                .iter()
                .map(|id| {
                    let held = held.iter().find(|(backend, _)| backend == id);
                    held.and_then(|(_, t)| t.get("version")).cloned().unwrap_or(Value::Null)
                })
                .collect();
            let mut members = vec![
                ("name".into(), Value::String(name.clone())),
                ("version".into(), Value::Number(version as f64)),
                ("replicas".into(), ids(placed.get(name).map_or(&[][..], |r| &r[..]))),
                ("desired".into(), ids(desired)),
                ("replica_versions".into(), Value::Array(versions)),
            ];
            // The router's own `version` (the expected one) wins over the
            // replicas' merged epoch, which `replica_versions` already shows.
            let rows: Vec<&Value> = held.iter().map(|(_, t)| *t).collect();
            for (k, v) in merge_stats(TENANT_ROWS, &rows) {
                if !members.iter().any(|(m, _)| *m == k) {
                    members.push((k, v));
                }
            }
            Value::Object(members)
        })
        .collect();
    drop(sources);
    let backends: Vec<Value> = shared
        .pool
        .backends()
        .iter()
        .map(|backend| {
            let snap = backend.snapshot();
            Value::Object(vec![
                ("id".into(), num(snap.id)),
                ("addr".into(), Value::String(snap.addr.to_string())),
                ("healthy".into(), Value::Bool(snap.healthy)),
                ("spawned".into(), Value::Bool(snap.spawned)),
                ("probes_ok".into(), Value::Number(snap.probes_ok as f64)),
                ("probes_failed".into(), Value::Number(snap.probes_failed as f64)),
            ])
        })
        .collect();
    let cluster = Value::Object(vec![
        ("backends".into(), num(shared.pool.len())),
        ("answering".into(), num(replies.len())),
        ("uptime_ms".into(), Value::Number(shared.started.elapsed().as_millis() as f64)),
    ]);
    proto::ok_line(
        id,
        vec![
            ("health".into(), Value::String("ok".into())),
            ("cluster".into(), cluster),
            ("admission".into(), Value::Object(merge_stats(ADMISSION_ROWS, &admission))),
            ("backends".into(), Value::Array(backends)),
            ("tenants".into(), Value::Array(tenants)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_server::{Client, Server, ServerConfig};

    const BOOL: &str = "+ 1 1 1\n+ 1 1 0\n- 0 0 0\n- 0 0 1\n";

    fn backend() -> knn_server::Handle {
        Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn()
    }

    fn router_over(handles: &[&knn_server::Handle]) -> Handle {
        let router = Router::bind("127.0.0.1:0", RouterConfig::default()).unwrap();
        for h in handles {
            router.attach(h.addr());
        }
        router.load("toy", LoadSource::Text(BOOL), None).unwrap();
        router.spawn()
    }

    /// The cluster resource plane: `slo` set fans to both backends, `top`
    /// scrapes and merges their rows — bytes sum across the replicas, QPS
    /// sums, burn max-merges — and the merged row reports nonzero bytes
    /// for the tenant replicated on ≥ 2 backends.
    #[test]
    fn top_verb_merges_resource_rows_across_backends() {
        let (b0, b1) = (backend(), backend());
        let handle = router_over(&[&b0, &b1]);
        let mut c = Client::connect(handle.addr()).unwrap();

        // Warm both replicas (distinct keys home on both of them).
        let mut input = String::new();
        for i in 0..8 {
            input.push_str(&format!(
                "{{\"dataset\":\"toy\",\"id\":\"q{i}\",\"cmd\":\"classify\",\"metric\":\"hamming\",\"point\":[{},{},1]}}\n",
                i % 2,
                (i / 2) % 2
            ));
        }
        assert_eq!(c.run_stream(&input).unwrap().len(), 8);

        let set = c
            .roundtrip(r#"{"id":"o","verb":"slo","name":"toy","quantile":0.5,"threshold_us":0}"#)
            .unwrap();
        assert!(set.contains(r#""slo":"toy""#) && set.contains(r#""replicas":2"#), "{set}");

        let t = c.roundtrip(r#"{"id":"t","verb":"top"}"#).unwrap();
        let parsed = parse_bytes(t.as_bytes()).unwrap();
        assert_eq!(parsed.get("backends_scraped"), Some(&Value::Number(2.0)), "{t}");
        let Some(Value::Array(rows)) = parsed.get("top") else { panic!("top member: {t}") };
        assert_eq!(rows.len(), 1, "one merged row for the one tenant: {t}");
        let row = &rows[0];
        assert_eq!(row.get("tenant"), Some(&Value::String("toy".into())));
        let merged_total = row.get("bytes_total").and_then(Value::as_u64).unwrap();
        assert!(merged_total > 0, "{t}");
        assert!(row.get("qps").and_then(Value::as_f64).is_some(), "{t}");
        assert!(
            row.get("slo_burn").and_then(Value::as_f64).unwrap() > 0.0,
            "a 0us threshold burns on whichever replica served traffic: {t}"
        );

        // The merged bytes are the sum over both replicas: ask one backend
        // directly and check the router's row is at least as large.
        let mut direct = Client::connect(b0.addr()).unwrap();
        let one = direct.roundtrip(r#"{"id":"d","verb":"top"}"#).unwrap();
        let one = parse_bytes(one.as_bytes()).unwrap();
        let Some(Value::Array(one_rows)) = one.get("top") else { panic!("{one:?}") };
        let one_total = one_rows[0].get("bytes_total").and_then(Value::as_u64).unwrap();
        assert!(
            one_total > 0 && merged_total > one_total,
            "sum over replicas: {merged_total} vs single-backend {one_total}"
        );

        // Reading the merged status sums windows and max-merges burn.
        let status = c.roundtrip(r#"{"id":"g","verb":"slo","name":"toy"}"#).unwrap();
        assert!(status.contains(r#""replicas":2"#) && status.contains(r#""burn":"#), "{status}");

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    /// The routing property: every repeat of a query reaches the replica
    /// that cached it. Two connections (each with its own dispatcher) send
    /// the same `N` distinct queries through a router over two backends,
    /// the second in reverse order, so no query keeps its line number or
    /// its connection; the merged stats must count exactly `N` misses (the
    /// first pass) and `N` hits (the second). Routing by connection or by
    /// line would send repeats to the replica that never computed them.
    /// Cross-replica fills land in `cache_filled`, never in hits or misses.
    #[test]
    fn repeats_from_another_connection_hit_the_caching_replica() {
        const N: u64 = 16;
        let (b0, b1) = (backend(), backend());
        let handle = router_over(&[&b0, &b1]);
        let cmds = ["classify", "minimal-sr", "counterfactual", "minimum-sr"];
        let lines: Vec<String> = (0..N)
            .map(|i| {
                format!(
                    r#"{{"dataset":"toy","id":"q{i}","cmd":"{}","metric":"hamming","point":[{},{},1]}}"#,
                    cmds[(i % 4) as usize],
                    (i / 4) % 2,
                    (i / 8) % 2,
                )
            })
            .collect();
        let stream = |lines: &[String]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        let mut first =
            Client::connect(handle.addr()).unwrap().run_stream(&stream(&lines)).unwrap();
        let mut second = Client::connect(handle.addr()).unwrap();
        let reversed: Vec<String> = lines.iter().rev().cloned().collect();
        first.reverse();
        assert_eq!(second.run_stream(&stream(&reversed)).unwrap(), first, "repeats change no byte");

        let stats = second.roundtrip(r#"{"id":"st","verb":"stats"}"#).unwrap();
        let parsed = parse_bytes(stats.as_bytes()).unwrap();
        let Some(Value::Array(rows)) = parsed.get("tenants") else { panic!("{stats}") };
        let counter = |name: &str| rows[0].get(name).and_then(Value::as_u64);
        assert_eq!(counter("cache_misses"), Some(N), "{stats}");
        assert_eq!(counter("cache_hits"), Some(N), "{stats}");

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    #[test]
    fn end_to_end_over_two_backends() {
        let (b0, b1) = (backend(), backend());
        let handle = router_over(&[&b0, &b1]);
        let mut c = Client::connect(handle.addr()).unwrap();

        let pong = c.roundtrip(r#"{"id":"p","verb":"ping"}"#).unwrap();
        assert_eq!(pong, r#"{"id":"p","ok":true,"pong":true}"#);

        // The same queries a single server would get, same response bytes.
        let resp = c
            .roundtrip(
                r#"{"dataset":"toy","id":"q","cmd":"classify","metric":"hamming","point":[1,1,1]}"#,
            )
            .unwrap();
        assert_eq!(resp, r#"{"id":"q","ok":true,"route":"hamming-index","label":"+"}"#);

        // A query without an id gets the client's line number, not the
        // backend connection's.
        for _ in 0..3 {
            c.roundtrip(r#"{"verb":"list"}"#).unwrap(); // advance the line counter
        }
        let resp = c
            .roundtrip(r#"{"dataset":"toy","cmd":"classify","metric":"hamming","point":[0,0,0]}"#)
            .unwrap();
        assert!(resp.starts_with(r#"{"id":"6","#), "{resp}");

        let missing = c.roundtrip(r#"{"dataset":"nope","id":"m","cmd":"classify","point":[1]}"#);
        assert!(missing.unwrap().contains("no dataset named `nope`"));

        let list = c.roundtrip(r#"{"id":"ls","verb":"list"}"#).unwrap();
        assert!(list.contains(r#""name":"toy""#) && list.contains(r#""replicas":[0,1]"#), "{list}");

        let stats = c.roundtrip(r#"{"id":"st","verb":"stats"}"#).unwrap();
        assert!(stats.contains(r#""health":"ok""#), "{stats}");
        assert!(stats.contains(r#""answering":2"#), "{stats}");
        // The barrier makes the aggregated request counter deterministic:
        // both queries above are counted, on whichever replicas ran them.
        assert!(stats.contains(r#""requests":2"#), "{stats}");

        let un = c.roundtrip(r#"{"id":"u","verb":"unload","name":"toy"}"#).unwrap();
        assert!(un.contains(r#""unloaded":"toy""#), "{un}");
        let gone = c.roundtrip(r#"{"dataset":"toy","id":"g","cmd":"classify","point":[1]}"#);
        assert!(gone.unwrap().contains("no dataset named"), "tenant unloaded");

        let bye = c.roundtrip(r#"{"id":"q","verb":"quit"}"#).unwrap();
        assert!(bye.contains(r#""bye":true"#), "{bye}");
        assert_eq!(c.recv().unwrap(), None, "router closes after quit");

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    #[test]
    fn load_with_replication_hint_and_reload_replaces() {
        let (b0, b1) = (backend(), backend());
        let router = Router::bind("127.0.0.1:0", RouterConfig::default()).unwrap();
        router.attach(b0.addr());
        router.attach(b1.addr());
        let handle = router.spawn();
        let mut c = Client::connect(handle.addr()).unwrap();

        let one = c
            .roundtrip(&format!(
                r#"{{"id":"l","verb":"load","name":"solo","replicas":1,"text":{}}}"#,
                Value::String(BOOL.into()).to_json()
            ))
            .unwrap();
        assert!(one.contains(r#""ok":true"#), "{one}");
        let replicas: Vec<char> = one.chars().filter(|c| c.is_ascii_digit()).collect();
        assert_eq!(replicas.len(), 1, "one replica placed: {one}");

        // Queries work against a replication-1 tenant.
        let resp = c
            .roundtrip(
                r#"{"dataset":"solo","id":"q","cmd":"classify","metric":"hamming","point":[1,0,1]}"#,
            )
            .unwrap();
        assert!(resp.contains(r#""ok":true"#), "{resp}");

        // Re-loading the name atomically replaces the tenant cluster-wide:
        // the new (1-dimensional) dataset answers, the old one is gone.
        let again =
            c.roundtrip(r#"{"id":"l2","verb":"load","name":"solo","text":"+ 1\n- 0"}"#).unwrap();
        assert!(again.contains(r#""ok":true"#), "{again}");
        let resp = c
            .roundtrip(
                r#"{"dataset":"solo","id":"q2","cmd":"classify","metric":"hamming","point":[1]}"#,
            )
            .unwrap();
        assert_eq!(resp, r#"{"id":"q2","ok":true,"route":"hamming-index","label":"+"}"#);

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    #[test]
    fn malformed_lines_get_error_responses_and_the_connection_survives() {
        let b0 = backend();
        let handle = router_over(&[&b0]);
        let mut c = Client::connect(handle.addr()).unwrap();
        for bad in ["not json", "{\"verb\":\"fly\"}", "[]", "{\"cmd\":\"classify\"}"] {
            let resp = c.roundtrip(bad).unwrap();
            assert!(resp.contains(r#""ok":false"#), "{bad} -> {resp}");
        }
        let resp = c
            .roundtrip(r#"{"dataset":"toy","cmd":"classify","metric":"hamming","point":[0,0,0]}"#)
            .unwrap();
        assert!(resp.contains(r#""label":"-""#), "{resp}");
        handle.shutdown();
        b0.shutdown();
    }

    /// Eight queries with distinct cache keys, so their affinity homes
    /// spread over both replicas of a two-backend tenant.
    fn spread_queries() -> Vec<String> {
        (0..8)
            .map(|i| {
                format!(
                    r#"{{"dataset":"toy","id":"q{i}","cmd":"classify","metric":"hamming","point":[{},{},{}]}}"#,
                    i % 2,
                    (i / 2) % 2,
                    i / 4
                )
            })
            .collect()
    }

    /// A router over two live backends, both acknowledging the `toy` load
    /// (`list` shows both replicas), with health probes off so the router
    /// learns of a backend's death only by dispatching to it.
    fn router_over_two_replicas(b0: &knn_server::Handle, b1: &knn_server::Handle) -> Handle {
        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig { probe_interval: Duration::ZERO, ..RouterConfig::default() },
        )
        .unwrap();
        router.attach(b0.addr());
        router.attach(b1.addr());
        let replicas = router.load("toy", LoadSource::Text(BOOL), None).unwrap();
        assert_eq!(replicas, vec![0, 1], "both backends acknowledge the load");
        let handle = router.spawn();
        let list = Client::connect(handle.addr())
            .unwrap()
            .roundtrip(r#"{"id":"ls","verb":"list"}"#)
            .unwrap();
        assert!(list.contains(r#""replicas":[0,1]"#), "{list}");
        handle
    }

    /// The router's own `knn_router_failovers_total`, read through its
    /// `metrics` verb.
    fn failovers(router: SocketAddr) -> f64 {
        let m = Client::connect(router).unwrap().roundtrip(r#"{"id":"m","verb":"metrics"}"#);
        let m = m.unwrap();
        let parsed = parse_bytes(m.as_bytes()).unwrap();
        let Some(Value::String(text)) = parsed.get("metrics") else { panic!("{m}") };
        exposition::parse(text).get("knn_router_failovers_total").copied().unwrap_or(0.0)
    }

    /// One replica of a two-replica tenant dies after the load and before
    /// the first query. Queries homed on it find it dead at dispatch time
    /// and fail over to the survivor, which answers with the bytes a lone
    /// server gives.
    #[test]
    fn dead_replica_at_dispatch_time_fails_over_to_the_survivor() {
        let (live, dead) = (backend(), backend());
        let handle = router_over_two_replicas(&live, &dead);
        let queries = spread_queries();
        let mut direct = Client::connect(live.addr()).unwrap();
        let want: Vec<String> = queries.iter().map(|q| direct.roundtrip(q).unwrap()).collect();
        dead.shutdown();

        let mut c = Client::connect(handle.addr()).unwrap();
        for (q, want) in queries.iter().zip(&want) {
            assert_eq!(&c.roundtrip(q).unwrap(), want, "{q}");
        }
        assert!(failovers(handle.addr()) >= 1.0, "no query was dispatched to the dead replica");
        handle.shutdown();
        live.shutdown();
    }

    /// As above, across several connections, each with its own dispatcher
    /// and channels: every one answers every query with the lone server's
    /// bytes, whichever replica is the dead one.
    #[test]
    fn every_connection_answers_with_a_dead_backend_attached() {
        let (dead, live) = (backend(), backend());
        let handle = router_over_two_replicas(&dead, &live);
        let queries = spread_queries();
        let mut direct = Client::connect(live.addr()).unwrap();
        let want: Vec<String> = queries.iter().map(|q| direct.roundtrip(q).unwrap()).collect();
        dead.shutdown();

        for conn in 0..4 {
            let stream: String = queries.iter().map(|q| format!("{q}\n")).collect();
            let got = Client::connect(handle.addr()).unwrap().run_stream(&stream).unwrap();
            assert_eq!(got, want, "connection {conn}");
        }
        assert!(failovers(handle.addr()) >= 1.0, "no query was dispatched to the dead replica");
        handle.shutdown();
        live.shutdown();
    }

    #[test]
    fn load_records_only_acknowledging_replicas() {
        let live = backend();
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap();
        drop(dead);

        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig { probe_interval: Duration::ZERO, ..RouterConfig::default() },
        )
        .unwrap();
        router.attach(live.addr()); // id 0
        router.attach(dead_addr); // id 1: never acks the load
        let replicas = router.load("toy", LoadSource::Text(BOOL), None).unwrap();
        assert_eq!(replicas, vec![0], "only the acking replica is placed");

        let handle = router.spawn();
        let mut c = Client::connect(handle.addr()).unwrap();
        let list = c.roundtrip(r#"{"id":"ls","verb":"list"}"#).unwrap();
        assert!(list.contains(r#""replicas":[0]"#), "{list}");
        // Queries never touch the backend that never loaded the data.
        let resp = c
            .roundtrip(
                r#"{"dataset":"toy","id":"q","cmd":"classify","metric":"hamming","point":[1,1,1]}"#,
            )
            .unwrap();
        assert_eq!(resp, r#"{"id":"q","ok":true,"route":"hamming-index","label":"+"}"#);

        handle.shutdown();
        live.shutdown();
    }

    #[test]
    fn amnesiac_replica_is_masked_and_reconciled() {
        let (b0, b1) = (backend(), backend());
        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig { probe_interval: Duration::from_millis(50), ..RouterConfig::default() },
        )
        .unwrap();
        router.attach(b0.addr());
        router.attach(b1.addr());
        router.load("toy", LoadSource::Text(BOOL), None).unwrap();
        let handle = router.spawn();

        // A replica loses the tenant behind the router's back (the shape of
        // a backend restarting with an empty registry).
        let mut direct = Client::connect(b1.addr()).unwrap();
        let un = direct.roundtrip(r#"{"verb":"unload","name":"toy"}"#).unwrap();
        assert!(un.contains(r#""ok":true"#), "{un}");

        // Response bytes stay oracle-identical throughout: the amnesiac
        // replica's "no dataset" answers are retried on the survivor.
        let mut c = Client::connect(handle.addr()).unwrap();
        for i in 0..12 {
            let resp = c
                .roundtrip(&format!(
                    r#"{{"dataset":"toy","id":"q{i}","cmd":"classify","metric":"hamming","point":[1,1,1]}}"#
                ))
                .unwrap();
            assert_eq!(
                resp,
                format!(r#"{{"id":"q{i}","ok":true,"route":"hamming-index","label":"+"}}"#)
            );
        }

        // The probe loop's reconciler re-loads the tenant onto the replica.
        let mut reloaded = false;
        for _ in 0..100 {
            let stats = direct.roundtrip(r#"{"verb":"stats"}"#).unwrap();
            if stats.contains(r#""name":"toy""#) {
                reloaded = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(reloaded, "probe loop never re-loaded the amnesiac replica");

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    /// The router's `metrics` verb merges the backends' expositions
    /// (request counts sum to exactly the queries sent — the bucket sets
    /// are identical, so the key-wise merge is exact) and appends its own
    /// `knn_router_*` series; `slow` merges every backend's read into one
    /// slowest-first list tagged with backend ids, and two router
    /// connections asking for it see the same entries.
    #[test]
    fn metrics_verb_merges_backends_and_adds_router_series() {
        let (b0, b1) = (backend(), backend());
        let handle = router_over(&[&b0, &b1]);
        let mut c = Client::connect(handle.addr()).unwrap();
        for i in 0..6 {
            // A counterfactual among them: multi-µs, so the backends' `slow`
            // reads are deterministically non-empty below.
            let cmd = if i == 0 { "counterfactual" } else { "classify" };
            let resp = c
                .roundtrip(&format!(
                    r#"{{"dataset":"toy","id":"q{i}","cmd":"{cmd}","metric":"hamming","point":[1,1,{}]}}"#,
                    i % 2
                ))
                .unwrap();
            assert!(resp.contains(r#""ok":true"#), "{resp}");
        }

        let m = c.roundtrip(r#"{"id":"m","verb":"metrics"}"#).unwrap();
        let parsed = parse_bytes(m.as_bytes()).unwrap();
        let Some(Value::String(text)) = parsed.get("metrics") else {
            panic!("metrics member missing: {m}");
        };
        exposition::validate(text).unwrap();
        let samples = exposition::parse(text);
        let merged_count: f64 = samples
            .iter()
            .filter(|(k, _)| k.starts_with("knn_request_duration_us_count{"))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(merged_count, 6.0, "merged request count covers every query:\n{text}");
        assert_eq!(
            samples.get("knn_router_dispatches_total").copied(),
            Some(6.0),
            "router-own series appended:\n{text}"
        );
        assert_eq!(
            samples.get("knn_router_backends_scraped").copied(),
            Some(2.0),
            "scrape coverage visible:\n{text}"
        );
        assert!(
            !samples.contains_key("knn_router_scrape_failures_total"),
            "no scrape failed here:\n{text}"
        );

        // The merged counts equal the bucket-wise sum of what the backends
        // report directly (the exposition is all cumulative counters, so
        // asking the backends afterwards sees the same totals).
        let mut direct = 0.0;
        for b in [&b0, &b1] {
            let mut bc = Client::connect(b.addr()).unwrap();
            let bm = bc.roundtrip(r#"{"id":"bm","verb":"metrics"}"#).unwrap();
            let bv = parse_bytes(bm.as_bytes()).unwrap();
            let Some(Value::String(btext)) = bv.get("metrics") else { panic!("{bm}") };
            direct += exposition::parse(btext)
                .iter()
                .filter(|(k, _)| k.starts_with("knn_request_duration_us_count{"))
                .map(|(_, v)| *v)
                .sum::<f64>();
        }
        assert_eq!(merged_count, direct, "merge equals the backend sum");

        let s = c.roundtrip(r#"{"id":"s","verb":"slow"}"#).unwrap();
        let entries = |line: &str| match parse_bytes(line.as_bytes()).unwrap().get("slow") {
            Some(Value::Array(entries)) => entries.clone(),
            _ => panic!("slow member missing: {line}"),
        };
        let first = entries(&s);
        assert!(!first.is_empty(), "{s}");
        for e in &first {
            assert!(e.get("backend").is_some() && e.get("total_us").is_some(), "{s}");
        }
        let mut other = Client::connect(handle.addr()).unwrap();
        let s2 = other.roundtrip(r#"{"id":"s2","verb":"slow"}"#).unwrap();
        assert_eq!(entries(&s2), first, "a second watcher sees the same entries");

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    /// Per-replica gauges merge by their declared rule, not by sum: after
    /// one insert through a router over two replicas, the merged epoch and
    /// insert count are what every replica reports (1, not 2), and the
    /// merged SLO burn is the worst replica's — the same number the `top`
    /// row reports.
    #[test]
    fn metrics_merge_max_merges_per_replica_gauges() {
        let (b0, b1) = (backend(), backend());
        let handle = router_over(&[&b0, &b1]);
        let mut c = Client::connect(handle.addr()).unwrap();
        let set = c
            .roundtrip(
                r#"{"verb":"slo","name":"toy","quantile":0.5,"threshold_us":0,"windows":64}"#,
            )
            .unwrap();
        assert!(set.contains(r#""replicas":2"#), "{set}");
        let ins =
            c.roundtrip(r#"{"verb":"insert","name":"toy","label":"-","point":[0,1,0]}"#).unwrap();
        assert!(ins.contains(r#""version":1"#) && ins.contains(r#""replicas":[0,1]"#), "{ins}");
        // Distinct keys, so affinity routing sends them to both replicas.
        for i in 0..8 {
            let q = format!(
                r#"{{"dataset":"toy","id":"q{i}","cmd":"classify","metric":"hamming","point":[{},{},{}]}}"#,
                i % 2,
                (i / 2) % 2,
                (i / 4) % 2
            );
            assert!(c.roundtrip(&q).unwrap().contains(r#""ok":true"#));
        }

        let m = c.roundtrip(r#"{"id":"m","verb":"metrics"}"#).unwrap();
        let parsed = parse_bytes(m.as_bytes()).unwrap();
        let Some(Value::String(text)) = parsed.get("metrics") else { panic!("{m}") };
        exposition::validate(text).unwrap();
        let samples = exposition::parse(text);
        assert_eq!(samples.get(r#"knn_engine_epoch{tenant="toy"}"#), Some(&1.0), "{text}");
        let inserts = r#"knn_engine_mutations_total{tenant="toy",op="insert"}"#;
        assert_eq!(samples.get(inserts), Some(&1.0), "{text}");
        let burn = samples.get(r#"knn_slo_burn{tenant="toy"}"#).copied().expect("burn series");

        let t = c.roundtrip(r#"{"id":"t","verb":"top"}"#).unwrap();
        let parsed = parse_bytes(t.as_bytes()).unwrap();
        let Some(Value::Array(rows)) = parsed.get("top") else { panic!("{t}") };
        let top_burn = rows[0].get("slo_burn").and_then(Value::as_f64).unwrap();
        assert!(burn > 0.0 && burn == top_burn, "metrics burn {burn} vs top {top_burn}");

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    /// Every control verb goes through the one fan-out, so a healthy
    /// backend answering garbage is counted as a failed scrape whichever
    /// verb asked — not just `metrics`.
    #[test]
    fn every_control_verb_counts_failed_scrapes() {
        use std::io::{BufRead, BufReader, Write};
        let garbage = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let garbage_addr = garbage.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in garbage.incoming() {
                let Ok(stream) = stream else { break };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut out = stream;
                    let mut line = String::new();
                    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                        line.clear();
                        if out.write_all(b"not json\n").is_err() {
                            return;
                        }
                    }
                });
            }
        });
        let b0 = backend();
        let config = RouterConfig { probe_interval: Duration::ZERO, ..RouterConfig::default() };
        let router = Router::bind("127.0.0.1:0", config).unwrap();
        router.attach(b0.addr());
        router.attach(garbage_addr);
        router.load("toy", LoadSource::Text(BOOL), None).unwrap();
        let handle = router.spawn();
        let mut c = Client::connect(handle.addr()).unwrap();
        for verb in ["stats", "top", "slow", "dump", "audit"] {
            let resp = c.roundtrip(&format!(r#"{{"verb":"{verb}"}}"#)).unwrap();
            assert!(resp.contains(r#""ok":true"#), "{verb}: {resp}");
        }
        let m = c.roundtrip(r#"{"verb":"metrics"}"#).unwrap();
        let parsed = parse_bytes(m.as_bytes()).unwrap();
        let Some(Value::String(text)) = parsed.get("metrics") else { panic!("{m}") };
        let failures = exposition::parse(text).get("knn_router_scrape_failures_total").copied();
        // The five verbs above, plus this metrics scrape itself.
        assert_eq!(failures, Some(6.0), "{text}");
        handle.shutdown();
        b0.shutdown();
    }

    /// A backend that answers `"ok":false` has answered: an `slo` read of
    /// a tenant with no objective and a `repro` with no captures are
    /// refused by every backend, and neither counts as a failed scrape.
    #[test]
    fn refusals_are_not_failed_scrapes() {
        let (b0, b1) = (backend(), backend());
        let handle = router_over(&[&b0, &b1]);
        let mut c = Client::connect(handle.addr()).unwrap();
        let slo = c.roundtrip(r#"{"id":"s","verb":"slo","name":"toy"}"#).unwrap();
        assert_eq!(
            slo,
            r#"{"id":"s","ok":false,"error":"no slo objective for `toy` on any live backend"}"#
        );
        let repro = c.roundtrip(r#"{"id":"r","verb":"repro","trace":"never-sent"}"#).unwrap();
        assert_eq!(
            repro,
            r#"{"id":"r","ok":false,"error":"no captured requests match that selector on any live backend"}"#
        );
        let m = c.roundtrip(r#"{"id":"m","verb":"metrics"}"#).unwrap();
        let parsed = parse_bytes(m.as_bytes()).unwrap();
        let Some(Value::String(text)) = parsed.get("metrics") else { panic!("{m}") };
        let samples = exposition::parse(text);
        assert_eq!(samples.get("knn_router_backends_scraped"), Some(&2.0), "{text}");
        assert!(!samples.contains_key("knn_router_scrape_failures_total"), "{text}");
        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    /// The rebuild line and the mutation fan-out lines, byte for byte as
    /// the router sent them when it kept its log as JSON values.
    #[test]
    fn load_and_mutation_lines_keep_their_bytes() {
        let mut src = TenantSource {
            seed: Arc::from("+ 1 0.5\n- 0 0\n"),
            muts: Vec::new(),
            desired: vec![0],
        };
        assert_eq!(
            load_line("toy", &src),
            r#"{"id":"fanout","verb":"load","name":"toy","text":"+ 1 0.5\n- 0 0\n"}"#
        );
        src.muts = vec![
            Mutation::Insert { point: vec![0.5, -0.0], label: knn_space::Label::Positive },
            Mutation::Insert { point: vec![1e-9, 3.0000000001], label: knn_space::Label::Negative },
            Mutation::Remove { id: 2 },
        ];
        let lines: Vec<String> = src.muts.iter().map(|m| mutation_line("toy", m)).collect();
        assert_eq!(
            lines,
            [
                r#"{"id":"fanout","verb":"insert","name":"toy","label":"+","point":[0.5,0]}"#,
                r#"{"id":"fanout","verb":"insert","name":"toy","label":"-","point":[0.000000001,3.0000000001]}"#,
                r#"{"id":"fanout","verb":"remove","name":"toy","index":2}"#,
            ]
        );
        assert_eq!(
            load_line("toy", &src),
            concat!(
                r#"{"id":"fanout","verb":"load","name":"toy","text":"+ 1 0.5\n- 0 0\n","replay":["#,
                r#"{"op":"insert","label":"+","point":[0.5,0]},"#,
                r#"{"op":"insert","label":"-","point":[0.000000001,3.0000000001]},"#,
                r#"{"op":"remove","index":2}]}"#
            )
        );
    }

    /// The router's retained log is the mutations its clients sent: after
    /// inserts whose coordinates stress the number encoding and a remove,
    /// the `repro` bundle's `replay` equals the sent mutations, and equals
    /// what a lone server records for the same verbs.
    #[test]
    fn retained_log_is_the_wire_encoding() {
        use knn_engine::bundle::ReproBundle;
        use knn_space::Label;
        let verbs = [
            r#"{"verb":"insert","name":"toy","label":"+","point":[0.5,-0.0,1e-9]}"#,
            r#"{"verb":"insert","name":"toy","label":"-","point":[3.0000000001,0.5,-0.0]}"#,
            r#"{"verb":"remove","name":"toy","index":1}"#,
        ];
        let sent = vec![
            Mutation::Insert { point: vec![0.5, -0.0, 1e-9], label: Label::Positive },
            Mutation::Insert { point: vec![3.0000000001, 0.5, -0.0], label: Label::Negative },
            Mutation::Remove { id: 1 },
        ];
        let query =
            r#"{"dataset":"toy","id":"q","cmd":"classify","metric":"l2","point":[1,0.5,0]}"#;
        let replay_through = |addr: SocketAddr| {
            let mut c = Client::connect(addr).unwrap();
            for verb in verbs {
                let resp = c.roundtrip(verb).unwrap();
                assert!(resp.contains(r#""ok":true"#), "{verb}: {resp}");
            }
            assert!(c.roundtrip(query).unwrap().contains(r#""ok":true"#));
            let resp = c.roundtrip(r#"{"id":"r","verb":"repro","name":"toy"}"#).unwrap();
            let parsed = parse_bytes(resp.as_bytes()).unwrap();
            let Some(Value::String(text)) = parsed.get("bundle") else { panic!("{resp}") };
            ReproBundle::from_json(text).unwrap().replay
        };

        let (b0, b1) = (backend(), backend());
        let handle = router_over(&[&b0, &b1]);
        let routed = replay_through(handle.addr());
        assert_eq!(routed, sent);

        let lone = backend();
        let mut c = Client::connect(lone.addr()).unwrap();
        let load = format!(
            r#"{{"verb":"load","name":"toy","text":{}}}"#,
            Value::String(BOOL.into()).to_json()
        );
        assert!(c.roundtrip(&load).unwrap().contains(r#""ok":true"#));
        assert_eq!(replay_through(lone.addr()), routed);

        for h in [handle, b0, b1, lone] {
            h.shutdown();
        }
    }

    /// The distributed forensics plane: a traced query answers
    /// byte-identically to an untraced one, and `trace <id>` through the
    /// router returns ONE stitched tree — the router's `dispatch` span,
    /// tagged with the backend id, holding the backend's own `query` →
    /// `admission`/phase spans as children. `dump` merges every process's
    /// Chrome events under distinct pids.
    #[test]
    fn trace_verb_stitches_backend_spans_under_the_dispatch_span() {
        let (b0, b1) = (backend(), backend());
        let handle = router_over(&[&b0, &b1]);
        let mut c = Client::connect(handle.addr()).unwrap();

        let q = r#"{"dataset":"toy","id":"q","cmd":"counterfactual","metric":"hamming","point":[1,0,1]}"#;
        let traced = r#"{"dataset":"toy","id":"q","cmd":"counterfactual","metric":"hamming","point":[1,0,1],"trace":"t-x"}"#;
        let oracle = c.roundtrip(q).unwrap();
        assert_eq!(c.roundtrip(traced).unwrap(), oracle, "trace id never reaches response bytes");

        let t = c.roundtrip(r#"{"id":"t","verb":"trace","trace":"t-x"}"#).unwrap();
        let parsed = parse_bytes(t.as_bytes()).unwrap();
        let Some(Value::Array(roots)) = parsed.get("spans") else { panic!("{t}") };
        let dispatch = roots
            .iter()
            .find(|n| n.get("name").and_then(Value::as_str) == Some("dispatch"))
            .unwrap_or_else(|| panic!("no dispatch span in {t}"));
        let backend_id = dispatch.get("backend").and_then(Value::as_u64).expect("backend tag");
        assert!(backend_id <= 1, "{t}");
        let Some(Value::Array(children)) = dispatch.get("children") else { panic!("{t}") };
        let query = children
            .iter()
            .find(|n| n.get("name").and_then(Value::as_str) == Some("query"))
            .unwrap_or_else(|| panic!("backend query span not stitched: {t}"));
        let Some(Value::Array(phases)) = query.get("children") else { panic!("{t}") };
        let names: Vec<&str> =
            phases.iter().filter_map(|n| n.get("name").and_then(Value::as_str)).collect();
        assert!(names.contains(&"admission"), "cross-process tree has phases: {names:?}");

        let d = c.roundtrip(r#"{"id":"d","verb":"dump"}"#).unwrap();
        let parsed = parse_bytes(d.as_bytes()).unwrap();
        let Some(Value::String(chrome)) = parsed.get("chrome") else { panic!("{d}") };
        let Ok(Value::Array(events)) = parse_bytes(chrome.as_bytes()) else {
            panic!("chrome dump not a JSON array")
        };
        assert!(!events.is_empty());
        let pids: std::collections::BTreeSet<u64> =
            events.iter().filter_map(|e| e.get("pid").and_then(Value::as_u64)).collect();
        assert!(pids.iter().any(|&p| p >= 1), "backend events present under their pid: {pids:?}");

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    #[test]
    fn router_with_no_backends_refuses_load() {
        let router = Router::bind("127.0.0.1:0", RouterConfig::default()).unwrap();
        assert!(router.load("x", LoadSource::Text(BOOL), None).is_err());
    }

    /// Mutations fan out to every replica: after an insert through the
    /// router, both replicas answer the new bytes directly, versions agree,
    /// and the cluster stats expose them.
    #[test]
    fn mutations_reach_every_replica_and_versions_agree() {
        let (b0, b1) = (backend(), backend());
        let handle = router_over(&[&b0, &b1]);
        let mut c = Client::connect(handle.addr()).unwrap();

        let q = r#"{"dataset":"toy","id":"q","cmd":"classify","metric":"hamming","point":[0,0,1]}"#;
        assert!(c.roundtrip(q).unwrap().contains(r#""label":"-""#));
        let ins = c
            .roundtrip(r#"{"id":"i","verb":"insert","name":"toy","label":"+","point":[0,0,1]}"#)
            .unwrap();
        assert_eq!(ins, r#"{"id":"i","ok":true,"inserted":"toy","version":1,"replicas":[0,1]}"#);
        assert!(c.roundtrip(q).unwrap().contains(r#""label":"+""#));

        // Both replicas hold the mutation (ask them directly).
        for b in [&b0, &b1] {
            let mut direct = Client::connect(b.addr()).unwrap();
            let resp = direct
                .roundtrip(r#"{"dataset":"toy","id":"d","cmd":"classify","metric":"hamming","point":[0,0,1]}"#)
                .unwrap();
            assert!(resp.contains(r#""label":"+""#), "replica disagrees: {resp}");
            let stats = direct.roundtrip(r#"{"verb":"stats"}"#).unwrap();
            assert!(stats.contains(r#""version":1"#), "replica version: {stats}");
        }

        let stats = c.roundtrip(r#"{"id":"st","verb":"stats"}"#).unwrap();
        assert!(stats.contains(r#""version":1"#), "{stats}");
        assert!(stats.contains(r#""replica_versions":[1,1]"#), "{stats}");

        let rm = c.roundtrip(r#"{"id":"r","verb":"remove","name":"toy","index":4}"#).unwrap();
        assert_eq!(rm, r#"{"id":"r","ok":true,"removed":"toy","version":2,"replicas":[0,1]}"#);
        assert!(c.roundtrip(q).unwrap().contains(r#""label":"-""#), "mutation round-trip");

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    /// A replica that misses a mutation (amnesiac at fan-out time) is
    /// demoted before the client hears the ack: the active set shrinks to
    /// the acking replica, queries keep answering the post-mutation bytes,
    /// and the divergence is visible in the cluster stats (`null` in the
    /// demoted replica's version slot). Probing is off, so the demotion is
    /// observable deterministically.
    #[test]
    fn divergent_replica_is_demoted_and_visible_in_stats() {
        let (b0, b1) = (backend(), backend());
        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig { probe_interval: Duration::ZERO, ..RouterConfig::default() },
        )
        .unwrap();
        router.attach(b0.addr());
        router.attach(b1.addr());
        router.load("toy", LoadSource::Text(BOOL), None).unwrap();
        let handle = router.spawn();

        // Replica 1 loses the tenant behind the router's back (the shape of
        // a restart with an empty registry).
        let mut direct = Client::connect(b1.addr()).unwrap();
        direct.roundtrip(r#"{"verb":"unload","name":"toy"}"#).unwrap();

        // The mutation: replica 1 cannot ack it and is demoted on the spot.
        let mut c = Client::connect(handle.addr()).unwrap();
        let ins = c
            .roundtrip(r#"{"id":"i","verb":"insert","name":"toy","label":"+","point":[0,0,1]}"#)
            .unwrap();
        assert_eq!(ins, r#"{"id":"i","ok":true,"inserted":"toy","version":1,"replicas":[0]}"#);

        // Every query answers the post-mutation bytes (only the consistent
        // replica is active).
        let q = r#"{"dataset":"toy","id":"q","cmd":"classify","metric":"hamming","point":[0,0,1]}"#;
        for _ in 0..8 {
            assert!(c.roundtrip(q).unwrap().contains(r#""label":"+""#));
        }

        let stats = c.roundtrip(r#"{"id":"st","verb":"stats"}"#).unwrap();
        assert!(stats.contains(r#""replicas":[0]"#), "{stats}");
        assert!(stats.contains(r#""desired":[0,1]"#), "{stats}");
        assert!(stats.contains(r#""replica_versions":[1,null]"#), "divergence visible: {stats}");

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }

    /// With the probe loop on, a divergent replica is rebuilt from the
    /// retained seed + mutation log (one atomic load with `replay`) and
    /// re-admitted at the exact current version.
    #[test]
    fn divergent_replica_is_rebuilt_by_log_replay() {
        let (b0, b1) = (backend(), backend());
        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig { probe_interval: Duration::from_millis(50), ..RouterConfig::default() },
        )
        .unwrap();
        router.attach(b0.addr());
        router.attach(b1.addr());
        router.load("toy", LoadSource::Text(BOOL), None).unwrap();
        let handle = router.spawn();

        let mut direct = Client::connect(b1.addr()).unwrap();
        direct.roundtrip(r#"{"verb":"unload","name":"toy"}"#).unwrap();

        // The mutation lands on whichever replicas are consistent at that
        // moment (the reconciler may or may not have re-seeded replica 1
        // yet — either way the version advances to 1 cluster-wide).
        let mut c = Client::connect(handle.addr()).unwrap();
        let ins = c
            .roundtrip(r#"{"id":"i","verb":"insert","name":"toy","label":"+","point":[0,0,1]}"#)
            .unwrap();
        assert!(ins.contains(r#""version":1"#), "{ins}");
        let q = r#"{"dataset":"toy","id":"q","cmd":"classify","metric":"hamming","point":[0,0,1]}"#;
        for _ in 0..8 {
            assert!(c.roundtrip(q).unwrap().contains(r#""label":"+""#));
        }

        // The reconciler rebuilds replica 1 at version 1 and re-admits it.
        let mut converged = false;
        let mut stats = String::new();
        for _ in 0..100 {
            stats = c.roundtrip(r#"{"id":"st","verb":"stats"}"#).unwrap();
            if stats.contains(r#""replica_versions":[1,1]"#)
                && stats.contains(r#""replicas":[0,1]"#)
            {
                converged = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(converged, "replica never re-admitted at the current version: {stats}");
        // And it serves the mutated bytes directly.
        let resp = direct
            .roundtrip(
                r#"{"dataset":"toy","id":"d","cmd":"classify","metric":"hamming","point":[0,0,1]}"#,
            )
            .unwrap();
        assert!(resp.contains(r#""label":"+""#), "{resp}");

        handle.shutdown();
        b0.shutdown();
        b1.shutdown();
    }
}
