//! Per-connection batch scatter-gather: partition a client's pipelined
//! stream across a tenant's replicas, merge the responses back in request
//! order, and fail over mid-stream without changing a single output byte.
//!
//! Every client connection gets its own [`Dispatcher`]: one lazily-dialed
//! channel per backend it touches and one receiver thread per channel. The
//! connection frame's writer (`knn_server::frame`, the same one the single
//! server uses) reorders the `(seq, bytes)` completions back into request
//! order, so the client cannot tell a router from a server by the bytes.
//!
//! Why request-level sharding is *sound*: every query's response is a pure
//! function of `(dataset, engine config, request)` — the engine's
//! determinism contract, pinned by its tests. Which replica executes a query
//! can change *when* the answer arrives, never what it is; the seq-merge
//! restores order. (Point-level sharding — splitting one dataset's points
//! across backends — would not have this property: k-NN is not decomposable
//! over point subsets without a distributed top-k merge.)
//!
//! **Failure model** (fail-stop): a backend that dies mid-stream takes its
//! channel down; every query still pending on that channel is redispatched
//! to another replica, where it recomputes to the identical bytes. A query
//! whose response was already merged is never re-run. Queries are
//! idempotent reads, so the at-least-once execution under failover is
//! invisible. Only when *every* replica of a tenant is gone does the client
//! see a router-authored error line. A backend that wedges (accepts bytes,
//! never answers) stalls its pending queries — fail-stop, not
//! byzantine-slow, is the contract, the same one the single server has with
//! its own worker pool.

use crate::placement::PlacementMap;
use crate::pool::{Backend, BackendPool, CONNECT_ATTEMPTS, CONNECT_BACKOFF};
use knn_server::frame::Responses;
use knn_server::proto;
use knn_telemetry::{SpanEvent, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One forwarded-but-unanswered query. Lives in exactly one place at any
/// time: a channel's pending queue, or the hands of the single failure
/// handler that drained it — that exclusivity is what makes at-least-once
/// redispatch produce exactly one response per seq.
pub(crate) struct PendingQuery {
    /// Slot in the client's response order.
    pub seq: u64,
    /// Response id (for router-authored error lines).
    pub id: String,
    /// Tenant, for re-placement on failover.
    pub tenant: String,
    /// The exact bytes forwarded to a backend, newline included.
    pub line: Vec<u8>,
    /// Dispatch attempts so far (caps the failover loop).
    pub attempts: usize,
    /// Trace id (client-sent or router-minted): the router records a
    /// `dispatch` span per traced completion, which the `trace` verb uses
    /// to stitch backend span trees under the right backend. `None` for
    /// untraced queries — they pay no clock read on the router.
    pub trace: Option<String>,
    /// Recorder timestamp at first dispatch (0 when untraced).
    pub start_us: u64,
    /// The query's cache-affinity key ([`knn_engine::cache::affinity_hash`]):
    /// equal-key queries prefer the same replica, so repeats land where the
    /// answer is already cached.
    pub key: u64,
    /// The tenant's router-side version at dispatch time — the epoch label a
    /// cross-replica cache fill of this query's answer would carry. The fill
    /// worker re-checks it under the load lock before pushing, so an answer
    /// computed concurrently with a mutation fan-out can never be installed
    /// under the wrong epoch.
    pub version: u64,
    /// The replica that last answered "no dataset" for this query (it lost
    /// the tenant): redispatch tries it last until the reconciler repairs
    /// it, instead of bouncing off it until the attempt cap.
    pub not_loaded: Option<usize>,
}

/// Rendezvous score of `replica` for affinity key `key`: FNV-1a over the
/// key and replica-id bytes — the same process-stable hash (and the same
/// highest-score-wins scheme) tenant placement uses, so every connection on
/// every router ranks a tenant's replicas identically for a given key.
fn affinity_score(key: u64, replica: usize) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.to_le_bytes().into_iter().chain((replica as u64).to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The deterministic replica order for affinity key `key`: every replica,
/// ranked by rendezvous score descending (ties break on the id). The head
/// is the preferred replica; the tail is the failover order — also
/// deterministic, so after a replica dies, every connection agrees on
/// where the key's cache entries accumulate next.
pub(crate) fn affinity_order(key: u64, replicas: &[usize]) -> Vec<usize> {
    let mut scored: Vec<(u64, usize)> =
        replicas.iter().map(|&id| (affinity_score(key, id), id)).collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, id)| id).collect()
}

/// Records one router-side span for query `q`: a `dispatch` completion
/// (traced queries only) or a forced `failover` anomaly (any query a
/// failure path drained — those must survive for forensics even untraced).
/// Always forced: this is only called when traced or anomalous.
fn emit_query_span(
    disp: &Dispatcher,
    q: &PendingQuery,
    name: &'static str,
    backend_id: usize,
    anomaly: &'static str,
) {
    if q.trace.is_none() && anomaly.is_empty() {
        return;
    }
    let recorder = disp.telemetry.recorder();
    let end_us = recorder.now_us();
    let start_us = if q.start_us == 0 { end_us } else { q.start_us };
    recorder.push(
        SpanEvent {
            trace: q.trace.clone().unwrap_or_default(),
            seq: recorder.next_seq(),
            parent: 0,
            name,
            detail: format!("backend={backend_id}"),
            tenant: q.tenant.clone(),
            epoch: 0,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            anomaly,
        },
        true,
    );
}

/// Channel state: the write half and the in-order pending queue share one
/// mutex so a send and a channel death cannot race a query into limbo (or
/// into two places at once).
struct ChanState {
    stream: Option<TcpStream>,
    pending: VecDeque<PendingQuery>,
    dead: bool,
}

/// One backend channel of one client connection.
struct Chan {
    backend: Arc<Backend>,
    state: Mutex<ChanState>,
}

enum SendOutcome {
    /// Query is on the wire (and in the pending queue).
    Sent,
    /// Channel already dead; the query is handed back untouched.
    Rejected(PendingQuery),
    /// The send killed the channel: every pending query (the argument
    /// included) was drained and must be redispatched.
    Died(Vec<PendingQuery>),
}

impl Chan {
    fn send(&self, q: PendingQuery) -> SendOutcome {
        let mut st = self.state.lock().unwrap();
        if st.dead {
            return SendOutcome::Rejected(q);
        }
        // Write under the state lock, push on success: the receiver (which
        // pops under the same lock) cannot observe the query before it is
        // both on the wire and in the queue.
        match st.stream.as_mut().expect("live channel has a stream").write_all(&q.line) {
            Ok(()) => {
                st.pending.push_back(q);
                SendOutcome::Sent
            }
            Err(_) => {
                st.dead = true;
                if let Some(s) = st.stream.take() {
                    let _ = s.shutdown(Shutdown::Both);
                }
                let mut drained: Vec<PendingQuery> = st.pending.drain(..).collect();
                drained.push(q);
                SendOutcome::Died(drained)
            }
        }
    }

    /// Graceful close (connection teardown, after the completion barrier):
    /// no pending queries remain, so nothing is drained and the backend is
    /// not blamed for the EOF its receiver is about to see.
    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.dead = true;
        if let Some(s) = st.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// The per-connection scatter-gather state (see module docs).
pub(crate) struct Dispatcher {
    pool: Arc<BackendPool>,
    placement: Arc<PlacementMap>,
    /// Final responses (backend answers and router error lines) go here.
    responses: Responses,
    chans: Mutex<HashMap<usize, Arc<Chan>>>,
    receivers: Mutex<Vec<JoinHandle<()>>>,
    /// Router-side counters: dispatches and failover redispatches (both
    /// out-of-band; never on the response path).
    telemetry: Arc<Telemetry>,
    /// Cross-replica cache-fill hub: every completed response is offered
    /// for a best-effort push to the key's first failover replica.
    fill: Arc<crate::FillHub>,
}

impl Dispatcher {
    pub fn new(
        pool: Arc<BackendPool>,
        placement: Arc<PlacementMap>,
        responses: Responses,
        telemetry: Arc<Telemetry>,
        fill: Arc<crate::FillHub>,
    ) -> Arc<Dispatcher> {
        Arc::new(Dispatcher {
            pool,
            placement,
            responses,
            chans: Mutex::new(HashMap::new()),
            receivers: Mutex::new(Vec::new()),
            telemetry,
            fill,
        })
    }

    /// The channel to backend `id`, dialing it on first use. A failed dial
    /// registers a dead channel (so later queries skip the dial timeout) and
    /// marks the backend down. A dead channel whose backend the probe loop
    /// has since marked healthy is re-dialed and replaced — a long-lived
    /// client connection must not keep failing against a recovered backend.
    fn chan(self: &Arc<Self>, id: usize) -> Option<Arc<Chan>> {
        let backend = self.pool.get(id)?;
        if let Some(c) = self.chans.lock().unwrap().get(&id) {
            if !c.state.lock().unwrap().dead || !backend.is_healthy() {
                return Some(c.clone());
            }
            // Dead channel, recovered backend: fall through to re-dial.
        }
        let dialed = dial(&backend);
        // Between the check above and this insert another thread may have
        // dialed the same backend; keep its live channel and close ours.
        let mut chans = self.chans.lock().unwrap();
        if let Some(c) = chans.get(&id) {
            if !c.state.lock().unwrap().dead {
                if let Ok(s) = dialed {
                    let _ = s.shutdown(Shutdown::Both);
                }
                return Some(c.clone());
            }
        }
        let chan = match dialed {
            Ok(stream) => {
                let reader = match stream.try_clone() {
                    Ok(r) => r,
                    Err(_) => {
                        backend.mark_down();
                        return self.insert_dead(chans, id, backend);
                    }
                };
                let chan = Arc::new(Chan {
                    backend,
                    state: Mutex::new(ChanState {
                        stream: Some(stream),
                        pending: VecDeque::new(),
                        dead: false,
                    }),
                });
                let disp = self.clone();
                let rchan = chan.clone();
                let handle = std::thread::spawn(move || receiver_loop(disp, rchan, reader));
                let mut receivers = self.receivers.lock().unwrap();
                // Reap handles of receivers that already exited (dead
                // channels being re-dialed), so a flapping backend cannot
                // grow this list without bound over a long connection.
                receivers.retain(|h| !h.is_finished());
                receivers.push(handle);
                chan
            }
            Err(_) => {
                backend.mark_down();
                return self.insert_dead(chans, id, backend);
            }
        };
        chans.insert(id, chan.clone());
        Some(chan)
    }

    fn insert_dead(
        &self,
        mut chans: std::sync::MutexGuard<'_, HashMap<usize, Arc<Chan>>>,
        id: usize,
        backend: Arc<Backend>,
    ) -> Option<Arc<Chan>> {
        let chan = Arc::new(Chan {
            backend,
            state: Mutex::new(ChanState { stream: None, pending: VecDeque::new(), dead: true }),
        });
        chans.insert(id, chan.clone());
        Some(chan)
    }

    /// Routes one query to a replica of its tenant: healthy replicas first
    /// (in the key's affinity order, so repeats land where the answer is
    /// cached), then marked-down ones as a last resort (the mark may be
    /// stale). Emits a router-authored error line only when every attempt
    /// is exhausted.
    pub fn dispatch(self: &Arc<Self>, mut q: PendingQuery) {
        let Some(replicas) = self.placement.get(&q.tenant) else {
            // Unloaded mid-stream (or a redispatch raced an unload).
            let line = proto::no_dataset_line(&q.id, &q.tenant).into_bytes();
            return self.responses.deliver(q.seq, line);
        };
        if q.attempts > replicas.len() + 2 {
            let msg = format!("all replicas of `{}` are unavailable", q.tenant);
            let line = proto::error_line(&q.id, &msg).into_bytes();
            return self.responses.deliver(q.seq, line);
        }
        q.attempts += 1;

        // Candidate order: *all* replicas ranked by rendezvous score of the
        // query's affinity key — the same order on every connection, so a
        // key's repeats always prefer the replica that already cached its
        // answer, and its failover order is equally agreed-on. Health is
        // snapshotted once per replica — evaluating it twice could drop a
        // replica flipping down→up from both the healthy and unhealthy
        // groups — then a stable partition puts healthy ones first (a
        // marked-down replica is still a last resort: the mark may be
        // stale).
        let mut candidates: Vec<(usize, bool)> = affinity_order(q.key, &replicas)
            .into_iter()
            .map(|id| (id, self.pool.get(id).map(|b| b.is_healthy()).unwrap_or(false)))
            .collect();
        // Stable: order kept per group.
        candidates.sort_by_key(|&(id, healthy)| (q.not_loaded == Some(id), !healthy));

        for (id, healthy) in candidates {
            let Some(chan) = self.chan(id) else { continue };
            match chan.send(q) {
                SendOutcome::Sent => {
                    self.telemetry.add("knn_router_dispatches_total", 1);
                    return;
                }
                SendOutcome::Rejected(back) => {
                    q = back;
                    // A replica believed healthy whose channel is dead (its
                    // dial just failed) loses the query to the next one:
                    // that is a failover as much as a channel dying with
                    // the query pending.
                    if healthy {
                        self.telemetry.add("knn_router_failovers_total", 1);
                        emit_query_span(self, &q, "failover", id, "failover");
                    }
                }
                SendOutcome::Died(drained) => {
                    chan.backend.mark_down();
                    self.telemetry.add("knn_router_failovers_total", drained.len() as u64);
                    // Everything the dead channel was holding — the query we
                    // just tried included — goes back through dispatch.
                    for p in drained {
                        emit_query_span(self, &p, "failover", id, "failover");
                        self.dispatch(p);
                    }
                    return;
                }
            }
        }
        let msg = format!("all replicas of `{}` are unavailable", q.tenant);
        let line = proto::error_line(&q.id, &msg).into_bytes();
        self.responses.deliver(q.seq, line);
    }

    /// Connection teardown, after every dispatched query was delivered: no
    /// channel still holds pending queries, so closing is graceful and the
    /// receivers drain out on EOF.
    pub fn close(&self) {
        for chan in self.chans.lock().unwrap().values() {
            chan.close();
        }
        for h in self.receivers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// Dials a backend's data channel with the same bounded-retry policy the
/// control path uses.
fn dial(backend: &Backend) -> std::io::Result<TcpStream> {
    knn_server::client::connect_stream_retry(backend.addr, CONNECT_ATTEMPTS, CONNECT_BACKOFF)
}

/// Reads response lines off one backend channel, matching them to pending
/// queries in FIFO order (the server answers a connection's queries in
/// request order, so the front of `pending` is always the line's owner).
///
/// Byte-total: the backend controls every byte here. A response line is
/// forwarded verbatim to the owning client — garbage from a backend can
/// garble *this* client's stream (it owns that backend choice's
/// consequences) but never another connection's, and never the router. A
/// line with no pending owner is dropped. EOF or a read error while queries
/// are pending is the failover path: drain and redispatch.
fn receiver_loop(disp: Arc<Dispatcher>, chan: Arc<Chan>, reader: TcpStream) {
    let mut reader = BufReader::new(reader);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                let popped = chan.state.lock().unwrap().pending.pop_front();
                if let Some(q) = popped {
                    // A backend answering "no dataset named ..." for a tenant
                    // the router *placed on it* has lost the tenant (e.g. a
                    // restart emptied its registry). That answer would never
                    // come from the single-server oracle, so treat it as a
                    // failed attempt: retry on another replica while the
                    // probe loop's reconciler re-loads this one. The
                    // attempts cap still bounds the loop.
                    if is_not_loaded_error(&buf, &q) {
                        let mut q = q;
                        q.not_loaded = Some(chan.backend.id);
                        disp.telemetry.add("knn_router_failovers_total", 1);
                        emit_query_span(&disp, &q, "failover", chan.backend.id, "failover");
                        disp.dispatch(q);
                    } else {
                        emit_query_span(&disp, &q, "dispatch", chan.backend.id, "");
                        disp.responses.deliver(q.seq, buf.clone());
                        // After the client has its bytes: offer the answer
                        // to the fill hub, which pushes it (best-effort,
                        // deduplicated, epoch-checked) to the key's first
                        // failover replica, so a repeat stays warm through
                        // the loss of its home replica.
                        disp.fill.offer(&q, chan.backend.id, &buf);
                    }
                }
            }
        }
    }
    // Channel is down. If that is news (not a graceful close), this thread
    // owns the drain: mark the backend down and redispatch everything the
    // channel still held.
    let drained = {
        let mut st = chan.state.lock().unwrap();
        if st.dead {
            Vec::new()
        } else {
            st.dead = true;
            if let Some(s) = st.stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
            chan.backend.mark_down();
            st.pending.drain(..).collect()
        }
    };
    disp.telemetry.add("knn_router_failovers_total", drained.len() as u64);
    for q in drained {
        emit_query_span(&disp, &q, "failover", chan.backend.id, "failover");
        disp.dispatch(q);
    }
}

/// Is `line` exactly the backend's "no dataset named \`tenant\`" error for
/// this query? Byte-exact comparison against the server's known error
/// shape, with a cheap suffix pre-filter so the hot path pays one
/// `ends_with` per response.
fn is_not_loaded_error(line: &[u8], q: &PendingQuery) -> bool {
    if !line.ends_with(b"(try the load verb)\"}") {
        return false;
    }
    line == proto::no_dataset_line(&q.id, &q.tenant).as_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The order every connection derives for a key is a deterministic
        /// permutation of the replica set — no replica dropped, none
        /// invented, same answer every time it is computed.
        #[test]
        fn affinity_order_is_a_deterministic_permutation(
            key in any::<u64>(),
            n in 1usize..12,
        ) {
            let replicas: Vec<usize> = (0..n).collect();
            let order = affinity_order(key, &replicas);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, replicas.clone());
            prop_assert_eq!(affinity_order(key, &replicas), order);
        }

        /// The rendezvous property: removing one replica from the set
        /// removes exactly that entry from the order — every other key→
        /// replica preference survives a backend death, so caches built
        /// under the old membership stay where repeats will look for them.
        #[test]
        fn dropping_a_replica_preserves_the_survivors_order(
            key in any::<u64>(),
            n in 2usize..12,
            victim in 0usize..12,
        ) {
            let replicas: Vec<usize> = (0..n).collect();
            let victim = replicas[victim % n];
            let full = affinity_order(key, &replicas);
            let survivors: Vec<usize> =
                replicas.iter().copied().filter(|&r| r != victim).collect();
            let expected: Vec<usize> = full.into_iter().filter(|&r| r != victim).collect();
            prop_assert_eq!(affinity_order(key, &survivors), expected);
        }
    }

    /// Keys spread over replicas: a degenerate score would pile every key
    /// on one replica and re-create the warm-path pile-up this routing
    /// exists to fix.
    #[test]
    fn affinity_order_spreads_keys_over_replicas() {
        let replicas: Vec<usize> = (0..4).collect();
        let mut preferred = [0usize; 4];
        for key in 0..256u64 {
            preferred[affinity_order(key, &replicas)[0]] += 1;
        }
        for (id, &count) in preferred.iter().enumerate() {
            assert!(
                (16..=112).contains(&count),
                "replica {id} preferred by {count}/256 keys: {preferred:?}"
            );
        }
    }
}
