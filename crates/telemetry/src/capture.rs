//! Black-box capture and the shadow-audit sampler.
//!
//! The serving invariant — every response line is a pure function of
//! `(dataset at the query's epoch, config, request)` — means a raw request
//! line plus the epoch it ran at *is* a complete reproduction recipe. The
//! [`CaptureRing`] exploits that: an always-on bounded ring of the most
//! recent served `(request line, response line)` pairs, tagged with
//! `(tenant, epoch, conn, seq, trace)`. The `repro` verb turns ring
//! slices into self-contained bundles; `slow`/`trace` output carries
//! `(conn, seq)` references into it.
//!
//! Like the flight recorder, the ring is **not** gated on the registry's
//! `enabled` flag — forensics must work on a default-configured process.
//! Unlike the recorder it captures every query, so the per-query cost is
//! one mutex push of strings the server already materialized (the raw
//! input line and the response line it is about to write). The ring only
//! ever sits on the server's serving path, never on the engine's batch
//! path, so the `telemetry_overhead` bench budget is unaffected.
//!
//! The [`AuditSampler`] is the warm-path half of the continuous shadow
//! audit: a thread-local 1-in-N election (same discipline as
//! [`Recorder::sample`](crate::Recorder::sample)) plus a bounded
//! drop-on-full job queue. The expensive half — re-executing the query
//! against an engine snapshot and byte-diffing — runs on a background
//! auditor thread that drains this queue, so serving threads pay only the
//! election and, 1-in-N, a clone-and-enqueue.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How many served queries the capture ring retains (FIFO eviction).
///
/// Sized like the recorder's forced ring: enough that the worst-32 slow
/// ring and any recent anomaly span still resolve to a live capture under
/// sustained traffic, small enough (~a few hundred KiB of typical request
/// lines) to leave on unconditionally.
pub const CAPTURE_CAP: usize = 1024;

/// Default shadow-audit election rate: one served query in this many is
/// re-executed. 0 disables the audit entirely.
pub const AUDIT_INTERVAL: u64 = 64;

/// Bound on queued-but-not-yet-audited jobs. The queue drops (and counts)
/// on overflow — the audit is a sampler, never backpressure.
pub const AUDIT_QUEUE_CAP: usize = 256;

/// One served query the ring retains: the raw request line exactly as it
/// arrived, the response line exactly as served, and where/when it ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CaptureEntry {
    /// Tenant the query ran against.
    pub tenant: String,
    /// Dataset epoch the query answered at — together with the tenant's
    /// seed + mutation ops this pins the exact dataset state.
    pub epoch: u64,
    /// Server connection number (process-unique, monotonically assigned).
    pub conn: u64,
    /// The query's sequence number within its connection (its line number,
    /// which is also the server's default request id).
    pub seq: u64,
    /// Flight-recorder trace id, if the query was traced.
    pub trace: Option<String>,
    /// The raw request line, byte-exact, without the trailing newline.
    pub request: String,
    /// The served response line, byte-exact, without the trailing newline.
    pub response: String,
}

/// Always-on bounded FIFO of the most recent [`CaptureEntry`]s.
#[derive(Debug)]
pub struct CaptureRing {
    cap: usize,
    ring: Mutex<VecDeque<CaptureEntry>>,
}

impl Default for CaptureRing {
    fn default() -> CaptureRing {
        CaptureRing::new()
    }
}

impl CaptureRing {
    /// An empty ring at the default [`CAPTURE_CAP`].
    pub fn new() -> CaptureRing {
        CaptureRing::with_capacity(CAPTURE_CAP)
    }

    /// An empty ring bounded at `cap` entries (tests size this down).
    pub fn with_capacity(cap: usize) -> CaptureRing {
        CaptureRing { cap: cap.max(1), ring: Mutex::new(VecDeque::new()) }
    }

    /// The ring's bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Retained entry count (≤ [`capacity`](CaptureRing::capacity)).
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.ring.lock().unwrap().is_empty()
    }

    /// Records one served query, evicting the oldest entry at capacity.
    pub fn push(&self, entry: CaptureEntry) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() >= self.cap {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Drops every entry for `tenant`. Called when a tenant is reloaded or
    /// unloaded: entries recorded against the old seed are no longer
    /// reproducible from the new one, so retaining them would let `repro`
    /// emit bundles that lie.
    pub fn purge_tenant(&self, tenant: &str) {
        self.ring.lock().unwrap().retain(|e| e.tenant != tenant);
    }

    /// Every retained entry with trace id `trace`, oldest first.
    pub fn by_trace(&self, trace: &str) -> Vec<CaptureEntry> {
        self.ring
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.trace.as_deref() == Some(trace))
            .cloned()
            .collect()
    }

    /// The entry captured as `(conn, seq)`, if still retained.
    pub fn by_ref(&self, conn: u64, seq: u64) -> Option<CaptureEntry> {
        self.ring.lock().unwrap().iter().find(|e| e.conn == conn && e.seq == seq).cloned()
    }

    /// Every retained entry for `tenant`, oldest first.
    pub fn for_tenant(&self, tenant: &str) -> Vec<CaptureEntry> {
        self.ring.lock().unwrap().iter().filter(|e| e.tenant == tenant).cloned().collect()
    }

    /// Every retained entry, oldest first.
    pub fn snapshot(&self) -> Vec<CaptureEntry> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }
}

/// One query elected for shadow re-execution. Carries raw wire strings —
/// the auditor re-parses the request with `id` as the default id (the id
/// the server resolved at serving time), so the job is self-describing
/// across the queue boundary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditJob {
    /// Tenant the query ran against.
    pub tenant: String,
    /// Dataset epoch the served answer was computed at.
    pub epoch: u64,
    /// The request id the server resolved (member id or line number).
    pub id: String,
    /// The raw request line, byte-exact.
    pub request: String,
    /// The served response line the re-execution must match, byte-exact.
    pub response: String,
    /// Capture reference for the divergence span / exported bundle.
    pub conn: u64,
    /// See `conn`.
    pub seq: u64,
    /// Flight-recorder trace id, if any.
    pub trace: Option<String>,
}

/// Election + bounded hand-off queue for the continuous shadow audit (see
/// module docs). Held inside [`Telemetry`](crate::Telemetry); the server
/// spawns the auditor thread that drains it.
#[derive(Debug)]
pub struct AuditSampler {
    /// 1-in-N election rate; 0 disables.
    rate: AtomicU64,
    queue: Mutex<VecDeque<AuditJob>>,
    wake: Condvar,
    closed: AtomicBool,
    /// Jobs dropped because the queue was full.
    dropped: AtomicU64,
}

impl Default for AuditSampler {
    fn default() -> AuditSampler {
        AuditSampler::new()
    }
}

impl AuditSampler {
    /// A sampler at the default [`AUDIT_INTERVAL`] with an empty queue.
    pub fn new() -> AuditSampler {
        AuditSampler {
            rate: AtomicU64::new(AUDIT_INTERVAL),
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            closed: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    /// The current 1-in-N election rate (0 = audit off).
    pub fn rate(&self) -> u64 {
        self.rate.load(Ordering::Relaxed)
    }

    /// Sets the election rate; 0 turns the audit off.
    pub fn set_rate(&self, n: u64) {
        self.rate.store(n, Ordering::Relaxed);
    }

    /// Should this served query be shadow-audited? One relaxed load plus a
    /// [`draw`](crate::recorder::draw) at 1-in-`rate` — a thread-local
    /// counter bump, the entire per-query warm-path cost for the unelected
    /// majority. Rate 1 audits every query.
    pub fn elect(&self) -> bool {
        let rate = self.rate.load(Ordering::Relaxed);
        if rate == 0 {
            return false;
        }
        thread_local! {
            static TICK: Cell<Option<u64>> = const { Cell::new(None) };
        }
        static PHASES: AtomicU64 = AtomicU64::new(0);
        crate::recorder::draw(&TICK, &PHASES, rate)
    }

    /// Enqueues an elected job. Returns `false` (and counts a drop) when
    /// the queue is at [`AUDIT_QUEUE_CAP`] — serving never blocks on the
    /// auditor. Deliberately does NOT wake a parked waiter: a futex wake
    /// is a syscall on the serving thread, and the audit is latency-
    /// insensitive — the auditor polls with a short timed wait and picks
    /// the job up within one interval. Only [`close`](AuditSampler::close)
    /// notifies.
    pub fn offer(&self, job: AuditJob) -> bool {
        let mut q = self.queue.lock().unwrap();
        if q.len() >= AUDIT_QUEUE_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        q.push_back(job);
        true
    }

    /// Blocks up to `timeout` for the next job. `None` on timeout or after
    /// [`close`](AuditSampler::close) — the auditor thread exits when it
    /// sees `None` and [`is_closed`](AuditSampler::is_closed). Callers poll
    /// with a short `timeout` ([`offer`](AuditSampler::offer) never wakes
    /// them); jobs wait at most one poll interval.
    pub fn next(&self, timeout: Duration) -> Option<AuditJob> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.closed.load(Ordering::Relaxed) {
                return None;
            }
            let (guard, res) = self.wake.wait_timeout(q, timeout).unwrap();
            q = guard;
            if res.timed_out() {
                return q.pop_front();
            }
        }
    }

    /// Wakes and releases any blocked auditor; subsequent `next` calls
    /// drain the queue then return `None`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        self.wake.notify_all();
    }

    /// Has [`close`](AuditSampler::close) been called?
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Jobs dropped on queue overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Queued-but-undrained job count.
    pub fn queued(&self) -> usize {
        self.queue.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entry(tenant: &str, conn: u64, seq: u64) -> CaptureEntry {
        CaptureEntry {
            tenant: tenant.into(),
            epoch: seq,
            conn,
            seq,
            trace: seq.is_multiple_of(2).then(|| format!("t-{conn}-{seq}")),
            request: format!("{{\"point\":[{seq}]}}"),
            response: format!("{{\"id\":\"{seq}\",\"ok\":true}}"),
        }
    }

    #[test]
    fn ring_is_fifo_bounded() {
        let ring = CaptureRing::with_capacity(8);
        for seq in 0..20 {
            ring.push(entry("a", 1, seq));
        }
        assert_eq!(ring.len(), 8);
        let snap = ring.snapshot();
        assert_eq!(snap.first().unwrap().seq, 12, "oldest evicted");
        assert_eq!(snap.last().unwrap().seq, 19);
    }

    #[test]
    fn queries_filter_by_trace_ref_and_tenant() {
        let ring = CaptureRing::new();
        ring.push(entry("a", 1, 1));
        ring.push(entry("b", 1, 2));
        ring.push(entry("a", 2, 2));
        assert_eq!(ring.by_trace("t-1-2").len(), 1);
        assert_eq!(ring.by_trace("t-1-2")[0].tenant, "b");
        assert!(ring.by_trace("missing").is_empty());
        assert_eq!(ring.by_ref(2, 2).unwrap().tenant, "a");
        assert!(ring.by_ref(9, 9).is_none());
        assert_eq!(ring.for_tenant("a").len(), 2);
        ring.purge_tenant("a");
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.snapshot()[0].tenant, "b");
    }

    #[test]
    fn ring_stays_bounded_under_concurrent_pushes() {
        let ring = Arc::new(CaptureRing::with_capacity(16));
        let handles: Vec<_> = (0..4)
            .map(|conn| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for seq in 0..200 {
                        ring.push(entry("t", conn, seq));
                        assert!(ring.len() <= 16);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.len(), 16);
    }

    /// One query in `rate` is elected on a long-lived thread and across
    /// threads that serve one query each (200 of them elect about 200/64,
    /// not 200); rate 1 elects every query and rate 0 none.
    #[test]
    fn sampler_elects_one_in_n_per_thread_and_across_threads() {
        let s = Arc::new(AuditSampler::new());
        let sc = s.clone();
        let n = AUDIT_INTERVAL as usize;
        let fired: Vec<bool> =
            std::thread::spawn(move || (0..2 * n + 1).map(|_| sc.elect()).collect())
                .join()
                .unwrap();
        let at: Vec<usize> = (0..fired.len()).filter(|&i| fired[i]).collect();
        assert!((2..=3).contains(&at.len()), "elected at {at:?}");
        assert!(at.windows(2).all(|w| w[1] - w[0] == n), "elected at {at:?}");
        let once = (0..200)
            .filter(|_| {
                let sc = s.clone();
                std::thread::spawn(move || sc.elect()).join().unwrap()
            })
            .count();
        assert!((3..=4).contains(&once), "{once} of 200 one-query threads elected");
        s.set_rate(1);
        assert!((0..5).all(|_| s.elect()), "rate 1 elects every query");
        s.set_rate(0);
        assert!(!s.elect(), "rate 0 disables");
    }

    #[test]
    fn queue_bounds_drops_and_closes() {
        let s = AuditSampler::new();
        for i in 0..(AUDIT_QUEUE_CAP + 5) {
            s.offer(AuditJob { seq: i as u64, ..AuditJob::default() });
        }
        assert_eq!(s.queued(), AUDIT_QUEUE_CAP);
        assert_eq!(s.dropped(), 5);
        assert_eq!(s.next(Duration::from_millis(1)).unwrap().seq, 0, "FIFO");
        s.close();
        // Close drains the queue first, then yields None without blocking.
        let mut drained = 1;
        while s.next(Duration::from_millis(1)).is_some() {
            drained += 1;
        }
        assert_eq!(drained, AUDIT_QUEUE_CAP);
        assert!(s.is_closed());
    }

    #[test]
    fn close_wakes_a_blocked_waiter() {
        let s = Arc::new(AuditSampler::new());
        let sc = s.clone();
        let h = std::thread::spawn(move || sc.next(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        s.close();
        assert!(h.join().unwrap().is_none());
    }
}
