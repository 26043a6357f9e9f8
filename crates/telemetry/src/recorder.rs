//! The flight recorder: an always-on, bounded, lock-cheap ring of
//! [`SpanEvent`]s per process.
//!
//! Two rings, two retention policies:
//!
//! * **forced** — explicitly traced queries and every anomaly, whether or
//!   not a sampler fired: error responses, slow queries, guard-revalidation
//!   failures, budget demotions, failovers. FIFO-evicted at a fixed cap:
//!   the most recent ~2k forensic events are always retrievable by
//!   `trace <id>` / `dump`.
//! * **sampled** — a uniform reservoir (Algorithm R) over the 1-in-N
//!   queries the sampler elects, so the dump shows *representative*
//!   traffic next to the anomalies, not just whatever happened last.
//!
//! The forced ring is also the `slow` verb's source. A query is slow when
//! its end-to-end time exceeds the **slow floor**: the [`SLOWEST`]-th
//! largest duration among the `query` roots the ring retains (0 while it
//! retains fewer). [`Recorder::slowest`] reads those [`SLOWEST`] families
//! back without draining them.
//!
//! Cost discipline: the recorder is **always on** (no enable flag), so the
//! unsampled hot path must pay almost nothing — one thread-local counter
//! bump per query ([`Recorder::sample`], see [`draw`]) and one relaxed load
//! of the slow floor. Only captured queries take a mutex to push their
//! family; at 1-in-[`SAMPLE_INTERVAL`] the amortized cost sits far inside
//! the telemetry budget the `telemetry_overhead` bench enforces.

use crate::span::{QuerySpans, SlowQuery, SpanEvent};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::LocalKey;
use std::time::Instant;

/// Capacity of the forced (anomaly + traced) ring; FIFO eviction.
pub const FORCED_CAP: usize = 2048;

/// Capacity of the sampled reservoir.
pub const RESERVOIR_CAP: usize = 4096;

/// The sampler elects one query in this many, per thread and across the
/// process (see [`draw`]).
pub const SAMPLE_INTERVAL: u64 = 64;

/// How many of the slowest retained `query` roots [`Recorder::slowest`]
/// returns; the slow floor is the duration of the last of them.
pub const SLOWEST: usize = 32;

/// One draw of a 1-in-`n` sampler: fires when the calling thread's `tick`
/// is a multiple of `n`, then bumps it. A thread's first draw takes its
/// starting tick from the process-wide `phases` counter, one step per
/// thread, so threads that draw once each (a server spawns workers per
/// connection) fire one in `n` across the process instead of every time,
/// and a long-lived thread still fires one draw in `n`.
pub(crate) fn draw(tick: &'static LocalKey<Cell<Option<u64>>>, phases: &AtomicU64, n: u64) -> bool {
    tick.with(|t| {
        let v = t.get().unwrap_or_else(|| phases.fetch_add(1, Ordering::Relaxed));
        t.set(Some(v.wrapping_add(1)));
        v % n == 0
    })
}

/// Is `ev` the root of a query family?
fn is_query_root(ev: &SpanEvent) -> bool {
    ev.parent == 0 && ev.name == "query"
}

/// The slow floor of `ring`: the [`SLOWEST`]-th largest `query` root
/// duration, or 0 while fewer roots are retained.
fn slow_floor_of(ring: &VecDeque<SpanEvent>) -> u64 {
    let mut durs: Vec<u64> = ring.iter().filter(|e| is_query_root(e)).map(|e| e.dur_us).collect();
    if durs.len() < SLOWEST {
        return 0;
    }
    *durs.select_nth_unstable_by(SLOWEST - 1, |a, b| b.cmp(a)).1
}

/// Uniform reservoir over sampled span events (Vitter's Algorithm R).
/// Randomness is a private xorshift — recorder contents are out-of-band
/// diagnostics, never response bytes, so being pseudo-random (and seeded
/// const, hence deterministic per process) is a feature.
#[derive(Debug)]
struct Reservoir {
    events: Vec<SpanEvent>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    fn offer(&mut self, ev: SpanEvent) {
        self.seen += 1;
        if self.events.len() < RESERVOIR_CAP {
            self.events.push(ev);
            return;
        }
        // xorshift64: fine for reservoir slot choice, never user-visible.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = self.rng % self.seen;
        if (slot as usize) < RESERVOIR_CAP {
            self.events[slot as usize] = ev;
        }
    }
}

/// The per-process flight recorder (see module docs). Held inside
/// [`Telemetry`](crate::Telemetry), one per process.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    seq: AtomicU64,
    forced: Mutex<VecDeque<SpanEvent>>,
    /// The forced ring's slow floor (see the module docs). Written only
    /// under the `forced` lock, read lock-free by the serving path.
    slow_floor: AtomicU64,
    sampled: Mutex<Reservoir>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            seq: AtomicU64::new(1),
            forced: Mutex::new(VecDeque::new()),
            slow_floor: AtomicU64::new(0),
            sampled: Mutex::new(Reservoir {
                events: Vec::new(),
                seen: 0,
                rng: 0x9E37_79B9_7F4A_7C15,
            }),
        }
    }

    /// Microseconds since the recorder started (the span timebase).
    pub fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// The next process-unique span sequence number (never 0).
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Should this (untraced, unremarkable) query be captured? One
    /// [`draw`] at 1-in-[`SAMPLE_INTERVAL`]: a thread-local counter bump,
    /// the entire per-query cost of the recorder on the unelected hot path.
    pub fn sample(&self) -> bool {
        thread_local! {
            static TICK: Cell<Option<u64>> = const { Cell::new(None) };
        }
        static PHASES: AtomicU64 = AtomicU64::new(0);
        draw(&TICK, &PHASES, SAMPLE_INTERVAL)
    }

    /// The current slow floor: a query whose end-to-end time exceeds it
    /// is slow (see the module docs).
    pub fn slow_floor(&self) -> u64 {
        self.slow_floor.load(Ordering::Relaxed)
    }

    /// Records one span event. `forced` routes it to the FIFO anomaly ring
    /// (traced queries and anomalies — must survive until an operator asks),
    /// otherwise to the sampled reservoir.
    pub fn push(&self, ev: SpanEvent, forced: bool) {
        self.push_all([ev], forced);
    }

    /// The span emitter: records `q`'s whole family (see
    /// [`QuerySpans`]), ending now — into the forced ring when it is
    /// traced or anomalous, else into the sampled reservoir. The caller
    /// decides *whether* to record: traced, one sampler draw, or an
    /// anomaly.
    pub fn record_query(&self, q: &QuerySpans<'_>) {
        let forced = !q.trace.is_empty() || !q.anomaly().is_empty();
        self.push_all(q.family(self.now_us(), || self.next_seq()), forced);
    }

    /// Pushes `evs` under one lock. A forced push recomputes the slow
    /// floor only when a `query` root at or above it enters or leaves.
    fn push_all(&self, evs: impl IntoIterator<Item = SpanEvent>, forced: bool) {
        if !forced {
            let mut reservoir = self.sampled.lock().unwrap();
            for ev in evs {
                reservoir.offer(ev);
            }
            return;
        }
        let mut ring = self.forced.lock().unwrap();
        let floor = self.slow_floor.load(Ordering::Relaxed);
        let moves_floor = |ev: &SpanEvent| is_query_root(ev) && ev.dur_us >= floor;
        let mut stale = false;
        for ev in evs {
            if ring.len() >= FORCED_CAP {
                stale |= ring.pop_front().is_some_and(|old| moves_floor(&old));
            }
            stale |= moves_floor(&ev);
            ring.push_back(ev);
        }
        if stale {
            self.slow_floor.store(slow_floor_of(&ring), Ordering::Relaxed);
        }
    }

    /// The [`SLOWEST`] slowest `query` families in the forced ring,
    /// slowest first (ties by tenant, then id), each with its phase
    /// breakdown. A read: the families stay retained.
    pub fn slowest(&self) -> Vec<SlowQuery> {
        let ring = self.forced.lock().unwrap();
        let mut slow: Vec<(u64, SlowQuery)> = ring
            .iter()
            .filter(|e| is_query_root(e))
            .filter_map(|e| Some((e.seq, SlowQuery::from_root(e)?)))
            .collect();
        slow.sort_by(|(_, a), (_, b)| {
            b.total_us
                .cmp(&a.total_us)
                .then_with(|| a.tenant.cmp(&b.tenant))
                .then_with(|| a.id.cmp(&b.id))
        });
        slow.truncate(SLOWEST);
        for ev in ring.iter().filter(|e| e.parent != 0) {
            if let Some((_, q)) = slow.iter_mut().find(|(root, _)| *root == ev.parent) {
                q.add_phase(ev);
            }
        }
        slow.into_iter().map(|(_, q)| q).collect()
    }

    /// Every retained span of one trace, over both rings, ordered by
    /// `(start_us, seq)` so parents precede their children.
    pub fn spans_for(&self, trace: &str) -> Vec<SpanEvent> {
        let mut out: Vec<SpanEvent> = Vec::new();
        out.extend(self.forced.lock().unwrap().iter().filter(|e| e.trace == trace).cloned());
        out.extend(
            self.sampled.lock().unwrap().events.iter().filter(|e| e.trace == trace).cloned(),
        );
        out.sort_by_key(|e| (e.start_us, e.seq));
        out
    }

    /// Every retained span (forced first is *not* guaranteed — ordered by
    /// `(start_us, seq)` like [`spans_for`](Recorder::spans_for)).
    pub fn all(&self) -> Vec<SpanEvent> {
        let mut out: Vec<SpanEvent> = self.forced.lock().unwrap().iter().cloned().collect();
        out.extend(self.sampled.lock().unwrap().events.iter().cloned());
        out.sort_by_key(|e| (e.start_us, e.seq));
        out
    }

    /// Retained event count across both rings.
    pub fn len(&self) -> usize {
        self.forced.lock().unwrap().len() + self.sampled.lock().unwrap().events.len()
    }

    /// Is the recorder empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryTrace;

    fn ev(trace: &str, seq: u64, start_us: u64) -> SpanEvent {
        SpanEvent { trace: trace.into(), seq, start_us, name: "query", ..SpanEvent::default() }
    }

    #[test]
    fn forced_ring_is_fifo_bounded() {
        let r = Recorder::new();
        for i in 0..(FORCED_CAP as u64 + 10) {
            r.push(ev("t", i + 1, i), true);
        }
        assert_eq!(r.len(), FORCED_CAP);
        let spans = r.spans_for("t");
        // The 10 oldest were evicted.
        assert_eq!(spans.first().unwrap().seq, 11);
        assert_eq!(spans.last().unwrap().seq, FORCED_CAP as u64 + 10);
    }

    #[test]
    fn reservoir_is_bounded_and_keeps_a_sample() {
        let r = Recorder::new();
        for i in 0..(RESERVOIR_CAP as u64 * 3) {
            r.push(ev("", i + 1, i), false);
        }
        assert_eq!(r.len(), RESERVOIR_CAP);
        assert!(!r.all().is_empty());
    }

    #[test]
    fn spans_for_filters_and_orders() {
        let r = Recorder::new();
        r.push(ev("b", 3, 50), true);
        r.push(ev("a", 1, 10), true);
        r.push(ev("a", 2, 5), false);
        let spans = r.spans_for("a");
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].seq, spans[1].seq), (2, 1), "ordered by start_us");
        assert!(r.spans_for("missing").is_empty());
    }

    /// One draw in `SAMPLE_INTERVAL` fires on a long-lived thread, and
    /// across threads that draw once each: 200 one-draw threads fire about
    /// 200/64 times, not 200 (one per thread's first call).
    #[test]
    fn sampler_fires_one_in_n_per_thread_and_across_threads() {
        let r = std::sync::Arc::new(Recorder::new());
        let rc = r.clone();
        let n = SAMPLE_INTERVAL as usize;
        let fired: Vec<bool> =
            std::thread::spawn(move || (0..2 * n + 1).map(|_| rc.sample()).collect())
                .join()
                .unwrap();
        let at: Vec<usize> = (0..fired.len()).filter(|&i| fired[i]).collect();
        assert!((2..=3).contains(&at.len()), "fired at {at:?}");
        assert!(at.windows(2).all(|w| w[1] - w[0] == n), "fired at {at:?}");
        let once = (0..200)
            .filter(|_| {
                let rc = r.clone();
                std::thread::spawn(move || rc.sample()).join().unwrap()
            })
            .count();
        assert!((3..=4).contains(&once), "{once} of 200 one-draw threads fired");
    }

    /// A served query taking `total_us`, forced as slow.
    fn served(r: &Recorder, tenant: &str, id: &str, total_us: u64) {
        let qt = QueryTrace { cache: "miss", solve_us: total_us / 2, ..QueryTrace::default() };
        r.record_query(&QuerySpans {
            trace: "",
            tenant,
            id,
            route: "hamming-index",
            qt: &qt,
            err: false,
            slow: true,
            total_us,
            admission_us: Some(1),
            conn: 3,
            seq: total_us,
        });
    }

    #[test]
    fn slow_floor_is_the_32nd_largest_retained_root() {
        let r = Recorder::new();
        for us in 1..SLOWEST as u64 {
            served(&r, "t", &format!("q{us}"), us * 10);
        }
        assert_eq!(r.slow_floor(), 0, "fewer than {SLOWEST} roots retained");
        served(&r, "t", "q32", 320);
        assert_eq!(r.slow_floor(), 10, "the 32nd largest of 10..=320");
        for us in [5, 1000, 7] {
            served(&r, "t", &format!("x{us}"), us);
        }
        // 1000 displaced 10 from the top 32; 5 and 7 sit below the floor.
        assert_eq!(r.slow_floor(), 20);
        // Forced events that are not query roots never move it.
        r.push(SpanEvent { name: "dispatch", dur_us: 9999, ..SpanEvent::default() }, true);
        assert_eq!(r.slow_floor(), 20);
    }

    #[test]
    fn slow_floor_drops_when_a_top_root_is_evicted_fifo() {
        let r = Recorder::new();
        for i in 0..SLOWEST as u64 {
            served(&r, "t", &format!("q{i}"), 1000 + i);
        }
        assert_eq!(r.slow_floor(), 1000);
        // Fill the ring with small forced markers until the oldest root
        // (the floor itself) is evicted.
        let family = r.len() / SLOWEST;
        for _ in 0..(FORCED_CAP - r.len() + family) {
            r.push(SpanEvent { name: "apply", ..SpanEvent::default() }, true);
        }
        assert_eq!(r.slowest().len(), SLOWEST - 1);
        assert_eq!(r.slow_floor(), 0, "31 roots left: every query is slow again");
    }

    #[test]
    fn slowest_sorts_by_total_then_tenant_then_id() {
        let r = Recorder::new();
        served(&r, "b", "q 1", 50);
        served(&r, "a", "q2", 50);
        served(&r, "a", "q1", 50);
        served(&r, "a", "fast", 7);
        let slow = r.slowest();
        let keys: Vec<(&str, &str, u64)> =
            slow.iter().map(|q| (q.tenant.as_str(), q.id.as_str(), q.total_us)).collect();
        assert_eq!(keys, [("a", "q1", 50), ("a", "q2", 50), ("b", "q 1", 50), ("a", "fast", 7)]);
        // Every member parses back out of the family the emitter wrote.
        let q = &slow[2];
        assert_eq!((q.route.as_str(), q.cache.as_str()), ("hamming-index", "miss"));
        assert_eq!((q.conn, q.seq, q.admission_us, q.solve_us), (3, 50, 1, 25));
        assert_eq!(q.trace, None);
    }

    #[test]
    fn slowest_is_a_non_destructive_read() {
        let r = Recorder::new();
        for i in 0..(SLOWEST as u64 + 8) {
            served(&r, "t", &format!("q{i}"), 100 + i);
        }
        let first = r.slowest();
        assert_eq!(first.len(), SLOWEST);
        assert_eq!(first[0].total_us, 100 + SLOWEST as u64 + 7, "slowest first");
        assert!(first.iter().all(|q| q.total_us >= 108), "the 8 fastest are not listed");
        assert_eq!(r.slowest(), first, "reading twice sees the same families");
    }

    #[test]
    fn seq_is_unique_and_nonzero() {
        let r = Recorder::new();
        let a = r.next_seq();
        let b = r.next_seq();
        assert!(a != 0 && b != 0 && a != b);
    }
}
