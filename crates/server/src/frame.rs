//! The connection frame of both client-facing endpoints: `xknn serve`
//! ([`crate::Server`]) and `xknn router` (`knn_cluster::Router`).
//!
//! The frame owns everything the two endpoints share: the accept loop, line
//! numbering, blank-line silence, the `line N: …` parse-error line, the
//! unknown-tenant error line, the control barrier, `ping` / `quit` /
//! `shutdown`, the teardown and the seq-ordered writer. An [`Endpoint`]
//! supplies only how a query is dispatched (the server's worker pool, the
//! router's scatter dispatcher) and its other control verbs.
//!
//! `seq` is a query's slot in the response stream: the 0-based index of its
//! line among the connection's non-blank lines. The default response `id`
//! is the 1-based line number, blank lines included.

use crate::proto::{self, Command};
use knn_engine::json::Value;
use knn_engine::Request;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One query line the frame hands to an endpoint.
pub struct Query<'a> {
    /// Slot in the connection's response order.
    pub seq: u64,
    /// 1-based line number (the default response `id`).
    pub lineno: u64,
    /// The line's bytes, surrounding whitespace trimmed.
    pub line: &'a [u8],
    /// The parsed line, for envelope members the protocol does not model.
    pub value: &'a Value,
    /// The tenant the query names.
    pub dataset: String,
    /// The engine request.
    pub request: Request,
    /// The line's `"trace"` member when it is a non-empty string. Any other
    /// shape is ignored: the member is an out-of-band diagnostic hint, so it
    /// must never turn a valid query into an error.
    pub trace: Option<String>,
}

impl Query<'_> {
    /// The response to a query whose dataset names no tenant.
    pub fn unknown_tenant(self) -> String {
        proto::no_dataset_line(&self.request.id, &self.dataset)
    }
}

/// One connection's query dispatcher.
pub trait Connection {
    /// Dispatches `q`, whose response must later be delivered to the
    /// connection's [`Responses`] under `q.seq`. A query that cannot be
    /// dispatched gets its response line back instead, which the frame
    /// writes in its slot: [`Query::unknown_tenant`] when its dataset names
    /// no tenant.
    fn dispatch(&mut self, q: Query<'_>) -> Result<(), String>;

    /// Releases the dispatcher once every dispatched query was delivered.
    fn close(self);
}

/// What differs between the server and the router.
pub trait Endpoint: Send + Sync + 'static {
    /// The per-connection dispatcher.
    type Conn: Connection;

    /// Opens a connection's dispatcher, delivering to `responses`.
    fn open(self: &Arc<Self>, responses: Responses) -> Self::Conn;

    /// Runs a control verb other than `ping`, `quit` and `shutdown`, after
    /// every earlier query on the connection was delivered. `value` is the
    /// parsed line.
    fn control(self: &Arc<Self>, id: &str, command: Command, value: &Value) -> String;
}

/// Where a connection's responses go: the writer's channel, and a count of
/// delivered queries that the control barrier and the teardown wait on.
#[derive(Clone)]
pub struct Responses {
    tx: Sender<(u64, Vec<u8>)>,
    delivered: Arc<(Mutex<u64>, Condvar)>,
}

impl Responses {
    /// Delivers the response to dispatched query `seq`, once per query. A
    /// failed send means the writer died with the client; the count still
    /// advances, or the barrier would wait forever.
    pub fn deliver(&self, seq: u64, bytes: Vec<u8>) {
        let _ = self.tx.send((seq, bytes));
        let (count, cv) = &*self.delivered;
        *count.lock().expect("delivery count poisoned") += 1;
        cv.notify_all();
    }

    fn wait(&self, dispatched: u64) {
        let (count, cv) = &*self.delivered;
        let mut done = count.lock().expect("delivery count poisoned");
        while *done < dispatched {
            done = cv.wait(done).expect("delivery count poisoned");
        }
    }
}

/// A listener's stop flag and the address that pokes its blocking accept.
pub struct Stop {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl Stop {
    /// Whether the accept loop was told to stop.
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Tells the accept loop to stop, and pokes it so it sees the flag.
    pub fn set(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound client-facing listener.
pub struct Listener {
    listener: TcpListener,
    stop: Arc<Stop>,
}

impl Listener {
    /// Binds to `addr` (`127.0.0.1:0` for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Listener { listener, stop: Arc::new(Stop { flag: AtomicBool::new(false), addr }) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// The stop flag, for threads that must end with the accept loop.
    pub fn stop(&self) -> &Arc<Stop> {
        &self.stop
    }

    /// Accepts connections until stopped (by [`Handle::shutdown`] or a
    /// client's `shutdown`), serving each on its own thread.
    pub fn serve<E: Endpoint>(self, endpoint: &Arc<E>) {
        for stream in self.listener.incoming() {
            if self.stop.is_set() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let (endpoint, stop) = (endpoint.clone(), self.stop.clone());
            std::thread::spawn(move || connection(stream, &endpoint, &stop));
        }
    }
}

/// Handle to an endpoint serving on a background thread.
pub struct Handle {
    stop: Arc<Stop>,
    join: JoinHandle<()>,
}

impl Handle {
    /// Runs `serve`, which ends in [`Listener::serve`] on the listener
    /// `stop` belongs to, on a background thread.
    pub fn spawn(stop: Arc<Stop>, serve: impl FnOnce() + Send + 'static) -> Handle {
        Handle { stop, join: std::thread::spawn(serve) }
    }

    /// The endpoint's address.
    pub fn addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// Stops the accept loop and joins the serving thread. Connections
    /// already open finish their in-flight work on their own threads.
    pub fn shutdown(self) {
        self.stop.set();
        let _ = self.join.join();
    }
}

/// One client connection, from the first line to the teardown.
fn connection<E: Endpoint>(stream: TcpStream, endpoint: &Arc<E>, stop: &Stop) {
    // No TCP_NODELAY: with it, pipelined `warm_hot` traffic measured a
    // higher p50 and more CPU per query than with Nagle coalescing bursts.
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let (tx, rx) = mpsc::channel();
    let writer = std::thread::spawn(move || write_in_order(stream, rx));
    let responses = Responses { tx, delivered: Arc::new((Mutex::new(0), Condvar::new())) };
    let mut conn = endpoint.open(responses.clone());

    let (mut seq, mut lineno, mut dispatched) = (0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    let mut quit = false;
    let mut stop_after_flush = false;
    while !quit {
        buf.clear();
        // A read error ends the connection like EOF: the teardown below
        // must run, or the dispatcher's threads would leak.
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        lineno += 1;
        let line = buf.trim_ascii();
        if line.is_empty() {
            continue; // blank lines get no response, like `xknn batch`
        }
        let default_id = lineno.to_string();
        let response = match proto::parse_line_value(line, &default_id) {
            Err(e) => proto::error_line(&default_id, &format!("line {lineno}: {e}")),
            Ok((parsed, value)) => match parsed.command {
                Command::Query { dataset, request } => {
                    let trace = match value.get("trace") {
                        Some(Value::String(s)) if !s.is_empty() => Some(s.clone()),
                        _ => None,
                    };
                    let q = Query { seq, lineno, line, value: &value, dataset, request, trace };
                    match conn.dispatch(q) {
                        Ok(()) => {
                            dispatched += 1;
                            seq += 1;
                            continue;
                        }
                        Err(line) => line,
                    }
                }
                command => {
                    // Barrier: a control verb runs only after every earlier
                    // query on this connection was delivered, so pipelined
                    // `stats` counters, mutations and `quit` are
                    // deterministic with respect to the requests before them.
                    responses.wait(dispatched);
                    let flag = |name: &str| vec![(name.to_string(), Value::Bool(true))];
                    match command {
                        Command::Ping => proto::ok_line(&parsed.id, flag("pong")),
                        Command::Quit => {
                            quit = true;
                            proto::ok_line(&parsed.id, flag("bye"))
                        }
                        // Closes this connection now, but stops the accept
                        // loop only after the response is flushed, so the
                        // requester hears back before the process exits.
                        Command::Shutdown => {
                            (quit, stop_after_flush) = (true, true);
                            proto::ok_line(&parsed.id, flag("shutdown"))
                        }
                        command => endpoint.control(&parsed.id, command, &value),
                    }
                }
            },
        };
        let _ = responses.tx.send((seq, response.into_bytes()));
        seq += 1;
    }

    // Teardown: every dispatched query is delivered, the dispatcher lets go
    // of its `Responses`, and the writer flushes out once the last sender
    // is gone.
    responses.wait(dispatched);
    conn.close();
    drop(responses);
    let _ = writer.join();
    if stop_after_flush {
        stop.set();
    }
}

/// The response writer: receives `(seq, bytes)` in completion order and
/// writes in request order. One flush per drained burst, not per line: an
/// out-of-order completion can release several consecutive slots at once,
/// and the client must not wait on a buffered tail.
fn write_in_order(stream: TcpStream, rx: Receiver<(u64, Vec<u8>)>) {
    let mut out = BufWriter::new(stream);
    let mut next = 0u64;
    let mut pending: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for (seq, line) in rx {
        pending.insert(seq, line);
        let mut wrote = false;
        while let Some(line) = pending.remove(&next) {
            if out.write_all(&line).and_then(|()| out.write_all(b"\n")).is_err() {
                return; // client gone; drop the rest
            }
            wrote = true;
            next += 1;
        }
        if wrote && out.flush().is_err() {
            return;
        }
    }
}
