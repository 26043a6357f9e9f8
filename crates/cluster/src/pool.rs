//! The backend pool: the `knn-server` processes the router fans out to.
//!
//! A backend is either **attached** (a server someone else runs, named by
//! address) or **spawned** (an `xknn serve` child process the router starts
//! on an ephemeral port and owns — it is shut down with the router, and on
//! Linux it is also sent `SIGTERM` when the router process dies, however it
//! dies). Each backend carries:
//!
//! * a **health flag** — consulted at dispatch time. It is cleared the moment
//!   any router thread sees the backend's TCP fail (connect, send, or
//!   receive, or a control reply later than [`CONTROL_DEADLINE`]), and set
//!   again when a health probe gets an `"ok":true` `stats` response.
//!   Placement never looks at it (see [`crate::placement`]);
//! * a **control connection** — a dedicated client the router uses for
//!   `load`/`unload` and mutation fan-out, cache fills, `stats`
//!   aggregation, and probes, so control traffic never interleaves with a
//!   client's pipelined query stream. [`Backend::ask`] is the only code that
//!   talks on it: one line out, one reply in, sorted into ok, refused and
//!   failed;
//! * the **probe counters** the cluster `stats` verb reports.
//!
//! The probe loop runs on its own thread (started by the router) and is the
//! mark-*up* path: data-path errors only ever mark a backend down.

use knn_engine::json::{parse_bytes, Value};
use knn_server::Client;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How patiently the router dials a backend (covers the spawn race where the
/// child announced its port but its accept loop isn't scheduled yet).
pub const CONNECT_ATTEMPTS: u32 = 5;
/// First retry backoff for backend dials (doubles per attempt, capped by
/// [`Client::connect_retry`]).
pub const CONNECT_BACKOFF: Duration = Duration::from_millis(20);
/// How long [`Backend::ask`] waits for a backend's reply to one control
/// line. A backend that accepts and then stays silent fails the exchange
/// after this long instead of stalling the probe loop and holding the
/// router's control-plane lock forever. The query data channel has no
/// such deadline: one Hamming minimum-SR query may run for seconds.
pub const CONTROL_DEADLINE: Duration = Duration::from_secs(10);

/// Why [`Backend::ask`] got no `"ok":true` reply.
#[derive(Debug)]
pub enum AskError {
    /// The backend answered, but not `"ok":true`: its `error` text.
    Refused(String),
    /// No parseable reply: the dial or roundtrip failed (the backend is
    /// marked down) or the reply was not JSON.
    Failed(String),
}

impl AskError {
    /// The error text, whichever way the exchange failed.
    pub fn message(self) -> String {
        match self {
            AskError::Refused(m) | AskError::Failed(m) => m,
        }
    }
}

/// One backend server (see module docs).
pub struct Backend {
    /// Position in the pool — the id placement hashes over.
    pub id: usize,
    /// The backend's TCP address.
    pub addr: SocketAddr,
    healthy: AtomicBool,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
    control: Mutex<Option<Client>>,
    child: Mutex<Option<Child>>,
}

/// A point-in-time snapshot of one backend (for the cluster `stats` verb).
#[derive(Clone, Debug)]
pub struct BackendSnapshot {
    /// Pool id.
    pub id: usize,
    /// Address.
    pub addr: SocketAddr,
    /// Dispatchable right now?
    pub healthy: bool,
    /// Probes answered.
    pub probes_ok: u64,
    /// Probes failed.
    pub probes_failed: u64,
    /// Was this backend spawned (and thus owned) by the router?
    pub spawned: bool,
}

impl Backend {
    fn new(id: usize, addr: SocketAddr, child: Option<Child>) -> Backend {
        Backend {
            id,
            addr,
            healthy: AtomicBool::new(true),
            probes_ok: AtomicU64::new(0),
            probes_failed: AtomicU64::new(0),
            control: Mutex::new(None),
            child: Mutex::new(child),
        }
    }

    /// Is this backend currently dispatchable?
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// Marks the backend down (any router thread that observes a TCP failure
    /// calls this; the probe loop marks it up again once it answers).
    pub fn mark_down(&self) {
        self.healthy.store(false, Ordering::Relaxed);
    }

    /// Marks the backend up (probe-loop only).
    pub fn mark_up(&self) {
        self.healthy.store(true, Ordering::Relaxed);
    }

    /// The one control conversation with this backend: sends `line` on the
    /// control connection, (re)dialing it if needed, and reads the reply
    /// within [`CONTROL_DEADLINE`]. An `"ok":true` reply comes back parsed;
    /// any other parsed reply is a [`AskError::Refused`] carrying the
    /// backend's `error` text. A dial or roundtrip failure (the deadline
    /// included) drops the connection and marks the backend down, so the
    /// next caller redials; an unparseable reply is a failure too, but
    /// leaves the backend's health alone.
    pub fn ask(&self, line: &str) -> Result<Value, AskError> {
        let mut guard = self.control.lock().unwrap();
        if guard.is_none() {
            let dialed = Client::connect_retry(self.addr, CONNECT_ATTEMPTS, CONNECT_BACKOFF)
                .and_then(|c| c.set_read_timeout(Some(CONTROL_DEADLINE)).map(|()| c));
            match dialed {
                Ok(c) => *guard = Some(c),
                Err(e) => {
                    self.mark_down();
                    return Err(AskError::Failed(format!(
                        "backend {} unreachable: {e}",
                        self.addr
                    )));
                }
            }
        }
        let resp = match guard.as_mut().expect("dialed above").roundtrip(line) {
            Ok(resp) => resp,
            Err(e) => {
                *guard = None;
                self.mark_down();
                return Err(AskError::Failed(format!("backend {} failed: {e}", self.addr)));
            }
        };
        drop(guard);
        match parse_bytes(resp.as_bytes()) {
            Ok(v) if v.get("ok") == Some(&Value::Bool(true)) => Ok(v),
            Ok(v) => Err(AskError::Refused(
                v.get("error").and_then(Value::as_str).unwrap_or("backend refused").to_string(),
            )),
            Err(e) => Err(AskError::Failed(format!("unparseable backend response: {e}"))),
        }
    }

    /// Health probe: a `stats` [`ask`](Backend::ask). An `"ok":true` reply
    /// marks the backend up; anything else marks it down.
    pub fn probe(&self) -> bool {
        let ok = self.ask(r#"{"id":"probe","verb":"stats"}"#).is_ok();
        if ok {
            self.probes_ok.fetch_add(1, Ordering::Relaxed);
            self.mark_up();
        } else {
            self.probes_failed.fetch_add(1, Ordering::Relaxed);
            self.mark_down();
        }
        ok
    }

    /// Snapshot for the cluster `stats` verb.
    pub fn snapshot(&self) -> BackendSnapshot {
        BackendSnapshot {
            id: self.id,
            addr: self.addr,
            healthy: self.is_healthy(),
            probes_ok: self.probes_ok.load(Ordering::Relaxed),
            probes_failed: self.probes_failed.load(Ordering::Relaxed),
            spawned: self.child.lock().unwrap().is_some(),
        }
    }
}

/// The router's fixed-at-serve-time set of backends.
#[derive(Default)]
pub struct BackendPool {
    backends: Mutex<Vec<Arc<Backend>>>,
}

impl BackendPool {
    /// An empty pool.
    pub fn new() -> BackendPool {
        BackendPool::default()
    }

    /// Registers an already-running server by address.
    pub fn attach(&self, addr: SocketAddr) -> Arc<Backend> {
        let mut backends = self.backends.lock().unwrap();
        let backend = Arc::new(Backend::new(backends.len(), addr, None));
        backends.push(backend.clone());
        backend
    }

    /// Spawns `xknn serve --addr 127.0.0.1:0 <extra_args>` as a child
    /// process, reads the `listening on <addr>` banner from its stdout, and
    /// registers it. The child is owned: [`BackendPool::shutdown_spawned`]
    /// stops it with the router, and on Linux the kernel sends it `SIGTERM`
    /// when the spawning thread exits (see [`die_with_parent`]) — for the
    /// `xknn router` binary, which spawns from its main thread, when the
    /// router process dies, `SIGTERM` and `SIGKILL` included.
    pub fn spawn(
        &self,
        xknn: &std::path::Path,
        extra_args: &[String],
    ) -> std::io::Result<Arc<Backend>> {
        let mut command = Command::new(xknn);
        command
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        #[cfg(target_os = "linux")]
        {
            use std::os::unix::process::CommandExt as _;
            let router = std::process::id();
            // SAFETY: the hook runs in the forked child before `exec` and
            // makes only async-signal-safe calls (`prctl`, `getppid`); it
            // does not allocate.
            unsafe { command.pre_exec(move || die_with_parent(router)) };
        }
        let mut child = command.spawn()?;
        let mut banner = String::new();
        let read = {
            use std::io::BufRead;
            let stdout = child.stdout.take().expect("stdout is piped");
            std::io::BufReader::new(stdout).read_line(&mut banner)
        };
        let addr: Option<SocketAddr> = read
            .ok()
            .and_then(|_| banner.trim().strip_prefix("listening on "))
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            // A child that crashed before binding (failed banner read) or
            // printed something unexpected must not be orphaned (kill) nor
            // left a zombie (wait reaps it).
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!("unexpected serve banner: {banner:?}")));
        };
        let mut backends = self.backends.lock().unwrap();
        let backend = Arc::new(Backend::new(backends.len(), addr, Some(child)));
        backends.push(backend.clone());
        Ok(backend)
    }

    /// Every backend, in id order.
    pub fn backends(&self) -> Vec<Arc<Backend>> {
        self.backends.lock().unwrap().clone()
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.backends.lock().unwrap().len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The backend with pool id `id`.
    pub fn get(&self, id: usize) -> Option<Arc<Backend>> {
        self.backends.lock().unwrap().get(id).cloned()
    }

    /// Stops every spawned child: ask politely over the protocol, then make
    /// sure with a kill (covers a child wedged past its accept loop), then
    /// reap. Attached backends are left alone — the router does not own them.
    pub fn shutdown_spawned(&self) {
        for b in self.backends() {
            let mut child = b.child.lock().unwrap();
            if let Some(mut c) = child.take() {
                let _ = b.ask(r#"{"id":"bye","verb":"shutdown"}"#);
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
}

/// `prctl(PR_SET_PDEATHSIG, SIGTERM)` in a freshly forked child: the
/// kernel signals the child when the thread that forked it exits, which
/// covers a router killed by a signal, where no `Drop` runs. A router that
/// died between the fork and this call would never signal, so the child
/// checks that it is still `router`'s and otherwise fails the spawn.
#[cfg(target_os = "linux")]
fn die_with_parent(router: u32) -> std::io::Result<()> {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGTERM: c_ulong = 15;
    const ESRCH: i32 = 3;
    // SAFETY: PR_SET_PDEATHSIG takes one integer argument, the signal.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGTERM) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    if std::os::unix::process::parent_id() != router {
        return Err(std::io::Error::from_raw_os_error(ESRCH));
    }
    Ok(())
}

impl Drop for BackendPool {
    fn drop(&mut self) {
        self.shutdown_spawned();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_server::{Server, ServerConfig};

    #[test]
    fn attach_probe_and_mark_down_up() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let handle = server.spawn();
        let pool = BackendPool::new();
        let b = pool.attach(handle.addr());
        assert_eq!((b.id, pool.len()), (0, 1));
        assert!(b.is_healthy());
        assert!(b.probe(), "live server answers the probe");
        assert_eq!(b.snapshot().probes_ok, 1);

        b.mark_down();
        assert!(!b.is_healthy());
        assert!(b.probe(), "probe marks a live backend up again");
        assert!(b.is_healthy());
        handle.shutdown();
    }

    #[test]
    fn dead_backend_fails_probe_and_stays_down() {
        // Bind-then-drop: an address with nothing listening.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let pool = BackendPool::new();
        let b = pool.attach(addr);
        assert!(!b.probe());
        assert!(!b.is_healthy());
        assert_eq!(b.snapshot().probes_failed, 1);
    }

    /// A backend that accepts the control connection and never answers
    /// fails the exchange once the deadline passes (not never), and is
    /// marked down like any other failed roundtrip.
    #[test]
    fn silent_backend_fails_ask_within_the_deadline() {
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = silent.local_addr().unwrap();
        std::thread::spawn(move || {
            // Hold every accepted socket open without writing a byte.
            let held: Vec<_> = silent.incoming().map_while(Result::ok).collect();
            drop(held);
        });
        let pool = BackendPool::new();
        let b = pool.attach(addr);
        let (tx, rx) = std::sync::mpsc::channel();
        let asker = b.clone();
        std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let reply = asker.ask(r#"{"id":"probe","verb":"stats"}"#);
            let _ = tx.send((reply, start.elapsed()));
        });
        let (reply, waited) =
            rx.recv_timeout(2 * CONTROL_DEADLINE).expect("ask still blocked at twice the deadline");
        assert!(matches!(reply, Err(AskError::Failed(_))), "{reply:?}");
        assert!(waited >= CONTROL_DEADLINE, "gave up before the deadline: {waited:?}");
        assert!(!b.is_healthy(), "a silent backend is marked down");
    }
}
