//! The served system under test: `xknn serve` or `xknn router --spawn 2`
//! child processes, their control connection, and their `/proc` counters.

use knn_engine::json::{parse, Value};
use knn_server::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux ABI the toolchain targets).
const TICKS_PER_S: f64 = 100.0;

/// A running server or router (plus the router's spawned backends).
pub struct Served {
    child: Option<Child>,
    /// The address clients connect to.
    pub addr: SocketAddr,
    /// Every process that serves: the server, or the router and backends.
    pub pids: Vec<u32>,
    /// Direct backend addresses behind a router (empty for a plain server).
    pub backends: Vec<SocketAddr>,
    control: Client,
}

impl Served {
    /// Launches `xknn serve` (or `xknn router --spawn <backends>`) on an
    /// ephemeral port and waits for its `listening on` banner.
    pub fn launch(xknn: &Path, router_backends: Option<usize>) -> Result<Served, String> {
        let mut cmd = Command::new(xknn);
        match router_backends {
            None => cmd.args(["serve", "--addr", "127.0.0.1:0"]),
            Some(n) => cmd.args(["router", "--addr", "127.0.0.1:0", "--spawn", &n.to_string()]),
        };
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", xknn.display()))?;
        let mut banner = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut banner);
        let addr = read
            .ok()
            .and_then(|_| banner.trim().strip_prefix("listening on ").map(str::to_string))
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected banner from xknn: {banner:?}"));
        };
        let control = Client::connect(addr).map_err(|e| format!("control connect: {e}"))?;
        let mut served = Served {
            pids: vec![child.id()],
            child: Some(child),
            addr,
            backends: Vec::new(),
            control,
        };
        if router_backends.is_some() {
            let stats = served.stats()?;
            for b in stats.get("backends").and_then(Value::as_array).unwrap_or(&[]) {
                let a = b.get("addr").and_then(Value::as_str).unwrap_or("");
                served.backends.push(a.parse().map_err(|_| format!("bad backend addr `{a}`"))?);
            }
            let router = served.pids[0];
            served.pids.extend(children_of(router));
            if served.pids.len() != 1 + router_backends.unwrap_or(0) {
                return Err(format!("router backends not found in /proc: {:?}", served.pids));
            }
        }
        Ok(served)
    }

    /// One control round-trip; errors unless the answer is `"ok":true`.
    pub fn control(&mut self, line: &str) -> Result<Value, String> {
        let resp = self.control.roundtrip(line).map_err(|e| format!("control: {e}"))?;
        let v = parse(&resp)?;
        match v.get("ok") {
            Some(Value::Bool(true)) => Ok(v),
            _ => Err(format!("control verb failed: {resp}")),
        }
    }

    /// Loads a tenant from inline text.
    pub fn load(&mut self, name: &str, text: &str) -> Result<(), String> {
        let line = Value::Object(vec![
            ("verb".into(), Value::String("load".into())),
            ("name".into(), Value::String(name.into())),
            ("text".into(), Value::String(text.into())),
        ])
        .to_json();
        self.control(&line).map(|_| ())
    }

    /// The `stats` verb.
    pub fn stats(&mut self) -> Result<Value, String> {
        self.control(r#"{"verb":"stats"}"#)
    }

    /// The `metrics` verb's exposition text.
    pub fn metrics(&mut self) -> Result<String, String> {
        let v = self.control(r#"{"verb":"metrics"}"#)?;
        Ok(v.get("metrics").and_then(Value::as_str).unwrap_or("").to_string())
    }

    /// CPU seconds (user + system) used so far by every serving process.
    pub fn cpu_s(&self) -> f64 {
        self.pids.iter().map(|&p| cpu_ticks(p) as f64 / TICKS_PER_S).sum()
    }

    /// Summed peak resident set (`VmHWM`) of every serving process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids.iter().map(|&p| status_kb(p, "VmHWM:") as f64 / 1024.0).sum()
    }

    /// Stops the processes (protocol `shutdown`, then kill) and waits until
    /// every one of them has exited.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(mut child) = self.child.take() else { return };
        let _ = self.control.send(r#"{"verb":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = child.kill();
        let _ = child.wait();
        // A router stops its spawned backends on shutdown; make sure, since
        // they are not our children and cannot be waited for.
        for &pid in &self.pids[1..] {
            let gone = || !Path::new(&format!("/proc/{pid}")).exists() || is_zombie(pid);
            let deadline = Instant::now() + Duration::from_secs(3);
            while !gone() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            if !gone() {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                while !gone() {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The fields of `/proc/<pid>/stat` after the parenthesized command name.
fn stat_fields(pid: u32) -> Vec<String> {
    let s = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let rest = s.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace().map(str::to_string).collect()
}

fn is_zombie(pid: u32) -> bool {
    stat_fields(pid).first().is_some_and(|s| s == "Z")
}

/// utime + stime of `pid`, in clock ticks (fields 14 and 15 of `stat`).
fn cpu_ticks(pid: u32) -> u64 {
    let f = stat_fields(pid);
    let at = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    at(11) + at(12)
}

/// A `kB` field of `/proc/<pid>/status`.
fn status_kb(pid: u32, key: &str) -> u64 {
    let s = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Live processes whose parent is `parent`.
fn children_of(parent: u32) -> Vec<u32> {
    let mut out: Vec<u32> = std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| stat_fields(pid).get(1).and_then(|p| p.parse::<u32>().ok()) == Some(parent))
        .collect();
    out.sort_unstable();
    out
}

/// The sum of every sample of metric family `name` in an exposition text.
pub fn exposition_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(name).is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}
