//! The closed-loop client: one connection, a fixed window of requests in
//! flight, the next request written only when a response comes back.

use crate::workload::{Op, Source};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one connection did in its measured phase.
pub struct ClientRun {
    /// Every operation sent, in stream order.
    pub ops: Vec<Op>,
    /// Client-side latency of each operation (written → response read), ns.
    pub lat_ns: Vec<u64>,
    /// The response of each operation whose expected line was not known
    /// in advance (checked afterwards against the oracle).
    pub served: Vec<Option<String>>,
    /// Operations whose expected line was known and did not match.
    pub failures: Vec<String>,
    /// When the last response arrived.
    pub end: Instant,
}

/// A connected client, ready to start.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with Nagle off (each request line is one segment).
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: stream })
    }

    fn send(&mut self, buf: &mut Vec<u8>, line: &str) -> Result<(), String> {
        buf.clear();
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(buf).map_err(|e| format!("write: {e}"))
    }

    fn recv(&mut self, line: &mut String) -> Result<(), String> {
        line.clear();
        match self.reader.read_line(line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Pipelines `ops` (all of them, `window` deep) and returns the
    /// responses in order — the warm-up and the sequential probes.
    pub fn pipeline(&mut self, ops: &[&str], window: usize) -> Result<Vec<String>, String> {
        let (mut buf, mut line) = (Vec::new(), String::new());
        let mut out = Vec::with_capacity(ops.len());
        let mut sent = 0;
        while out.len() < ops.len() {
            while sent < ops.len() && sent - out.len() < window {
                self.send(&mut buf, ops[sent])?;
                sent += 1;
            }
            self.recv(&mut line)?;
            out.push(line.clone());
        }
        Ok(out)
    }

    /// `n` sequential round-trips of `line`; returns each in µs.
    pub fn rtts_us(&mut self, line: &str, n: usize) -> Result<Vec<f64>, String> {
        let (mut buf, mut resp) = (Vec::new(), String::new());
        (0..n)
            .map(|_| {
                let t0 = Instant::now();
                self.send(&mut buf, line)?;
                self.recv(&mut resp)?;
                Ok(t0.elapsed().as_nanos() as f64 / 1e3)
            })
            .collect()
    }

    /// Runs the closed loop from `start` until `seconds` after it, then
    /// drains.
    pub fn closed_loop(
        mut self,
        source: &mut Source<'_>,
        window: usize,
        start: Instant,
        seconds: f64,
    ) -> Result<ClientRun, String> {
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut run = ClientRun {
            ops: Vec::new(),
            lat_ns: Vec::new(),
            served: Vec::new(),
            failures: Vec::new(),
            end: start,
        };
        let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
        let (mut buf, mut line) = (Vec::with_capacity(512), String::with_capacity(512));
        let mut send_next = |conn: &mut Conn, run: &mut ClientRun, inflight: &mut VecDeque<_>| {
            let op = source.next_op()?;
            conn.send(&mut buf, &op.line)?;
            inflight.push_back((run.ops.len(), Instant::now()));
            run.ops.push(op);
            Ok::<(), String>(())
        };
        while inflight.len() < window {
            send_next(&mut self, &mut run, &mut inflight)?;
        }
        run.lat_ns.resize(window, 0);
        run.served.resize(window, None);
        while let Some((i, t0)) = inflight.pop_front() {
            self.recv(&mut line)?;
            let now = Instant::now();
            run.lat_ns[i] = now.duration_since(t0).as_nanos() as u64;
            match &run.ops[i].expected {
                Some(e) if *e != line => {
                    run.failures.push(format!("op {i}: served {line} but expected {e}"))
                }
                Some(_) => {}
                None => run.served[i] = Some(line.clone()),
            }
            run.end = now;
            if now < deadline {
                send_next(&mut self, &mut run, &mut inflight)?;
                run.lat_ns.push(0);
                run.served.push(None);
            }
        }
        Ok(run)
    }
}
