//! A small blocking client for the server's JSON-lines protocol — the
//! library behind `xknn client`, the integration tests, and the
//! `server_throughput` bench.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One TCP connection speaking the [`crate::proto`] protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Client::from_stream(stream)
    }

    /// Wraps an already-connected stream.
    fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }

    /// [`connect_stream_retry`], wrapped as a [`Client`].
    pub fn connect_retry<A: ToSocketAddrs>(
        addr: A,
        attempts: u32,
        backoff: std::time::Duration,
    ) -> std::io::Result<Client> {
        Client::from_stream(connect_stream_retry(addr, attempts, backoff)?)
    }

    /// Bounds every later [`recv`](Client::recv) by `timeout` (`None`: wait
    /// forever, the default). A read that times out fails with
    /// `WouldBlock`/`TimedOut`; the connection may then hold a late reply,
    /// so the caller should drop it.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request line (the newline is added here).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Receives one response line; `None` when the server closed the
    /// connection.
    pub fn recv(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// One request, one response.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// Pipelines a whole JSON-lines stream: all requests are written from a
    /// background thread while responses stream back, so large batches cannot
    /// deadlock on full TCP buffers. Returns one response per non-blank
    /// request line, in request order.
    pub fn run_stream(&mut self, input: &str) -> std::io::Result<Vec<String>> {
        // ASCII trim to mirror the server's blank-line rule exactly: a line
        // of Unicode-only whitespace (NBSP, vertical tab) *does* get a
        // response, and miscounting it would desynchronize the stream.
        let expected = input.lines().filter(|l| !l.as_bytes().trim_ascii().is_empty()).count();
        let mut writer = self.writer.try_clone()?;
        let payload = normalized(input);
        let send = std::thread::spawn(move || writer.write_all(payload.as_bytes()));
        let mut out = Vec::with_capacity(expected);
        while out.len() < expected {
            match self.recv()? {
                Some(line) => out.push(line),
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!("server closed after {} of {expected} responses", out.len()),
                    ))
                }
            }
        }
        send.join()
            .map_err(|_| std::io::Error::other("send thread panicked"))?
            .map_err(|e| std::io::Error::other(format!("send failed: {e}")))?;
        Ok(out)
    }
}

/// Dials with bounded retry and exponential backoff: up to `attempts`
/// tries, sleeping `backoff` (doubling, capped at 500 ms) between them,
/// `TCP_NODELAY` set on success. Closes the race where a freshly spawned
/// server has announced its address but the listener loses to the client in
/// the scheduler — the window `xknn client` and every cluster-router dial
/// (control and data channels both) would otherwise hit on backend start.
pub fn connect_stream_retry<A: ToSocketAddrs>(
    addr: A,
    attempts: u32,
    mut backoff: std::time::Duration,
) -> std::io::Result<TcpStream> {
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(&addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
        if attempt + 1 < attempts.max(1) {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(std::time::Duration::from_millis(500));
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("no connection attempts made")))
}

/// `input` with every line newline-terminated (so a missing trailing newline
/// cannot leave the last request sitting unread in the server's buffer).
fn normalized(input: &str) -> String {
    let mut s = String::with_capacity(input.len() + 1);
    for line in input.lines() {
        s.push_str(line);
        s.push('\n');
    }
    s
}
