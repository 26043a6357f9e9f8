//! Robustness property: a live server fed *arbitrary bytes* — invalid UTF-8,
//! truncated JSON, binary garbage — answers every non-blank line with an
//! error (or valid) JSON response, never drops the connection, and never dies.
//! The peer controls every byte on the wire; the server's parse path must be
//! total.

use knn_server::{Client, Server, ServerConfig};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;

const BOOL: &str = "+ 1 1 1\n+ 1 1 0\n- 0 0 0\n- 0 0 1\n";

fn spawn() -> knn_server::Handle {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    server.registry().load("toy", BOOL).unwrap();
    server.spawn()
}

/// Bytes for one wire line: anything but the newline delimiter itself.
fn line_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 1..60).prop_map(|mut bytes| {
        for b in &mut bytes {
            if *b == b'\n' {
                *b = b'{';
            }
        }
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_never_kill_the_connection(lines in prop::collection::vec(line_strategy(), 1..12)) {
        let handle = spawn();

        // Raw socket: the Client type is string-based, and this test is
        // exactly about the bytes a well-behaved client would never send.
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let expected: usize = lines
            .iter()
            .filter(|l| l.iter().any(|b| !b.is_ascii_whitespace()))
            .count();
        for line in &lines {
            stream.write_all(line).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        for i in 0..expected {
            use std::io::BufRead;
            let mut resp = Vec::new();
            let n = reader.read_until(b'\n', &mut resp).unwrap();
            prop_assert!(n > 0, "connection died after {i} of {expected} responses");
            let parsed = knn_engine::json::parse_bytes(&resp[..resp.len() - 1]);
            prop_assert!(parsed.is_ok(), "response is not JSON: {resp:?}");
        }

        // The same connection still serves valid queries afterwards.
        stream
            .write_all(b"{\"dataset\":\"toy\",\"id\":\"ok\",\"cmd\":\"classify\",\"metric\":\"hamming\",\"point\":[1,1,1]}\n")
            .unwrap();
        use std::io::BufRead;
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        prop_assert!(resp.contains("\"label\":\"+\""), "survivor query failed: {resp}");

        // And the *server* still accepts fresh connections (it never died).
        let mut probe = Client::connect(handle.addr()).unwrap();
        let pong = probe.roundtrip("{\"verb\":\"ping\"}").unwrap();
        prop_assert!(pong.contains("\"pong\":true"), "{pong}");

        handle.shutdown();
    }
}
