//! `xknn serve` and `xknn router` share one connection frame
//! (`knn_server::frame`): the same client bytes get the same response bytes
//! from both, and both end a connection the same way — on a half-close
//! after every response, on `quit` after the `bye` line.

use knn_cluster::{LoadSource, Router, RouterConfig};
use knn_server::{Handle, Server, ServerConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

const BOOL: &str = "+ 1 1 1\n+ 1 1 0\n- 0 0 0\n- 0 0 1\n";
const VALID: &[u8] =
    br#"{"dataset":"toy","id":"ok","cmd":"classify","metric":"hamming","point":[1,1,1]}"#;
const NO_ID: &[u8] = br#"{"dataset":"toy","cmd":"classify","metric":"hamming","point":[0,0,1]}"#;
const UNKNOWN: &[u8] = br#"{"dataset":"nope","cmd":"classify","metric":"hamming","point":[1,1,1]}"#;

/// A server, and a router whose one backend is that server. Loading `toy`
/// through the router places it on the server, so both endpoints hold it.
fn endpoints() -> (Handle, Handle) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn();
    let router = Router::bind("127.0.0.1:0", RouterConfig::default()).unwrap();
    router.attach(server.addr());
    router.load("toy", LoadSource::Text(BOOL), None).unwrap();
    (server, router.spawn())
}

/// Writes `input` in one write, half-closes, and returns every byte the
/// endpoint answers before EOF. One small write lands in the endpoint's read
/// buffer whole, so a connection closed by `quit` leaves no unread bytes in
/// the kernel, and the close is a FIN rather than a reset.
fn exchange(addr: SocketAddr, input: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(input).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("the endpoint answers, then closes");
    out
}

/// Bytes for one wire line: anything but the newline delimiter itself (the
/// lines `prop_malformed` sends a server).
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

/// Mostly arbitrary bytes, with blank lines, valid `toy` queries (one whose
/// `id` defaults to its line number) and a query for an unknown tenant mixed
/// in.
fn client_line() -> impl Strategy<Value = Vec<u8>> {
    (0u8..9, line_strategy()).prop_map(|(kind, bytes)| match kind {
        0 => Vec::new(),
        1 => b" \t\r".to_vec(),
        2 => VALID.to_vec(),
        3 => NO_ID.to_vec(),
        4 => UNKNOWN.to_vec(),
        _ => bytes,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn server_and_router_answer_arbitrary_client_bytes_alike(
        lines in prop::collection::vec(client_line(), 1..16)
    ) {
        let (server, router) = endpoints();
        let input: Vec<u8> = lines.iter().flat_map(|l| l.iter().copied().chain([b'\n'])).collect();
        let from_server = exchange(server.addr(), &input);
        let from_router = exchange(router.addr(), &input);
        prop_assert_eq!(
            String::from_utf8_lossy(&from_server),
            String::from_utf8_lossy(&from_router)
        );
        let answered = lines.iter().filter(|l| !l.trim_ascii().is_empty()).count();
        prop_assert_eq!(from_server.iter().filter(|&&b| b == b'\n').count(), answered);
        router.shutdown();
        server.shutdown();
    }
}

/// `n` pipelined `toy` queries `q0..`, mixing operations so that a pool of
/// workers completes them out of order.
fn queries(n: usize) -> Vec<String> {
    let cmds = ["classify", "counterfactual", "minimal-sr"];
    (0..n)
        .map(|i| {
            format!(
                r#"{{"dataset":"toy","id":"q{i}","cmd":"{}","metric":"hamming","point":[{},{},{}]}}"#,
                cmds[i % 3],
                i % 2,
                (i / 2) % 2,
                (i / 4) % 2
            )
        })
        .collect()
}

fn ids(out: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(out).unwrap();
    text.lines().map(|l| l.split('"').nth(3).unwrap().to_string()).collect()
}

#[test]
fn half_close_gets_every_response_in_order_then_eof() {
    let (server, router) = endpoints();
    let input = queries(40).join("\n") + "\n";
    let from_server = exchange(server.addr(), input.as_bytes());
    let want: Vec<String> = (0..40).map(|i| format!("q{i}")).collect();
    assert_eq!(ids(&from_server), want);
    assert_eq!(exchange(router.addr(), input.as_bytes()), from_server);
    router.shutdown();
    server.shutdown();
}

#[test]
fn quit_mid_pipeline_answers_the_lines_before_it_then_eof() {
    let (server, router) = endpoints();
    let mut lines = queries(20);
    lines.insert(12, r#"{"id":"bye","verb":"quit"}"#.to_string());
    let input = lines.join("\n") + "\n";
    let from_server = exchange(server.addr(), input.as_bytes());
    let text = String::from_utf8(from_server.clone()).unwrap();
    let mut want: Vec<String> = (0..12).map(|i| format!("q{i}")).collect();
    want.push("bye".into());
    assert_eq!(ids(&from_server), want);
    assert!(text.ends_with("{\"id\":\"bye\",\"ok\":true,\"bye\":true}\n"), "{text}");
    assert_eq!(exchange(router.addr(), input.as_bytes()), from_server);
    router.shutdown();
    server.shutdown();
}
