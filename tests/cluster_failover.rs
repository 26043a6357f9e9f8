//! Failover property, end to end over real processes: a tenant replicated
//! on two `xknn serve` backend processes, one of which is **killed
//! mid-stream** — the router's merged output must still be byte-identical
//! to the single-server oracle (pending queries on the dead replica are
//! retried on the survivor; order is restored by the seq merge).

use explainable_knn::cluster::{LoadSource, Router, RouterConfig};
use explainable_knn::engine::{textfmt, EngineConfig, ExplanationEngine, Request};
use explainable_knn::server::Client;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BOOL: &str = "+ 1 1 1 0 0\n+ 1 1 0 0 0\n+ 1 0 1 0 0\n- 0 0 0 1 1\n- 0 0 1 1 1\n- 0 1 0 1 1\n";

/// Spawns a bare `xknn serve` backend process on an ephemeral port.
fn spawn_backend() -> (Child, std::net::SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xknn"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("xknn serve starts");
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .parse()
        .unwrap();
    (child, addr)
}

/// A query stream long enough that the kill lands while queries are in
/// flight on both replicas. Every tenth line carries a client trace id —
/// tracing is strictly out-of-band, so the oracle comparison below pins
/// that the propagated (and router-stripped) id never changes a response
/// byte. Untraced lines are fair game for router-minted trace splices
/// (the sampler fires on the first query per connection), covered by the
/// same byte comparison.
fn request_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for i in 0..160u32 {
        let bits: Vec<String> = (0..5).map(|b| ((i >> b) & 1).to_string()).collect();
        let cmd = match i % 4 {
            0 => "minimal-sr",
            1 => "counterfactual",
            _ => "classify",
        };
        let k = if i % 3 == 0 { 3 } else { 1 };
        let trace = if i % 10 == 0 { format!(r#""trace":"t-{i}","#) } else { String::new() };
        lines.push(format!(
            r#"{{{trace}"dataset":"hot","id":"q{i}","cmd":"{cmd}","metric":"hamming","k":{k},"point":[{}]}}"#,
            bits.join(",")
        ));
    }
    lines
}

#[test]
fn killing_one_of_two_replicas_mid_stream_keeps_bytes_identical_to_the_oracle() {
    let (mut victim, victim_addr) = spawn_backend();
    let (mut survivor, survivor_addr) = spawn_backend();

    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig { replication: 0, probe_interval: Duration::from_millis(100) },
    )
    .unwrap();
    router.attach(victim_addr);
    router.attach(survivor_addr);
    router.load("hot", LoadSource::Text(BOOL), None).unwrap();
    let handle = router.spawn();

    let lines = request_lines();
    let expected: Vec<String> = {
        let engine =
            ExplanationEngine::new(textfmt::parse_dataset(BOOL).unwrap(), EngineConfig::default());
        lines
            .iter()
            .map(|l| engine.run(&Request::from_json_line(l, "oracle").unwrap()).to_json_line())
            .collect()
    };

    // Pipeline the whole batch, then kill the victim *before* reading a
    // single response: the batch is still in flight, so the victim dies
    // holding queued queries the router must drain and retry on the
    // survivor. (Killing after N reads is a race — pipelined queries all
    // complete around the same time, so by the Nth read the whole batch
    // may already be done and the kill would land on an idle backend.)
    let mut client = Client::connect(handle.addr()).unwrap();
    for l in &lines {
        client.send(l).unwrap();
    }
    victim.kill().expect("kill victim backend");
    victim.wait().expect("reap victim backend");
    let mut got = Vec::with_capacity(lines.len());
    for i in 0..lines.len() {
        let resp = client
            .recv()
            .unwrap()
            .unwrap_or_else(|| panic!("router closed after {i} of {} responses", lines.len()));
        got.push(resp);
    }

    assert_eq!(expected.len(), got.len());
    for (slot, (want, have)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(want, have, "slot {slot}: failover changed response bytes");
    }

    // The cluster notices: the victim gets marked down (by the failover
    // drain or a failed probe — either may land first, so poll briefly).
    let mut stats = String::new();
    for _ in 0..100 {
        stats = client.roundtrip(r#"{"id":"st","verb":"stats"}"#).unwrap();
        if stats.contains(r#""healthy":false"#) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(stats.contains(r#""healthy":false"#), "victim not marked down: {stats}");
    assert!(stats.contains(r#""healthy":true"#), "survivor wrongly marked down: {stats}");

    // Forensics after the storm: traced queries left reconstructable
    // dispatch spans even though one backend (and its half of the span
    // trees) is gone, and the recorder exports through the router. (Whether
    // the kill caught queries *pending* on the victim is a scheduling race;
    // the forced failover-span guarantee is pinned deterministically by
    // `dead_channel_with_pending_query_forces_failover_spans` below.)
    let tree = client.roundtrip(r#"{"id":"tr","verb":"trace","trace":"t-0"}"#).unwrap();
    assert!(tree.contains(r#""spans":["#), "trace verb returned no span list: {tree}");
    assert!(tree.contains(r#""name":"dispatch""#), "traced query left no dispatch span: {tree}");
    let dump = client.roundtrip(r#"{"id":"du","verb":"dump"}"#).unwrap();
    assert!(dump.contains(r#""chrome":"["#), "dump through the router is empty: {dump}");

    handle.shutdown();
    let _ = survivor.kill();
    let _ = survivor.wait();
}

/// The same kill-mid-stream property with cache-affinity routing and
/// cross-replica fill (the router's only routing policy): a cold pass populates
/// caches (and fans fills out to the peer), then the identical warm batch is
/// pipelined and the victim killed before any response is read — so warm
/// queries failing over land on a replica whose cache was filled by its dead
/// peer. Bytes must match the single-server oracle on both passes: affinity,
/// failover, and fill are all invisible in the response stream.
#[test]
fn affinity_and_fill_survive_a_mid_stream_kill_byte_identically() {
    let (mut victim, victim_addr) = spawn_backend();
    let (mut survivor, survivor_addr) = spawn_backend();

    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig { replication: 0, probe_interval: Duration::from_millis(100) },
    )
    .unwrap();
    router.attach(victim_addr);
    router.attach(survivor_addr);
    router.load("hot", LoadSource::Text(BOOL), None).unwrap();
    let handle = router.spawn();

    let lines = request_lines();
    let expected: Vec<String> = {
        let engine =
            ExplanationEngine::new(textfmt::parse_dataset(BOOL).unwrap(), EngineConfig::default());
        lines
            .iter()
            .map(|l| engine.run(&Request::from_json_line(l, "oracle").unwrap()).to_json_line())
            .collect()
    };

    // Cold pass: every query routed by affinity to its home replica; cold
    // explanations trigger best-effort fill pushes to the peer.
    let mut client = Client::connect(handle.addr()).unwrap();
    for (i, l) in lines.iter().enumerate() {
        let got = client.roundtrip(l).unwrap();
        assert_eq!(&expected[i], &got, "cold slot {i}: affinity routing changed response bytes");
    }

    // Warm pass, pipelined, victim killed before the first read: pending
    // queries drain onto the survivor, whose cache holds fill-pushed entries
    // originally computed by the victim. Fill is fire-and-forget, so some
    // pushes may not have landed — either way the bytes must not move.
    let mut warm_client = Client::connect(handle.addr()).unwrap();
    for l in &lines {
        warm_client.send(l).unwrap();
    }
    victim.kill().expect("kill victim backend");
    victim.wait().expect("reap victim backend");
    for (i, want) in expected.iter().enumerate() {
        let got = warm_client
            .recv()
            .unwrap()
            .unwrap_or_else(|| panic!("router closed after {i} of {} responses", lines.len()));
        assert_eq!(want, &got, "warm slot {i}: failover with fill changed response bytes");
    }

    // The fill plane actually ran: the survivor reports externally installed
    // cache entries in the merged stats.
    let stats = warm_client.roundtrip(r#"{"id":"st","verb":"stats"}"#).unwrap();
    assert!(stats.contains(r#""cache_filled":"#), "merged stats lack cache_filled: {stats}");

    handle.shutdown();
    let _ = survivor.kill();
    let _ = survivor.wait();
}

/// A backend that accepts a query and then dies *while holding it* — built
/// from a scripted listener, so (unlike a process kill) the pending-at-death
/// window is deterministic. The router must redispatch the drained query to
/// the survivor with identical bytes AND force a `failover` span into its
/// flight recorder — anomaly capture is not sampling-dependent.
#[test]
fn dead_channel_with_pending_query_forces_failover_spans() {
    use std::io::Write as _;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // Protocol-shaped impostor: acks control verbs (so load/probes accept
    // it, and its `stats` shows the tenant at the router's version, so the
    // reconciler never demotes it mid-test), then hangs up on the first
    // query line without answering it. It counts the query lines it
    // receives, so the test can prove its scenario ran.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = listener.local_addr().unwrap();
    let impostor_queries = Arc::new(AtomicUsize::new(0));
    let counter = impostor_queries.clone();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let counter = counter.clone();
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut out = stream;
                let mut line = Vec::new();
                loop {
                    line.clear();
                    match reader.read_until(b'\n', &mut line) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {}
                    }
                    if line.windows(6).any(|w| w == b"\"verb\"") {
                        let ack = b"{\"id\":\"x\",\"ok\":true,\"tenants\":[{\"name\":\"hot\",\"version\":0}]}\n";
                        if out.write_all(ack).is_err() {
                            return;
                        }
                    } else {
                        counter.fetch_add(1, Ordering::SeqCst);
                        return; // query received: die holding it
                    }
                }
            });
        }
    });

    let (mut real, real_addr) = spawn_backend();
    let router = Router::bind("127.0.0.1:0", RouterConfig::default()).unwrap();
    router.attach(fake_addr); // id 0
    router.attach(real_addr);
    router.load("hot", LoadSource::Text(BOOL), None).unwrap();
    let handle = router.spawn();

    // Two queries: the first's affinity home is replica 0 (the impostor),
    // where it is drained at the impostor's EOF; the second's is replica 1.
    let lines = [
        r#"{"dataset":"hot","id":"a","cmd":"classify","metric":"hamming","k":3,"point":[0,0,0,0,0]}"#,
        r#"{"dataset":"hot","id":"b","cmd":"minimal-sr","metric":"hamming","k":1,"point":[0,0,1,1,1]}"#,
    ];
    let engine =
        ExplanationEngine::new(textfmt::parse_dataset(BOOL).unwrap(), EngineConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    for l in &lines {
        let want = engine.run(&Request::from_json_line(l, "oracle").unwrap()).to_json_line();
        let got = client.roundtrip(l).unwrap();
        assert_eq!(want, got, "failover changed response bytes");
    }
    assert!(
        impostor_queries.load(Ordering::SeqCst) >= 1,
        "no query reached the impostor: the failover scenario did not run"
    );

    let dump = client.roundtrip(r#"{"id":"du","verb":"dump"}"#).unwrap();
    assert!(
        dump.contains(r#"\"name\":\"failover\""#),
        "forced failover span missing from dump: {dump}"
    );

    handle.shutdown();
    let _ = real.kill();
    let _ = real.wait();
}

/// A router killed by `SIGTERM` takes its spawned backends with it: no
/// `Drop` runs, but every `xknn serve` child was spawned to die with its
/// parent, so both backend ports refuse connections within a deadline.
#[cfg(target_os = "linux")]
#[test]
fn sigterm_to_the_router_stops_its_spawned_backends() {
    use std::net::{SocketAddr, TcpStream};
    use std::time::Instant;

    let mut router = Command::new(env!("CARGO_BIN_EXE_xknn"))
        .args(["router", "--addr", "127.0.0.1:0", "--spawn", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("xknn router starts");
    let mut stderr = BufReader::new(router.stderr.take().unwrap());
    let backends: Vec<SocketAddr> = (0..2)
        .map(|_| {
            let mut line = String::new();
            stderr.read_line(&mut line).unwrap();
            line.strip_prefix("xknn router: spawned backend ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|addr| addr.parse().ok())
                .unwrap_or_else(|| panic!("unexpected router line: {line:?}"))
        })
        .collect();
    let mut banner = String::new();
    BufReader::new(router.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    assert!(banner.starts_with("listening on "), "unexpected router banner: {banner:?}");
    for addr in &backends {
        assert!(TcpStream::connect(addr).is_ok(), "backend {addr} accepts before the kill");
    }

    let kill = Command::new("kill").args(["-TERM", &router.id().to_string()]).status().unwrap();
    assert!(kill.success(), "kill -TERM failed");
    router.wait().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    for addr in &backends {
        while TcpStream::connect_timeout(addr, Duration::from_millis(200)).is_ok() {
            assert!(Instant::now() < deadline, "backend {addr} outlived its router");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}
