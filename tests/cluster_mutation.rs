//! Live mutation through the cluster, end to end over real processes: a
//! tenant replicated on two `xknn serve` backends takes an interleaved
//! stream of queries, `insert`s, and `remove`s through the router while one
//! backend is **killed mid-stream**. Every query response must stay
//! byte-identical to a sequential local engine applying the same mutations
//! at the same stream positions (the router's control barrier makes each
//! mutation a deterministic point in the stream), every mutation must ack
//! at the right version, and the final state must equal a fresh engine
//! loaded with the final dataset — the mutation layer's governing oracle.

use explainable_knn::cluster::{LoadSource, Router, RouterConfig};
use explainable_knn::delta::Mutation;
use explainable_knn::engine::{textfmt, EngineConfig, ExplanationEngine, Request};
use explainable_knn::server::Client;
use explainable_knn::space::Label;
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

/// One expected response: exact bytes for queries, `(version, verbed)` for
/// mutation acks (whose `replicas` member depends on which backends are
/// alive — that part is the cluster's business, not the oracle's).
enum Expect {
    Query(String),
    Mutation { version: u64, verbed: &'static str },
}

#[test]
fn killing_a_replica_mid_mutation_stream_keeps_queries_oracle_identical() {
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

    // Build the stream and its oracle in one pass: a local engine applies
    // the same mutations at the same positions the router will (mutations
    // are control-verb barriers, so their stream position is their epoch).
    let local =
        ExplanationEngine::new(textfmt::parse_dataset(BOOL).unwrap(), EngineConfig::default());
    let mut lines: Vec<String> = Vec::new();
    let mut expected: Vec<Expect> = Vec::new();
    for i in 0..150u32 {
        if i % 10 == 5 {
            if i % 20 == 5 {
                let bits: Vec<f64> = (0..5).map(|b| f64::from((i >> b) & 1)).collect();
                let label = if i % 40 == 5 { Label::Positive } else { Label::Negative };
                lines.push(format!(
                    r#"{{"id":"m{i}","verb":"insert","name":"hot","label":"{}","point":[{}]}}"#,
                    if label == Label::Positive { "+" } else { "-" },
                    bits.iter().map(|v| format!("{v}")).collect::<Vec<_>>().join(","),
                ));
                local.apply(Mutation::Insert { point: bits, label }).unwrap();
            } else {
                let id = (i as usize * 7) % local.data().continuous.len();
                lines.push(format!(r#"{{"id":"m{i}","verb":"remove","name":"hot","index":{id}}}"#));
                local.apply(Mutation::Remove { id }).unwrap();
            }
            expected.push(Expect::Mutation {
                version: local.epoch(),
                verbed: if i % 20 == 5 { "inserted" } else { "removed" },
            });
        } else {
            let bits: Vec<String> = (0..5).map(|b| ((i >> b) & 1).to_string()).collect();
            let cmd = match i % 4 {
                0 => "minimal-sr",
                1 => "counterfactual",
                _ => "classify",
            };
            let k = if i % 3 == 0 { 3 } else { 1 };
            let line = format!(
                r#"{{"id":"q{i}","cmd":"{cmd}","metric":"hamming","k":{k},"point":[{}]}}"#,
                bits.join(",")
            );
            let req = Request::from_json_line(&line, "oracle").unwrap();
            expected.push(Expect::Query(local.run(&req).to_json_line()));
            lines.push(format!(
                r#"{{"dataset":"hot","id":"q{i}","cmd":"{cmd}","metric":"hamming","k":{k},"point":[{}]}}"#,
                bits.join(",")
            ));
        }
    }

    // Pipeline the whole stream, then read responses one at a time so the
    // kill demonstrably lands mid-stream (with mutations still ahead).
    let mut client = Client::connect(handle.addr()).unwrap();
    for l in &lines {
        client.send(l).unwrap();
    }
    for (i, want) in expected.iter().enumerate() {
        if i == 12 {
            victim.kill().expect("kill victim backend");
            victim.wait().expect("reap victim backend");
        }
        let have = client
            .recv()
            .unwrap()
            .unwrap_or_else(|| panic!("router closed after {i} of {} responses", expected.len()));
        match want {
            Expect::Query(bytes) => {
                assert_eq!(bytes, &have, "slot {i}: query bytes diverged from the oracle");
            }
            Expect::Mutation { version, verbed } => {
                assert!(
                    have.contains(r#""ok":true"#) && have.contains(&format!(r#""{verbed}":"hot""#)),
                    "slot {i}: mutation not acked: {have}"
                );
                assert!(
                    have.contains(&format!(r#""version":{version}"#)),
                    "slot {i}: wrong version (want {version}): {have}"
                );
            }
        }
    }

    // The final state equals a fresh server loaded with the final dataset.
    let fresh = ExplanationEngine::new(
        textfmt::parse_dataset(&local.dataset_text()).unwrap(),
        EngineConfig::default(),
    );
    for bits in 0..32u32 {
        let point: Vec<String> = (0..5).map(|b| ((bits >> b) & 1).to_string()).collect();
        let line = format!(
            r#"{{"dataset":"hot","id":"f{bits}","cmd":"classify","metric":"hamming","point":[{}]}}"#,
            point.join(",")
        );
        let req = Request::from_json_line(
            &format!(
                r#"{{"id":"f{bits}","cmd":"classify","metric":"hamming","point":[{}]}}"#,
                point.join(",")
            ),
            "oracle",
        )
        .unwrap();
        let have = client.roundtrip(&line).unwrap();
        assert_eq!(fresh.run(&req).to_json_line(), have, "final-state query f{bits}");
    }

    // The cluster noticed the kill.
    let mut stats = String::new();
    for _ in 0..100 {
        stats = client.roundtrip(r#"{"id":"st","verb":"stats"}"#).unwrap();
        if stats.contains(r#""healthy":false"#) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(stats.contains(r#""healthy":false"#), "victim not marked down: {stats}");

    handle.shutdown();
    let _ = survivor.kill();
    let _ = survivor.wait();
}
