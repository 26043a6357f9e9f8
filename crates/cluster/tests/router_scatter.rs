//! The router's acceptance property: a shuffled pipelined batch scattered
//! over **two replicas of one tenant** merges back byte-identical to a
//! fresh single-threaded engine answering the same lines in the same order.
//! Which replica served which query, affinity order, channel interleaving —
//! none of it may show in the bytes.

use knn_cluster::{LoadSource, Router, RouterConfig};
use knn_engine::{textfmt, EngineConfig, ExplanationEngine, Request};
use knn_server::{Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BOOL: &str = "+ 1 1 1 0 0\n+ 1 1 0 0 0\n+ 1 0 1 0 0\n- 0 0 0 1 1\n- 0 0 1 1 1\n- 0 1 0 1 1\n";
const CONT: &str = "+ 2.0 2.0\n+ 3.0 1.5\n+ 1.0 2.5\n- -1.0 -1.0\n- 0.0 -2.0\n- -2.0 0.5\n";

/// Mixed request lines for one tenant; roughly one in four carries no `id`,
/// so the router's line-number injection is exercised alongside explicit
/// ids.
fn base_requests(tenant: &str) -> Vec<String> {
    let mut reqs = Vec::new();
    if tenant == "bool" {
        let points = ["[1,1,0,1,0]", "[0,0,0,0,0]", "[1,0,1,0,1]", "[0,1,1,0,1]"];
        for (pi, point) in points.iter().enumerate() {
            for k in [1, 3] {
                for (ci, cmd) in ["classify", "minimal-sr", "counterfactual"].iter().enumerate() {
                    if (pi + ci) % 4 == 0 {
                        reqs.push(format!(
                            r#"{{"dataset":"bool","cmd":"{cmd}","metric":"hamming","k":{k},"point":{point}}}"#
                        ));
                    } else {
                        reqs.push(format!(
                            r#"{{"dataset":"bool","id":"b{pi}-{k}-{cmd}","cmd":"{cmd}","metric":"hamming","k":{k},"point":{point}}}"#
                        ));
                    }
                }
            }
        }
    } else {
        let points = ["[1.5,1.0]", "[-0.5,0.25]", "[0.0,0.0]", "[2.5,-1.0]"];
        for (pi, point) in points.iter().enumerate() {
            for k in [1, 3] {
                for cmd in ["classify", "minimal-sr", "counterfactual"] {
                    reqs.push(format!(
                        r#"{{"dataset":"cont","id":"c{pi}-{k}-{cmd}","cmd":"{cmd}","metric":"l2","k":{k},"point":{point}}}"#
                    ));
                }
            }
            // A refused Table-1 cell: error responses must be deterministic
            // through the router too.
            reqs.push(format!(
                r#"{{"dataset":"cont","cmd":"minimal-sr","metric":"l1","k":3,"point":{point}}}"#
            ));
        }
    }
    reqs
}

fn shuffled(base: &[String], seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<String> = base.to_vec();
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
    v
}

/// The oracle: a fresh single-threaded engine, requests in the client's
/// order, default ids from the 1-based line number — exactly the single
/// server's semantics.
fn sequential_oracle(dataset_text: &str, lines: &[String]) -> Vec<String> {
    let engine = ExplanationEngine::new(
        textfmt::parse_dataset(dataset_text).unwrap(),
        EngineConfig::default(),
    );
    lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let req = Request::from_json_line(line, &(i + 1).to_string()).unwrap();
            engine.run(&req).to_json_line()
        })
        .collect()
}

#[test]
fn shuffled_batches_over_two_replicas_match_the_sequential_oracle() {
    // Two backends with deliberately different worker budgets: scheduling
    // differences must not reach the bytes.
    let b0 = Server::bind(
        "127.0.0.1:0",
        ServerConfig { worker_budget: 1, conn_inflight: 2, engine: EngineConfig::default() },
    )
    .unwrap()
    .spawn();
    let b1 = Server::bind(
        "127.0.0.1:0",
        ServerConfig { worker_budget: 4, conn_inflight: 4, engine: EngineConfig::default() },
    )
    .unwrap()
    .spawn();

    let router = Router::bind("127.0.0.1:0", RouterConfig::default()).unwrap();
    router.attach(b0.addr());
    router.attach(b1.addr());
    // Both tenants on both backends: every query has two candidate replicas.
    router.load("bool", LoadSource::Text(BOOL), None).unwrap();
    router.load("cont", LoadSource::Text(CONT), None).unwrap();
    let handle = router.spawn();
    let addr = handle.addr();

    let bool_base = base_requests("bool");
    let cont_base = base_requests("cont");

    let mut threads = Vec::new();
    for client_id in 0..6u64 {
        let (text, base) =
            if client_id % 2 == 0 { (BOOL, bool_base.clone()) } else { (CONT, cont_base.clone()) };
        threads.push(std::thread::spawn(move || {
            let lines = shuffled(&base, 0xD15C0 ^ client_id);
            let expected = sequential_oracle(text, &lines);
            let mut client = Client::connect(addr).unwrap();
            let got = client.run_stream(&lines.join("\n")).unwrap();
            (client_id, expected, got)
        }));
    }
    for t in threads {
        let (client_id, expected, got) = t.join().unwrap();
        assert_eq!(expected.len(), got.len(), "client {client_id}: response count mismatch");
        for (slot, (want, have)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(
                want, have,
                "client {client_id}, slot {slot}: router bytes diverge from the oracle"
            );
        }
    }

    handle.shutdown();
    b0.shutdown();
    b1.shutdown();
}

#[test]
fn router_responses_match_a_real_single_server_line_for_line() {
    // Stronger than the engine oracle: stand up an actual single `Server`
    // and diff the router's whole response stream against it, malformed
    // lines and line-number defaults included.
    let lines = concat!(
        "{\"dataset\":\"bool\",\"cmd\":\"classify\",\"metric\":\"hamming\",\"point\":[1,1,0,1,0]}\n",
        "not json at all\n",
        "\n",
        "{\"dataset\":\"bool\",\"id\":7,\"cmd\":\"minimal-sr\",\"metric\":\"hamming\",\"point\":[0,0,1,1,1]}\n",
        "{\"dataset\":\"missing\",\"cmd\":\"classify\",\"point\":[1]}\n",
        "{\"dataset\":\"bool\",\"cmd\":\"counterfactual\",\"metric\":\"hamming\",\"k\":3,\"point\":[1,0,1,0,1]}\n",
        "{\"cmd\":\"classify\",\"point\":[1]}\n",
    );

    let single = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    single.registry().load("bool", BOOL).unwrap();
    let single = single.spawn();
    let mut c = Client::connect(single.addr()).unwrap();
    let want = c.run_stream(lines).unwrap();
    single.shutdown();

    let b0 = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn();
    let b1 = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn();
    let router = Router::bind("127.0.0.1:0", RouterConfig::default()).unwrap();
    router.attach(b0.addr());
    router.attach(b1.addr());
    router.load("bool", LoadSource::Text(BOOL), None).unwrap();
    let handle = router.spawn();
    let mut c = Client::connect(handle.addr()).unwrap();
    let got = c.run_stream(lines).unwrap();

    assert_eq!(want, got, "router stream must be byte-identical to a single server");

    handle.shutdown();
    b0.shutdown();
    b1.shutdown();
}
