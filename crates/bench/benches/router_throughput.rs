//! Cluster-router throughput: queries/second for **one hot tenant** served
//! through `knn-cluster` over 1, 2, and 4 backends at 16 concurrent
//! clients, cold (fresh backends) vs warm (identical streams against
//! populated caches), written to `BENCH_cluster.json` at the workspace
//! root.
//!
//! Backends are real `xknn serve` **processes** when the binary can be
//! found (`XKNN_BIN`, or `target/<profile>/xknn` next to this bench —
//! `cargo build --release` first); otherwise in-process servers stand in
//! and the JSON records which mode ran. The router routes every query by
//! cache affinity: repeats of a query land on the replica that already
//! cached its answer, and the key's other replicas, in the same rendezvous
//! order, are its failover order.
//!
//! Besides QPS the JSON records each topology's **warm hit rate** (cache
//! hits / lookups over the warm passes, scraped from the router's merged
//! stats) and the host's **cpu count**. The hit rate is the
//! hardware-independent signal: the pre-affinity router scattered repeats
//! away from their cache, so its warm hit rate *fell* as backends were
//! added. Warm QPS only measures topology scaling when the host has at
//! least as many cores as processes — on a core-starved box the qps
//! columns mostly measure scheduler multiplexing, which is why the CI
//! guard conditions the monotonicity check on `cpus`.
//!
//! Run with `cargo bench -p knn-bench --bench router_throughput`; pass
//! `--full` for the larger workload.

use knn_cluster::{LoadSource, Router, RouterConfig};
use knn_server::Client;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One client's shuffled request stream against the hot tenant.
fn stream(dim: usize, queries: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines: Vec<String> = (0..queries)
        .map(|i| {
            let point: Vec<String> =
                (0..dim).map(|_| if rng.gen_bool(0.5) { "1" } else { "0" }.into()).collect();
            // A read-burst mix: mostly classifications with an explanation
            // tail — the workload shape the admission layer sees from
            // interactive explanation UIs, and one where serving overhead
            // (not solver CPU) bounds cold throughput, i.e. exactly what
            // adding backends can recover.
            let cmd = match i % 10 {
                0..=7 => "classify",
                8 => "minimal-sr",
                _ => "counterfactual",
            };
            let k = if i % 3 == 0 { 3 } else { 1 };
            format!(
                r#"{{"dataset":"hot","id":"q{i}","cmd":"{cmd}","metric":"hamming","k":{k},"point":[{}]}}"#,
                point.join(",")
            )
        })
        .collect();
    for i in (1..lines.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        lines.swap(i, j);
    }
    lines.join("\n")
}

fn run_clients(addr: std::net::SocketAddr, streams: &[String]) -> (f64, Vec<Vec<String>>) {
    let t0 = Instant::now();
    let outputs: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|s| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    c.run_stream(s).expect("stream")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    (t0.elapsed().as_secs_f64(), outputs)
}

/// The `xknn` binary, if one is around to spawn process backends with.
fn find_xknn() -> Option<std::path::PathBuf> {
    if let Ok(p) = std::env::var("XKNN_BIN") {
        let p = std::path::PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    // This bench runs from target/<profile>/deps/; xknn sits one level up
    // (or further, for custom target dirs) when the workspace bins were
    // built in the same profile.
    let exe = std::env::current_exe().ok()?;
    exe.ancestors().skip(1).take(3).map(|d| d.join("xknn")).find(|p| p.is_file())
}

/// In-process stand-in backends for when the binary is absent.
struct ThreadBackends(Vec<knn_server::Handle>);

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (n_points, dim, q) = if full { (60, 12, 240) } else { (30, 8, 100) };
    let clients = 16usize;
    let rounds = if full { 3 } else { 2 };
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut rng = StdRng::seed_from_u64(2026);
    let hot = knn_datasets::random::random_boolean_dataset(&mut rng, n_points, dim, 0.5);
    let hot_text = dataset_text(&hot);
    let xknn = find_xknn();
    let mode = if xknn.is_some() { "process" } else { "thread" };
    if xknn.is_none() {
        eprintln!(
            "router_throughput: no xknn binary found (set XKNN_BIN or `cargo build --release`); \
             falling back to in-process backends"
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"points\": {n_points}, \"dim\": {dim}, \"queries_per_client\": {q}, \
         \"clients\": {clients}, \"tenants\": 1, \
         \"backend_mode\": \"{mode}\", \"cpus\": {cpus}}},"
    );

    let streams: Vec<String> = (0..clients).map(|i| stream(dim, q, 0xC10D ^ i as u64)).collect();
    let total = (clients * q) as f64;

    // Pulls `"key": <digits>` out of a stats/metrics response line without
    // a JSON parser — the router answers one line, each counter once.
    fn scrape_u64(resp: &str, key: &str) -> u64 {
        resp.rfind(key)
            .map(|i| {
                resp[i + key.len()..]
                    .trim_start_matches([':', ' '])
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }
    fn cache_counters(c: &mut Client) -> (u64, u64) {
        let s = c.roundtrip(r#"{"id":"st","verb":"stats"}"#).expect("stats");
        (scrape_u64(&s, "\"cache_hits\""), scrape_u64(&s, "\"cache_misses\""))
    }

    // One measurement: fresh backends + fresh router (cold numbers must not
    // inherit warm caches), a cold pass, then the identical warm passes.
    // Returns (cold qps, warm qps, warm hit rate).
    let measure = |backends: usize| -> (f64, f64, f64) {
        let router = Router::bind("127.0.0.1:0", RouterConfig::default()).expect("bind router");
        let mut stand_in = ThreadBackends(Vec::new());
        for _ in 0..backends {
            match &xknn {
                Some(bin) => {
                    router.spawn_backend(bin, &[]).expect("spawn backend");
                }
                None => {
                    let server = knn_server::Server::bind(
                        "127.0.0.1:0",
                        knn_server::ServerConfig::default(),
                    )
                    .expect("bind backend");
                    let handle = server.spawn();
                    router.attach(handle.addr());
                    stand_in.0.push(handle);
                }
            }
        }
        router.load("hot", LoadSource::Text(&hot_text), None).expect("load hot tenant");
        let handle = router.spawn();

        let (cold, cold_out) = run_clients(handle.addr(), &streams);
        for out in &cold_out {
            for line in out {
                assert!(!line.contains("\"ok\":false"), "error response: {line}");
            }
        }
        // The cold pass leaves a transient behind it: the fill worker is
        // still pushing freshly computed explanations to each key's
        // failover replica. Warm means steady state, so wait (bounded) for
        // the fill counter to stop moving before measuring.
        let mut ctl = Client::connect(handle.addr()).expect("connect");
        if backends > 1 {
            let fills = |c: &mut Client| -> u64 {
                let m = c.roundtrip(r#"{"id":"m","verb":"metrics"}"#).expect("metrics");
                scrape_u64(&m, "knn_router_fills_total")
            };
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut last = fills(&mut ctl);
            while Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(100));
                let now = fills(&mut ctl);
                if now == last {
                    break;
                }
                last = now;
            }
        }
        let (hits_before, misses_before) = cache_counters(&mut ctl);
        // Warm = steady state: repeats route to the replica that cached
        // them (affinity), so replay the identical streams a few times and
        // take the best pass. Every pass must stay byte-identical to the
        // cold one — replica choice and cache state are invisible in the
        // bytes.
        let mut warm = f64::INFINITY;
        for _ in 0..3 {
            let (w, warm_out) = run_clients(handle.addr(), &streams);
            assert_eq!(cold_out, warm_out, "warm pass changed response bytes");
            warm = warm.min(w);
        }
        // Warm hit rate across the warm passes: affinity routing keeps a
        // key's repeats on the replica that cached it, so this stays ~1.0
        // at every backend count — the property the pre-affinity router
        // lost (scattered repeats, hit rate falling with backends).
        let (hits_after, misses_after) = cache_counters(&mut ctl);
        let (h, m) = (hits_after - hits_before, misses_after - misses_before);
        let hit_rate = if h + m == 0 { 0.0 } else { h as f64 / (h + m) as f64 };

        handle.shutdown(); // also stops spawned backend processes
        for h in stand_in.0.drain(..) {
            h.shutdown();
        }
        (total / cold, total / warm, hit_rate)
    };

    let backend_counts = [1usize, 2, 4];
    for (bi, &backends) in backend_counts.iter().enumerate() {
        // Best of `rounds` fully-fresh measurements: a 960-query pass on a
        // loaded CI box is noisy, and best-of isolates the topology effect
        // from scheduler luck.
        let (mut cold_qps, mut warm_qps, mut hit_rate) = (0f64, 0f64, 0f64);
        for _ in 0..rounds {
            let (c, w, h) = measure(backends);
            cold_qps = cold_qps.max(c);
            warm_qps = warm_qps.max(w);
            hit_rate = hit_rate.max(h);
        }
        println!(
            "{backends} backend(s)   cold {cold_qps:>9.1} q/s   warm {warm_qps:>11.1} q/s   speedup {:>6.1}x   warm hits {:>5.1}%",
            warm_qps / cold_qps,
            hit_rate * 100.0
        );
        let _ = writeln!(
            json,
            "  \"backends_{backends}\": {{\"cold_qps\": {cold_qps:.1}, \"warm_qps\": {warm_qps:.1}, \"cache_speedup\": {:.1}, \"warm_hit_rate\": {hit_rate:.3}}}{}",
            warm_qps / cold_qps,
            if bi + 1 < backend_counts.len() { "," } else { "" }
        );
    }
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    std::fs::write(path, &json).expect("write BENCH_cluster.json");
    println!("wrote {path}");
}

/// Renders a boolean dataset in the `+/-` text format the `load` verb takes.
fn dataset_text(ds: &knn_space::BooleanDataset) -> String {
    let mut out = String::new();
    for (bits, label) in ds.iter() {
        out.push(if label == knn_space::Label::Positive { '+' } else { '-' });
        for i in 0..ds.dim() {
            out.push(' ');
            out.push(if bits.get(i) { '1' } else { '0' });
        }
        out.push('\n');
    }
    out
}
