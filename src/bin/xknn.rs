//! `xknn` — explain k-NN classifications from the shell.
//!
//! ```text
//! xknn <command> --data <file> --point "v1,v2,..." [options]
//! xknn batch     --data <file> [--requests <jsonl>] [--workers N] [--budget C]
//! xknn serve     [--addr host:port] [--data name=file ...] [--workers N] ...
//! xknn client    --addr host:port [--requests <jsonl>]
//! xknn router    [--addr host:port] [--backend host:port ...] [--spawn N] ...
//! xknn replay    <bundle.json>
//!
//! commands:
//!   classify          the optimistic k-NN label of the point (§2)
//!   minimal-sr        a minimal sufficient reason (Prop 2 + the per-metric checker)
//!   minimum-sr        an exact minimum sufficient reason (NP-hard/Σ₂ᵖ: IHS solver)
//!   check-sr          is --features a sufficient reason? (counterexample if not)
//!   counterfactual    the closest counterfactual under the metric
//!   batch             serve a JSON-lines request stream concurrently
//!   serve             multi-tenant TCP server over the explanation engine
//!   client            stream JSON-lines requests to a running server
//!   router            sharding/replication router over N `serve` backends
//!   replay            re-execute a repro bundle offline and byte-diff it
//!
//! options:
//!   --data <file>     labeled points: `+ 1.0 2.0` / `- 0 1 1`; `#` comments
//!   --point <csv>     the query point
//!   --metric <m>      l2 (default) | l1 | lp:<p> | hamming
//!   --k <odd>         neighborhood size (default 1)
//!   --features <csv>  feature indices for check-sr
//!
//! batch options:
//!   --requests <file> JSON-lines requests (default: stdin; `-` = stdin)
//!   --workers <n>     worker threads (default: all cores)
//!   --budget <c>      deterministic effort budget (SAT conflicts; demotes
//!                     minimum-sr to the greedy heuristic); default exact
//!   --cache <n>       explanation-cache capacity (default 4096, 0 disables)
//!
//! serve options:
//!   --addr <a>        bind address (default 127.0.0.1:7878; port 0 = ephemeral)
//!   --data <n=file>   preload a dataset as tenant `n` (repeatable); clients
//!                     can also load/unload at runtime via the protocol
//!   --workers <n>     global worker budget (default: all cores)
//!   --inflight <n>    per-connection in-flight cap (default 4)
//!   --budget / --cache  per-tenant engine config, as for batch
//!
//! client options:
//!   --addr <a>        server address (required)
//!   --requests <file> JSON-lines requests (default: stdin; `-` = stdin)
//!   --metrics         one-shot: print the server's Prometheus text
//!                     exposition (the `metrics` verb) and exit
//!   --stats-json      one-shot: print the `stats` verb's JSON line and exit
//!   --trace <id>      one-shot: print the reconstructed span tree of one
//!                     traced query (the `trace` verb; through a router,
//!                     backend trees are stitched under dispatch spans)
//!   --trace-dump      one-shot: print the flight recorder as Chrome
//!                     trace-event JSON (load in chrome://tracing/Perfetto)
//!   --top             one-shot: print the server's per-tenant resource
//!                     table (`top` verb: bytes, QPS, SLO burn); through a
//!                     router, rows are merged across the backends
//!   --repro <sel>     one-shot: export a self-contained repro bundle for a
//!                     captured query window (the `repro` verb). Selectors:
//!                     `trace=ID`, `tenant=NAME`, or `conn=C,seq=S` (the
//!                     reference each `slow` entry carries; `slow` reads,
//!                     without draining, the 32 slowest queries the flight
//!                     recorder retains). Replay it offline with
//!                     `xknn replay`.
//!   --out <file>      write the one-shot payload (`--trace-dump`, `--trace`,
//!                     `--repro`, ...) to a file instead of stdout
//!   --watch <secs>    repeat `--top` (or `--metrics`) every <secs>
//!                     seconds until interrupted or the server goes away
//!
//! router options:
//!   --addr <a>        bind address (default 127.0.0.1:7979; port 0 = ephemeral)
//!   --backend <a>     attach an already-running server (repeatable)
//!   --spawn <n>       spawn n `xknn serve` backends on ephemeral ports
//!   --replicas <r>    default replicas per tenant (default: all backends)
//!   --data <n=file>   preload a dataset, fanned out to its replicas (repeatable)
//!   --probe-ms <m>    health-probe interval (default 500; 0 disables)
//!   --workers / --inflight / --cache / --budget   forwarded to spawned backends
//!
//!   Queries always route by cache affinity: repeats of a query prefer the
//!   replica already holding its cached explanation, and cold answers are
//!   pushed to the key's failover replica.
//!
//! Every command refuses a flag its options above do not list.
//! ```
//!
//! Batch requests look like
//! `{"id":"q1","cmd":"counterfactual","metric":"l2","k":1,"point":[1.5,1.0]}`;
//! server queries add `"dataset":"name"`, and the server additionally speaks
//! the control verbs `load`, `unload`, `insert`, `remove`, `list`, `stats`,
//! `ping`, `quit`, `shutdown` (see `knn-server`). Tenants are **live**:
//! `{"verb":"insert","name":"demo","label":"+","point":[1,0,1]}` appends a
//! point and `{"verb":"remove","name":"demo","index":3}` drops one, each
//! bumping the tenant's version; re-`load`ing a name atomically replaces
//! it. The router fans mutations out to every replica. Responses are JSON
//! lines in input order, byte-deterministic for any `--workers` value —
//! and after any mutation sequence, byte-identical to a server freshly
//! loaded with the final dataset. The tool refuses (metric, k, command)
//! combinations outside the paper's tractability boundary instead of
//! silently approximating; see Table 1.

use explainable_knn::cli::{
    parse_dataset, parse_indices, parse_point, run_batch, run_query, BatchOptions, MetricChoice,
    QueryOutput,
};
use std::io::Read;

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Every value of a repeatable flag, in order (`--data a=x --data b=y`).
fn args_all(name: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).filter(|w| w[0] == name).map(|w| w[1].clone()).collect()
}

/// The one-shot query commands' flags.
const QUERY_FLAGS: &[&str] = &["--data", "--point", "--metric", "--k", "--features"];

/// `xknn batch`'s flags.
const BATCH_FLAGS: &[&str] = &["--data", "--requests", "--workers", "--budget", "--cache"];

/// `xknn serve`'s own flags; [`FORWARDED_FLAGS`] are accepted too.
const SERVE_FLAGS: &[&str] = &["--addr", "--data"];

/// `xknn client`'s flags.
const CLIENT_FLAGS: &[&str] = &[
    "--addr",
    "--requests",
    "--metrics",
    "--stats-json",
    "--trace",
    "--trace-dump",
    "--top",
    "--repro",
    "--out",
    "--watch",
];

/// `xknn router`'s own flags; [`FORWARDED_FLAGS`] are accepted too.
const ROUTER_FLAGS: &[&str] =
    &["--addr", "--backend", "--spawn", "--replicas", "--data", "--probe-ms"];

/// Engine/server tuning flags of `xknn serve`, which `xknn router` passes
/// through to every spawned backend.
const FORWARDED_FLAGS: &[&str] = &["--workers", "--inflight", "--cache", "--budget"];

/// Exits naming the first `--flag` after the subcommand that `known` does
/// not list: [`arg`] ignores unknown flags, so a stale or misspelled option
/// would otherwise run with different behaviour and no warning.
fn refuse_unknown_flags(command: &str, known: &[&str]) {
    if let Some(flag) =
        std::env::args().skip(2).find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        fail(&format!("unknown {command} flag `{flag}`"));
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("xknn: {msg}");
    eprintln!("run with no arguments for usage");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let Some(command) = argv.get(1).filter(|c| !c.starts_with("--")).cloned() else {
        println!("usage: xknn <classify|minimal-sr|minimum-sr|check-sr|counterfactual>");
        println!("            --data <file> --point \"v1,v2,...\"");
        println!("            [--metric l2|l1|lp:<p>|hamming] [--k <odd>] [--features i,j,...]");
        println!("       xknn batch --data <file> [--requests <jsonl>|-]");
        println!("            [--workers <n>] [--budget <conflicts>] [--cache <entries>]");
        println!("       xknn serve [--addr host:port] [--data name=<file> ...]");
        println!("            [--workers <n>] [--inflight <n>] [--budget <c>] [--cache <n>]");
        println!("       xknn client --addr host:port [--requests <jsonl>|-]");
        println!("            [--metrics | --stats-json | --trace <id> | --trace-dump | --top");
        println!("             | --repro trace=ID|tenant=NAME|conn=C,seq=S]");
        println!("            [--out <file>] [--watch <secs>]");
        println!("       xknn router [--addr host:port] [--backend host:port ...] [--spawn <n>]");
        println!("            [--replicas <r>] [--data name=<file> ...] [--probe-ms <m>]");
        println!("            [--workers <n>] [--inflight <n>] [--budget <c>] [--cache <n>]");
        println!("       xknn replay <bundle.json>");
        std::process::exit(if argv.len() <= 1 { 0 } else { 2 });
    };

    let known = match command.as_str() {
        "batch" => BATCH_FLAGS.to_vec(),
        "serve" => [SERVE_FLAGS, FORWARDED_FLAGS].concat(),
        "client" => CLIENT_FLAGS.to_vec(),
        "router" => [ROUTER_FLAGS, FORWARDED_FLAGS].concat(),
        "replay" => Vec::new(),
        _ => QUERY_FLAGS.to_vec(),
    };
    refuse_unknown_flags(&command, &known);

    if command == "serve" {
        return serve();
    }
    if command == "client" {
        return client();
    }
    if command == "router" {
        return router();
    }
    if command == "replay" {
        return replay();
    }

    let data_path = arg("--data").unwrap_or_else(|| fail("--data <file> is required"));
    let text = std::fs::read_to_string(&data_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {data_path}: {e}")));
    let data = parse_dataset(&text).unwrap_or_else(|e| fail(&e));

    if command == "batch" {
        let input = match arg("--requests").filter(|p| p != "-") {
            Some(path) => std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}"))),
            None => {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .unwrap_or_else(|e| fail(&format!("cannot read stdin: {e}")));
                buf
            }
        };
        let mut opts = BatchOptions::default();
        if let Some(w) = arg("--workers") {
            opts.workers = w.parse().unwrap_or_else(|_| fail("--workers must be an integer"));
        }
        if let Some(c) = arg("--cache") {
            opts.cache_capacity = c.parse().unwrap_or_else(|_| fail("--cache must be an integer"));
        }
        if let Some(b) = arg("--budget") {
            opts.budget = Some(b.parse().unwrap_or_else(|_| fail("--budget must be an integer")));
        }
        let (out, summary) = run_batch(&data, &input, opts);
        print!("{out}");
        eprintln!("{summary}");
        return;
    }

    single_query(command, data)
}

/// `xknn serve`: bind, preload `--data name=file` tenants, serve until a
/// client sends the `shutdown` verb.
fn serve() {
    let addr = arg("--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
    let mut config = knn_server::ServerConfig::default();
    if let Some(w) = arg("--workers") {
        config.worker_budget = w.parse().unwrap_or_else(|_| fail("--workers must be an integer"));
    }
    if let Some(i) = arg("--inflight") {
        config.conn_inflight = i.parse().unwrap_or_else(|_| fail("--inflight must be an integer"));
    }
    if let Some(c) = arg("--cache") {
        config.engine.cache_capacity =
            c.parse().unwrap_or_else(|_| fail("--cache must be an integer"));
    }
    if let Some(b) = arg("--budget") {
        config.engine.effort_budget =
            Some(b.parse().unwrap_or_else(|_| fail("--budget must be an integer")));
    }
    let server = knn_server::Server::bind(&addr, config)
        .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    for spec in args_all("--data") {
        let (name, path) = spec
            .split_once('=')
            .unwrap_or_else(|| fail(&format!("--data wants name=<file>, got `{spec}`")));
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let tenant = server.registry().load(name, &text).unwrap_or_else(|e| fail(&e));
        eprintln!(
            "xknn serve: loaded `{name}` ({} points, dim {})",
            tenant.stats().points,
            tenant.stats().dim
        );
    }
    // The resolved address on stdout (and flushed) so scripts and tests can
    // bind port 0 and discover the port.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if let Err(e) = server.serve() {
        fail(&format!("serve failed: {e}"));
    }
}

/// One `--top` table: tenants ranked by bytes, with rate and burn columns.
fn render_top(rows: &[knn_engine::json::Value]) -> String {
    use knn_engine::json::Value;
    let mut out = format!(
        "{:<16} {:>12} {:>10} {:>8} {:>10} {:>6}\n",
        "TENANT", "BYTES", "REQUESTS", "QPS", "SLO_BURN", "VIOL"
    );
    for row in rows {
        let s = |k: &str| row.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
        let u = |k: &str| row.get(k).and_then(Value::as_u64).unwrap_or(0);
        let f = |k: &str| row.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "{:<16} {:>12} {:>10} {:>8.2} {:>10.4} {:>6}\n",
            s("tenant"),
            u("bytes_total"),
            u("requests"),
            f("qps"),
            f("slo_burn"),
            u("slo_violations"),
        ));
    }
    out
}

/// Prints to stdout, surfacing a closed pipe as an error instead of the
/// default panic — `--watch` loops (and one-shots piped into `head`) end
/// cleanly when their reader goes away.
fn try_print(text: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout closed: {e}"))
}

/// The one-shot payload sink: `--out <file>` writes the payload to a file
/// (`xknn client --repro ... --out bug.bundle` pairs with `xknn replay
/// bug.bundle`); without it, stdout via [`try_print`].
fn emit(text: &str) -> Result<(), String> {
    match arg("--out") {
        Some(path) => std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => try_print(text),
    }
}

/// The wire line for the `repro` verb from a `--repro` selector:
/// `trace=ID`, `tenant=NAME`, or `conn=C,seq=S`.
fn repro_line(selector: &str) -> String {
    use knn_engine::json::Value;
    let mut members = vec![
        ("id".into(), Value::String("cli".into())),
        ("verb".into(), Value::String("repro".into())),
    ];
    for part in selector.split(',') {
        let num = |v: &str| -> f64 {
            v.parse().unwrap_or_else(|_| fail(&format!("--repro: `{part}` wants an integer")))
        };
        match part.split_once('=') {
            Some(("trace", v)) => members.push(("trace".into(), Value::String(v.to_string()))),
            Some(("tenant", v)) => members.push(("name".into(), Value::String(v.to_string()))),
            Some(("conn", v)) => members.push(("conn".into(), Value::Number(num(v)))),
            Some(("seq", v)) => members.push(("seq".into(), Value::Number(num(v)))),
            _ => fail(&format!(
                "--repro wants trace=ID, tenant=NAME, or conn=C,seq=S (got `{part}`)"
            )),
        }
    }
    Value::Object(members).to_json()
}

/// One scrape of `verb` against `addr`, payload to stdout (or `--out`).
fn client_one_shot(addr: &str, verb: &str) -> Result<(), String> {
    use knn_engine::json::Value;
    let mut client =
        knn_server::Client::connect_retry(addr, 5, std::time::Duration::from_millis(20))
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let line = if verb == "trace" {
        let tid = arg("--trace").unwrap_or_else(|| fail("--trace wants a trace id"));
        Value::Object(vec![
            ("id".into(), Value::String("cli".into())),
            ("verb".into(), Value::String("trace".into())),
            ("trace".into(), Value::String(tid)),
        ])
        .to_json()
    } else if verb == "repro" {
        let selector = arg("--repro")
            .unwrap_or_else(|| fail("--repro wants trace=ID, tenant=NAME, or conn=C,seq=S"));
        repro_line(&selector)
    } else {
        format!(r#"{{"id":"cli","verb":"{verb}"}}"#)
    };
    let resp = client.roundtrip(&line).map_err(|e| format!("{verb} failed: {e}"))?;
    if verb == "stats" || verb == "trace" {
        // Already one JSON object (stats / span tree); print verbatim.
        return emit(&format!("{resp}\n"));
    }
    // Unwrap the payload out of the response envelope so the output is
    // directly consumable: Prometheus text for `--metrics`, a Chrome
    // trace-event array for `--trace-dump`, an aligned table for `--top`,
    // a replayable bundle for `--repro`.
    let parsed = knn_engine::json::parse_bytes(resp.as_bytes())
        .map_err(|e| format!("unparseable {verb} response: {e}"))?;
    if verb == "top" {
        return match parsed.get("top") {
            Some(Value::Array(rows)) => emit(&render_top(rows)),
            _ => Err(format!("top verb answered without a top member: {resp}")),
        };
    }
    let member = match verb {
        "dump" => "chrome",
        "repro" => "bundle",
        _ => "metrics",
    };
    match parsed.get(member) {
        Some(Value::String(text)) if verb == "metrics" => emit(text),
        Some(Value::String(text)) => emit(&format!("{text}\n")),
        _ => Err(format!("{verb} verb answered without a {member} member: {resp}")),
    }
}

/// `xknn replay`: load a repro bundle exported by the `repro` verb (or the
/// shadow auditor), rebuild the tenant in a fresh offline engine — seed
/// text, then each replay op up to every entry's epoch — re-execute the
/// captured requests, and **byte-diff** the responses against the captured
/// ones. Exit 0 on a clean byte-identical replay, 1 on divergence, 2 on a
/// malformed bundle.
fn replay() {
    let argv: Vec<String> = std::env::args().collect();
    let path = argv
        .get(2)
        .filter(|p| !p.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| fail("replay wants a bundle file: xknn replay <bundle.json>"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let bundle = knn_engine::bundle::ReproBundle::from_json(text.trim())
        .unwrap_or_else(|e| fail(&format!("{path} is not a repro bundle: {e}")));
    let report = bundle.replay().unwrap_or_else(|e| fail(&format!("replay failed: {e}")));
    if report.divergences.is_empty() {
        println!(
            "replay ok: tenant `{}`, {} response{} byte-identical, final epoch {}",
            report.tenant,
            report.checked,
            if report.checked == 1 { "" } else { "s" },
            report.final_epoch
        );
        return;
    }
    for d in &report.divergences {
        let backend = d.backend.map(|b| format!(" backend={b}")).unwrap_or_default();
        println!("DIVERGED conn={} seq={}{backend} epoch={}", d.conn, d.seq, d.epoch);
        println!("  captured: {}", d.expected);
        println!("  replayed: {}", d.got);
    }
    println!(
        "replay FAILED: {} of {} responses diverged (tenant `{}`)",
        report.divergences.len(),
        report.checked,
        report.tenant
    );
    std::process::exit(1);
}

/// `xknn client`: pipeline a JSON-lines stream to a server, print the
/// responses in request order. With `--metrics`, `--stats-json`,
/// `--trace <id>`, `--trace-dump`, `--top` or `--repro <sel>`, a one-shot
/// mode instead: connect, issue the verb, print the payload (or write it
/// to `--out <file>`), exit — the scrape-friendly path
/// (`xknn client --addr a:p --metrics | ...`, `--repro trace=t1 --out b.json`).
/// `--watch <secs>` repeats the one-shot (`--top` by default) on a fresh
/// connection each round, exiting cleanly when the server goes away.
fn client() {
    let addr = arg("--addr").unwrap_or_else(|| fail("--addr host:port is required"));
    let argv: Vec<String> = std::env::args().collect();
    let one_shot = if argv.iter().any(|a| a == "--metrics") {
        Some("metrics")
    } else if argv.iter().any(|a| a == "--stats-json") {
        Some("stats")
    } else if argv.iter().any(|a| a == "--trace") {
        Some("trace")
    } else if argv.iter().any(|a| a == "--trace-dump") {
        Some("dump")
    } else if argv.iter().any(|a| a == "--top") {
        Some("top")
    } else if argv.iter().any(|a| a == "--repro") {
        Some("repro")
    } else {
        None
    };
    if let Some(secs) = arg("--watch") {
        let secs: u64 = secs.parse().unwrap_or_else(|_| fail("--watch must be seconds"));
        let verb = match one_shot {
            None | Some("top") => "top",
            Some("metrics") => "metrics",
            Some(other) => fail(&format!("--watch repeats --top or --metrics, not --{other}")),
        };
        // Repeat until the server goes away (clean exit, scrape loops are
        // advisory) or the user interrupts. Each round reconnects, so a
        // server restart mid-watch just shows up as fresh counters.
        loop {
            if let Err(e) = client_one_shot(&addr, verb).and_then(|()| try_print("\n")) {
                eprintln!("client: {e}; ending watch");
                return;
            }
            std::thread::sleep(std::time::Duration::from_secs(secs.max(1)));
        }
    }
    if let Some(verb) = one_shot {
        if let Err(e) = client_one_shot(&addr, verb) {
            if e.starts_with("stdout closed") {
                return; // reader went away (| head); that's a clean exit
            }
            fail(&e);
        }
        return;
    }
    let input = match arg("--requests").filter(|p| p != "-") {
        Some(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}"))),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| fail(&format!("cannot read stdin: {e}")));
            buf
        }
    };
    // Bounded retry + backoff: a scripted `serve &` / `client` pair races the
    // server's accept loop; first-refusal must not be fatal.
    let mut client =
        knn_server::Client::connect_retry(&addr, 5, std::time::Duration::from_millis(20))
            .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    let responses =
        client.run_stream(&input).unwrap_or_else(|e| fail(&format!("stream failed: {e}")));
    let errors = responses.iter().filter(|r| r.contains("\"ok\":false")).count();
    for line in &responses {
        println!("{line}");
    }
    eprintln!("client: {} responses, {} errors", responses.len(), errors);
}

/// [`fail`], but first stop any backend children this router spawned —
/// `fail` exits without running destructors, and a botched startup (bad
/// `--data`, failed spawn) must not orphan server processes.
fn router_fail(router: &knn_cluster::Router, msg: &str) -> ! {
    router.pool().shutdown_spawned();
    fail(msg)
}

/// `xknn router`: front N `xknn serve` backends (spawned and/or attached)
/// with rendezvous-hash tenant placement and batch scatter-gather.
fn router() {
    let addr = arg("--addr").unwrap_or_else(|| "127.0.0.1:7979".into());
    let mut config = knn_cluster::RouterConfig::default();
    if let Some(r) = arg("--replicas") {
        config.replication = r.parse().unwrap_or_else(|_| fail("--replicas must be an integer"));
    }
    if let Some(m) = arg("--probe-ms") {
        let ms: u64 = m.parse().unwrap_or_else(|_| fail("--probe-ms must be an integer"));
        config.probe_interval = std::time::Duration::from_millis(ms);
    }
    let router = knn_cluster::Router::bind(&addr, config)
        .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));

    for backend in args_all("--backend") {
        // Resolve like every other address flag (hostnames work, not just
        // IP literals).
        use std::net::ToSocketAddrs as _;
        let resolved = backend
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .unwrap_or_else(|| fail(&format!("--backend wants host:port, got `{backend}`")));
        router.attach(resolved);
        eprintln!("xknn router: attached backend {resolved}");
    }
    if let Some(n) = arg("--spawn") {
        let n: usize = n.parse().unwrap_or_else(|_| fail("--spawn must be an integer"));
        let xknn = std::env::current_exe()
            .unwrap_or_else(|e| fail(&format!("cannot locate own binary: {e}")));
        let mut extra = Vec::new();
        for &flag in FORWARDED_FLAGS {
            if let Some(v) = arg(flag) {
                extra.push(flag.to_string());
                extra.push(v);
            }
        }
        for _ in 0..n {
            let backend = router
                .spawn_backend(&xknn, &extra)
                .unwrap_or_else(|e| router_fail(&router, &format!("cannot spawn backend: {e}")));
            eprintln!("xknn router: spawned backend {} (pid-owned)", backend.addr);
        }
    }
    if router.pool().is_empty() {
        fail("router needs at least one backend (--backend and/or --spawn)");
    }
    for spec in args_all("--data") {
        let (name, path) = spec.split_once('=').unwrap_or_else(|| {
            router_fail(&router, &format!("--data wants name=<file>, got `{spec}`"))
        });
        let replicas = router
            .load(name, knn_cluster::LoadSource::Path(path), None)
            .unwrap_or_else(|e| router_fail(&router, &e));
        eprintln!("xknn router: loaded `{name}` on replicas {replicas:?}");
    }
    // The resolved address on stdout (and flushed), like `xknn serve`.
    println!("listening on {}", router.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if let Err(e) = router.serve() {
        fail(&format!("router failed: {e}"));
    }
}

fn single_query(command: String, data: explainable_knn::cli::ParsedData) {
    let point_s = arg("--point").unwrap_or_else(|| fail("--point \"v1,v2,...\" is required"));
    let x = parse_point(&point_s).unwrap_or_else(|e| fail(&e));

    let metric = MetricChoice::parse(&arg("--metric").unwrap_or_else(|| "l2".into()))
        .unwrap_or_else(|e| fail(&e));
    let k: u32 = arg("--k")
        .map(|s| s.parse().unwrap_or_else(|_| fail("--k must be an integer")))
        .unwrap_or(1);
    let features = arg("--features")
        .map(|s| parse_indices(&s, data.continuous.dim()).unwrap_or_else(|e| fail(&e)));

    match run_query(&data, metric, k, &command, &x, features.as_deref()) {
        Err(e) => fail(&e),
        Ok(QueryOutput::Label(l)) => println!("label: {l}"),
        Ok(QueryOutput::Reason(r)) => {
            println!("sufficient reason ({} of {} features): {r:?}", r.len(), x.len());
        }
        Ok(QueryOutput::Check { sufficient: true, .. }) => println!("sufficient: yes"),
        Ok(QueryOutput::Check { sufficient: false, witness }) => {
            println!("sufficient: no");
            if let Some(w) = witness {
                println!("counterexample (same fixed features, different label): {w:?}");
            }
        }
        Ok(QueryOutput::Counterfactual { point, dist, proven }) => {
            println!("counterfactual: {point:?}");
            println!(
                "distance: {dist} ({})",
                if proven { "proven optimal" } else { "heuristic upper bound" }
            );
        }
        Ok(QueryOutput::NoCounterfactual) => println!("no counterfactual exists"),
    }
}
