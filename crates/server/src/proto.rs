//! The server's wire protocol: newline-delimited JSON over TCP.
//!
//! Every request line is one JSON object. Explanation queries are the
//! engine's wire format plus a `dataset` member naming the tenant; control
//! verbs manage the registry and observe the server:
//!
//! ```text
//! {"verb":"load","name":"demo","path":"data/demo_boolean.txt"}
//! {"verb":"load","name":"inline","text":"+ 1 1\n- 0 0"}
//! {"verb":"list"}
//! {"dataset":"demo","id":"q1","cmd":"classify","metric":"hamming","point":[1,0,1]}
//! {"verb":"query","dataset":"demo","cmd":"counterfactual","point":[1,0,1]}
//! {"verb":"insert","name":"demo","label":"+","point":[1,1,0]}
//! {"verb":"remove","name":"demo","index":3}
//! {"verb":"stats"}
//! {"verb":"metrics"}
//! {"verb":"top"}
//! {"verb":"slo","name":"demo","quantile":0.99,"threshold_us":5000,"windows":6}
//! {"verb":"slo","name":"demo"}
//! {"verb":"slow"}
//! {"verb":"trace","trace":"t-42"}
//! {"verb":"dump"}
//! {"verb":"fill","name":"demo","epoch":0,"req":"{\"cmd\":...}","resp":"{\"id\":...}"}
//! {"verb":"repro","trace":"t-42"}
//! {"verb":"repro","conn":3,"seq":17}
//! {"verb":"repro","name":"demo"}
//! {"verb":"audit"}
//! {"verb":"audit","sample":32}
//! {"verb":"unload","name":"demo"}
//! {"verb":"ping"}
//! {"verb":"quit"}
//! ```
//!
//! A line with a `cmd` member and no `verb` is a query (the common case). The
//! server answers every non-blank request line with exactly one JSON response
//! line, in request order per connection; malformed lines — bad JSON, invalid
//! UTF-8, unknown verbs — get an `{"ok":false,...}` response on the same
//! connection, never a disconnect. `id` is echoed when present and defaults
//! to the 1-based line number, exactly like `xknn batch`.
//!
//! Control verbs are a **connection-level barrier**: one executes only after
//! every earlier query on the same connection has completed, so a pipelined
//! `stats` reports counters that include those queries, and `unload` / `quit`
//! take effect at a well-defined point in the stream.
//!
//! ## Mutation and reload semantics
//!
//! * `insert` appends one labeled point to a loaded tenant; `remove` drops
//!   the point at a 0-based index (later points shift down). Both bump the
//!   tenant's **version** (epoch) by one and answer with the new version
//!   and point count. As control verbs they run at the connection barrier:
//!   queries pipelined before a mutation answer against the old version,
//!   queries after it against the new one — and after any mutation
//!   sequence, every response is byte-identical to a server freshly loaded
//!   with the final dataset.
//! * `load` of an already-loaded name **atomically replaces** the tenant: a
//!   new engine at version 0, fresh caches and counters. Queries in flight
//!   against the old engine finish against it; queries parsed after the
//!   barrier see the replacement.
//! * `load` may carry `"replay":[{"op":"insert","label":"+","point":[...]},
//!   {"op":"remove","index":0},...]` — the mutation log to re-apply on top
//!   of the loaded text *before* the tenant becomes visible. The cluster
//!   router's reconciler uses this to bring an amnesiac-restarted replica
//!   back to the exact version (and bytes) of its peers in one atomic step.

use knn_engine::json::{parse_bytes, Value};
use knn_engine::{Mutation, Request, Response};
use knn_space::Label;
use knn_telemetry::SloObjective;

/// One parsed request line: the resolved response id plus the command.
#[derive(Clone, Debug, PartialEq)]
pub struct Parsed {
    /// `id` member if present, else the caller's default (the line number).
    pub id: String,
    /// What to do.
    pub command: Command,
}

/// The verbs of the protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// An explanation query against the named tenant.
    Query {
        /// Tenant name.
        dataset: String,
        /// The engine request.
        request: Request,
    },
    /// Register a dataset from a server-side file or inline text, atomically
    /// replacing any tenant already under that name.
    Load {
        /// Tenant name to register.
        name: String,
        /// Server-side file path (mutually exclusive with `text`).
        path: Option<String>,
        /// Inline dataset text (mutually exclusive with `path`).
        text: Option<String>,
        /// Mutations to re-apply on top of the loaded text before the
        /// tenant becomes visible (the cluster reconciler's log replay).
        replay: Vec<Mutation>,
    },
    /// Drop a tenant.
    Unload {
        /// Tenant name to drop.
        name: String,
    },
    /// Append one labeled point to a tenant (bumps its version).
    Insert {
        /// Tenant name.
        name: String,
        /// The new point's label.
        label: Label,
        /// The new point.
        point: Vec<f64>,
    },
    /// Remove the point at a 0-based index from a tenant (bumps its
    /// version; later points shift down).
    Remove {
        /// Tenant name.
        name: String,
        /// The index to remove.
        index: usize,
    },
    /// Enumerate tenants.
    List,
    /// Cache / admission / per-tenant counters.
    Stats,
    /// Prometheus text exposition of the process's latency histograms and
    /// engine counters (out-of-band; empty until telemetry is enabled).
    Metrics,
    /// One JSON line ranking tenants by estimated resident bytes, with
    /// their request rate and SLO burn — the cluster router sums/merges
    /// this across backends.
    Top,
    /// Set (when `objective` is present) or read a tenant's latency
    /// objective and burn-rate status.
    Slo {
        /// Tenant name.
        name: String,
        /// `Some` sets/replaces the objective; `None` reads the status.
        objective: Option<SloObjective>,
    },
    /// Drain the slow-query ring: the worst-N queries by wall time since
    /// the last drain, with per-phase breakdowns.
    Slow,
    /// Reconstruct the span tree of one traced query from the flight
    /// recorder (the router fans this out and stitches backend trees under
    /// its own dispatch spans).
    Trace {
        /// The trace id the query carried.
        trace: String,
    },
    /// Export the flight recorder's retained spans as Chrome trace-event
    /// JSON (`chrome://tracing` / Perfetto).
    Dump,
    /// Install an explanation computed by a peer replica into a tenant's
    /// cache (the cluster router's cross-replica cache fill). Best-effort:
    /// an epoch mismatch or an already-present entry answers `ok` with
    /// `"filled":false` rather than an error — stale fills racing
    /// mutations are expected, not exceptional.
    Fill {
        /// Tenant name.
        name: String,
        /// The epoch the entry was computed at; the engine drops the fill
        /// unless it is still exactly the current epoch.
        epoch: u64,
        /// The originating query (shipped as its request line; the cache
        /// key is recomputed from it on the receiving side).
        request: Request,
        /// The computed answer (shipped as its response line).
        response: Response,
    },
    /// Export a self-contained repro bundle (seed text + replay ops +
    /// captured request/response lines) from the black-box capture ring.
    /// Exactly one selector: a trace id, a `(conn, seq)` capture reference
    /// (the `slow` verb's drill-down link), or a tenant name (every
    /// retained capture for that tenant).
    Repro {
        /// Select every capture carrying this trace id.
        trace: Option<String>,
        /// With `seq`: select one capture by its `(conn, seq)` reference.
        conn: Option<u64>,
        /// See `conn`.
        seq: Option<u64>,
        /// Select every retained capture for this tenant.
        name: Option<String>,
    },
    /// Read the shadow audit's counters, or set its sampling rate when
    /// `sample` is present (1-in-N; 0 turns the audit off).
    Audit {
        /// `Some` sets the election rate; `None` reads the status.
        sample: Option<u64>,
    },
    /// Liveness probe.
    Ping,
    /// Close this connection (after the response).
    Quit,
    /// Stop the whole server (after the response).
    Shutdown,
}

fn member_str(v: &Value, key: &str, what: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::String(s)) => Ok(s.clone()),
        Some(_) => Err(format!("`{key}` must be a string ({what})")),
        None => Err(format!("missing `{key}` ({what})")),
    }
}

/// Parses a `"label"` member: `"+"` / `"-"`.
fn member_label(v: &Value) -> Result<Label, String> {
    match member_str(v, "label", "the point's class")?.as_str() {
        "+" => Ok(Label::Positive),
        "-" => Ok(Label::Negative),
        other => Err(format!("`label` must be \"+\" or \"-\", got `{other}`")),
    }
}

/// Parses a `"point"` member: a non-empty array of finite numbers. (The
/// engine re-validates dimension and finiteness; this keeps wire errors
/// early and uniform.)
fn member_point(v: &Value) -> Result<Vec<f64>, String> {
    let arr = match v.get("point") {
        Some(Value::Array(a)) => a,
        Some(_) => return Err("`point` must be an array".into()),
        None => return Err("missing `point` array".into()),
    };
    if arr.is_empty() {
        return Err("`point` must not be empty".into());
    }
    arr.iter()
        .map(|x| x.as_f64().ok_or_else(|| "`point` must contain numbers".to_string()))
        .collect()
}

/// Parses a non-negative integer member as `usize`.
fn member_index(v: &Value, key: &str) -> Result<usize, String> {
    match v.get(key) {
        Some(x) => x
            .as_u64()
            .map(|u| u as usize)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
        None => Err(format!("missing `{key}`")),
    }
}

/// Parses the optional `"replay"` member of `load`: the mutation log to
/// re-apply on top of the loaded text. The item format is the canonical
/// repro-bundle op shape, so the parsing is shared with
/// [`knn_engine::bundle`].
fn member_replay(v: &Value) -> Result<Vec<Mutation>, String> {
    let items = match v.get("replay") {
        None => return Ok(Vec::new()),
        Some(Value::Array(items)) => items,
        Some(_) => return Err("`replay` must be an array".into()),
    };
    items.iter().map(knn_engine::bundle::mutation_from_op).collect()
}

/// Parses one request line. Total over arbitrary bytes: any input yields
/// `Ok` or `Err`, never a panic (the engine's JSON parser is byte-total).
pub fn parse_line(line: &[u8], default_id: &str) -> Result<Parsed, String> {
    parse_line_value(line, default_id).map(|(parsed, _)| parsed)
}

/// [`parse_line`], also handing back the parsed [`Value`] so callers that
/// need envelope members the protocol doesn't model (the cluster router's
/// `"replicas"` hint, its has-`id` check) don't parse the line twice.
pub fn parse_line_value(line: &[u8], default_id: &str) -> Result<(Parsed, Value), String> {
    let v = parse_bytes(line)?;
    if !matches!(v, Value::Object(_)) {
        return Err("request must be a JSON object".into());
    }
    let id = match v.get("id") {
        None => default_id.to_string(),
        Some(Value::String(s)) => s.clone(),
        Some(Value::Number(n)) => Value::Number(*n).to_json(),
        Some(_) => return Err("`id` must be a string or number".into()),
    };
    let verb = match v.get("verb") {
        None if v.get("cmd").is_some() => "query".to_string(),
        None => return Err("missing `verb` (or `cmd` + `dataset` for a query)".into()),
        Some(Value::String(s)) => s.clone(),
        Some(_) => return Err("`verb` must be a string".into()),
    };
    let command = match verb.as_str() {
        "query" => {
            let dataset = member_str(&v, "dataset", "the tenant to query")?;
            let request = Request::from_value(&v, default_id)?;
            Command::Query { dataset, request }
        }
        "load" => {
            let name = member_str(&v, "name", "the tenant name to register")?;
            let path = match v.get("path") {
                None => None,
                Some(Value::String(s)) => Some(s.clone()),
                Some(_) => return Err("`path` must be a string".into()),
            };
            let text = match v.get("text") {
                None => None,
                Some(Value::String(s)) => Some(s.clone()),
                Some(_) => return Err("`text` must be a string".into()),
            };
            if path.is_some() == text.is_some() {
                return Err("load needs exactly one of `path` or `text`".into());
            }
            Command::Load { name, path, text, replay: member_replay(&v)? }
        }
        "unload" => Command::Unload { name: member_str(&v, "name", "the tenant to drop")? },
        "insert" => Command::Insert {
            name: member_str(&v, "name", "the tenant to mutate")?,
            label: member_label(&v)?,
            point: member_point(&v)?,
        },
        "remove" => Command::Remove {
            name: member_str(&v, "name", "the tenant to mutate")?,
            index: member_index(&v, "index")?,
        },
        "list" => Command::List,
        "stats" => Command::Stats,
        "metrics" => Command::Metrics,
        "top" => Command::Top,
        "slo" => {
            let name = member_str(&v, "name", "the tenant whose objective to set or read")?;
            let objective = match v.get("threshold_us") {
                None => None,
                Some(x) => {
                    let threshold_us = x
                        .as_u64()
                        .ok_or_else(|| "`threshold_us` must be a non-negative integer".to_string())?;
                    let quantile = match v.get("quantile") {
                        None => SloObjective::default().quantile,
                        Some(q) => {
                            q.as_f64().ok_or_else(|| "`quantile` must be a number".to_string())?
                        }
                    };
                    let windows = match v.get("windows") {
                        None => SloObjective::default().windows,
                        Some(w) => w
                            .as_u64()
                            .ok_or_else(|| "`windows` must be a positive integer".to_string())?
                            as usize,
                    };
                    Some(SloObjective { quantile, threshold_us, windows })
                }
            };
            Command::Slo { name, objective }
        }
        "slow" => Command::Slow,
        "trace" => Command::Trace { trace: member_str(&v, "trace", "the trace id to look up")? },
        "dump" => Command::Dump,
        "fill" => {
            let name = member_str(&v, "name", "the tenant to fill")?;
            let epoch = match v.get("epoch") {
                Some(x) => {
                    x.as_u64().ok_or_else(|| "`epoch` must be a non-negative integer".to_string())?
                }
                None => return Err("missing `epoch`".into()),
            };
            let req_line = member_str(&v, "req", "the originating request line")?;
            let request = Request::from_json_line(&req_line, "fill")
                .map_err(|e| format!("bad `req`: {e}"))?;
            let resp_line = member_str(&v, "resp", "the computed response line")?;
            let response = Response::from_json_line(&resp_line)
                .map_err(|e| format!("bad `resp`: {e}"))?;
            Command::Fill { name, epoch, request, response }
        }
        "repro" => {
            let trace = match v.get("trace") {
                None => None,
                Some(Value::String(s)) => Some(s.clone()),
                Some(_) => return Err("`trace` must be a string".into()),
            };
            let name = match v.get("name") {
                None => None,
                Some(Value::String(s)) => Some(s.clone()),
                Some(_) => return Err("`name` must be a string".into()),
            };
            let conn = match v.get("conn") {
                None => None,
                Some(x) => Some(
                    x.as_u64().ok_or_else(|| "`conn` must be a non-negative integer".to_string())?,
                ),
            };
            let seq = match v.get("seq") {
                None => None,
                Some(x) => Some(
                    x.as_u64().ok_or_else(|| "`seq` must be a non-negative integer".to_string())?,
                ),
            };
            if conn.is_some() != seq.is_some() {
                return Err("`conn` and `seq` select a capture together".into());
            }
            if trace.is_none() && conn.is_none() && name.is_none() {
                return Err(
                    "repro needs a selector: `trace`, `conn`+`seq`, or a tenant `name`".into()
                );
            }
            Command::Repro { trace, conn, seq, name }
        }
        "audit" => Command::Audit {
            sample: match v.get("sample") {
                None => None,
                Some(x) => Some(
                    x.as_u64()
                        .ok_or_else(|| "`sample` must be a non-negative integer".to_string())?,
                ),
            },
        },
        "ping" => Command::Ping,
        "quit" => Command::Quit,
        "shutdown" => Command::Shutdown,
        other => {
            return Err(format!(
            "unknown verb `{other}` (try query, load, unload, insert, remove, list, stats, metrics, top, slo, slow, trace, dump, fill, repro, audit, ping, quit, shutdown)"
        ))
        }
    };
    Ok((Parsed { id, command }, v))
}

/// An `{"id":...,"ok":false,"error":...}` line, byte-compatible with the
/// engine's error responses.
pub fn error_line(id: &str, msg: &str) -> String {
    Response { id: id.to_string(), route: "error".to_string(), result: Err(msg.to_string()) }
        .to_json_line()
}

/// The error line answering a request that names no loaded tenant.
pub fn no_dataset_line(id: &str, name: &str) -> String {
    error_line(id, &format!("no dataset named `{name}` (try the load verb)"))
}

/// An `{"id":...,"ok":true,...}` control response with `extra` members in
/// the given (deterministic) order.
pub fn ok_line(id: &str, extra: Vec<(String, Value)>) -> String {
    let mut members = vec![
        ("id".to_string(), Value::String(id.to_string())),
        ("ok".to_string(), Value::Bool(true)),
    ];
    members.extend(extra);
    Value::Object(members).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_with_and_without_verb() {
        let a = parse_line(br#"{"dataset":"d","cmd":"classify","point":[1]}"#, "7").unwrap();
        let b = parse_line(br#"{"verb":"query","dataset":"d","cmd":"classify","point":[1]}"#, "7")
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.id, "7");
        let Command::Query { dataset, request } = a.command else { panic!() };
        assert_eq!(dataset, "d");
        assert_eq!(request.id, "7");
    }

    #[test]
    fn control_verbs_parse() {
        let p =
            parse_line(br#"{"id":"x","verb":"load","name":"d","text":"+ 1\n- 0"}"#, "1").unwrap();
        assert_eq!(p.id, "x");
        assert!(matches!(p.command, Command::Load { .. }));
        for (line, want) in [
            (&br#"{"verb":"list"}"#[..], Command::List),
            (br#"{"verb":"stats"}"#, Command::Stats),
            (br#"{"verb":"metrics"}"#, Command::Metrics),
            (br#"{"verb":"top"}"#, Command::Top),
            (br#"{"verb":"slo","name":"n"}"#, Command::Slo { name: "n".into(), objective: None }),
            (
                br#"{"verb":"slo","name":"n","threshold_us":5000}"#,
                Command::Slo {
                    name: "n".into(),
                    objective: Some(SloObjective { threshold_us: 5000, ..SloObjective::default() }),
                },
            ),
            (
                br#"{"verb":"slo","name":"n","quantile":0.5,"threshold_us":100,"windows":3}"#,
                Command::Slo {
                    name: "n".into(),
                    objective: Some(SloObjective { quantile: 0.5, threshold_us: 100, windows: 3 }),
                },
            ),
            (br#"{"verb":"slow"}"#, Command::Slow),
            (br#"{"verb":"trace","trace":"t-1"}"#, Command::Trace { trace: "t-1".into() }),
            (br#"{"verb":"dump"}"#, Command::Dump),
            (
                br#"{"verb":"repro","trace":"t-1"}"#,
                Command::Repro { trace: Some("t-1".into()), conn: None, seq: None, name: None },
            ),
            (
                br#"{"verb":"repro","conn":3,"seq":17}"#,
                Command::Repro { trace: None, conn: Some(3), seq: Some(17), name: None },
            ),
            (
                br#"{"verb":"repro","name":"d"}"#,
                Command::Repro { trace: None, conn: None, seq: None, name: Some("d".into()) },
            ),
            (br#"{"verb":"audit"}"#, Command::Audit { sample: None }),
            (br#"{"verb":"audit","sample":32}"#, Command::Audit { sample: Some(32) }),
            (br#"{"verb":"audit","sample":0}"#, Command::Audit { sample: Some(0) }),
            (br#"{"verb":"ping"}"#, Command::Ping),
            (br#"{"verb":"quit"}"#, Command::Quit),
            (br#"{"verb":"shutdown"}"#, Command::Shutdown),
            (br#"{"verb":"unload","name":"n"}"#, Command::Unload { name: "n".into() }),
            (
                br#"{"verb":"insert","name":"n","label":"+","point":[1,0.5]}"#,
                Command::Insert { name: "n".into(), label: Label::Positive, point: vec![1.0, 0.5] },
            ),
            (
                br#"{"verb":"remove","name":"n","index":3}"#,
                Command::Remove { name: "n".into(), index: 3 },
            ),
        ] {
            assert_eq!(parse_line(line, "1").unwrap().command, want);
        }
    }

    #[test]
    fn fill_verb_parses_embedded_lines() {
        let line = br#"{"id":"f","verb":"fill","name":"hot","epoch":3,"req":"{\"id\":\"q\",\"cmd\":\"classify\",\"point\":[1,0]}","resp":"{\"id\":\"q\",\"ok\":true,\"route\":\"kdtree\",\"label\":\"+\"}"}"#;
        let p = parse_line(line, "1").unwrap();
        assert_eq!(p.id, "f");
        let Command::Fill { name, epoch, request, response } = p.command else {
            panic!("not a fill")
        };
        assert_eq!((name.as_str(), epoch), ("hot", 3));
        assert_eq!(request.point, vec![1.0, 0.0]);
        assert_eq!(response.to_json_line(), r#"{"id":"q","ok":true,"route":"kdtree","label":"+"}"#);
    }

    #[test]
    fn load_replay_parses() {
        let p = parse_line(
            br#"{"verb":"load","name":"d","text":"+ 1\n- 0","replay":[{"op":"insert","label":"-","point":[0.25]},{"op":"remove","index":0}]}"#,
            "1",
        )
        .unwrap();
        let Command::Load { replay, .. } = p.command else { panic!() };
        assert_eq!(
            replay,
            vec![
                Mutation::Insert { point: vec![0.25], label: Label::Negative },
                Mutation::Remove { id: 0 },
            ]
        );
        let empty = parse_line(br#"{"verb":"load","name":"d","text":"+ 1"}"#, "1").unwrap();
        let Command::Load { replay, .. } = empty.command else { panic!() };
        assert!(replay.is_empty());
    }

    #[test]
    fn malformed_lines_rejected_not_panicking() {
        for bad in [
            &b"not json"[..],
            b"[1,2]",
            b"{\"verb\":\"fly\"}",
            b"{\"verb\":\"load\",\"name\":\"d\"}",
            b"{\"verb\":\"load\",\"name\":\"d\",\"path\":\"p\",\"text\":\"t\"}",
            b"{\"cmd\":\"classify\",\"point\":[1]}", // query without dataset
            b"{\"verb\":\"query\",\"dataset\":\"d\"}", // query without cmd
            b"\xff\xfe{\"verb\":\"ping\"}",          // invalid UTF-8
            b"{\"verb\":42}",
            b"{\"verb\":\"insert\",\"name\":\"d\",\"point\":[1]}", // no label
            b"{\"verb\":\"insert\",\"name\":\"d\",\"label\":\"x\",\"point\":[1]}",
            b"{\"verb\":\"insert\",\"name\":\"d\",\"label\":\"+\",\"point\":[]}",
            b"{\"verb\":\"remove\",\"name\":\"d\"}", // no index
            b"{\"verb\":\"remove\",\"name\":\"d\",\"index\":-1}",
            b"{\"verb\":\"trace\"}", // no trace id
            b"{\"verb\":\"trace\",\"trace\":7}",
            b"{\"verb\":\"slo\"}", // no tenant name
            b"{\"verb\":\"slo\",\"name\":\"d\",\"threshold_us\":\"fast\"}",
            b"{\"verb\":\"slo\",\"name\":\"d\",\"threshold_us\":1,\"quantile\":\"p99\"}",
            b"{\"verb\":\"slo\",\"name\":\"d\",\"threshold_us\":1,\"windows\":-2}",
            b"{\"verb\":\"load\",\"name\":\"d\",\"text\":\"+ 1\",\"replay\":[{\"op\":\"fly\"}]}",
            b"{\"verb\":\"repro\"}", // no selector
            b"{\"verb\":\"repro\",\"conn\":1}", // conn without seq
            b"{\"verb\":\"repro\",\"seq\":1}", // seq without conn
            b"{\"verb\":\"repro\",\"trace\":7}",
            b"{\"verb\":\"repro\",\"conn\":-1,\"seq\":0}",
            b"{\"verb\":\"audit\",\"sample\":\"fast\"}",
            b"{\"verb\":\"audit\",\"sample\":-4}",
            b"{\"verb\":\"fill\",\"name\":\"d\"}", // no epoch/req/resp
            b"{\"verb\":\"fill\",\"name\":\"d\",\"epoch\":0,\"req\":\"not json\",\"resp\":\"{}\"}",
            b"{\"verb\":\"fill\",\"name\":\"d\",\"epoch\":0,\"req\":\"{\\\"cmd\\\":\\\"classify\\\",\\\"point\\\":[1]}\",\"resp\":\"nope\"}",
        ] {
            assert!(parse_line(bad, "1").is_err());
        }
    }

    #[test]
    fn response_builders_are_deterministic() {
        assert_eq!(error_line("3", "boom"), r#"{"id":"3","ok":false,"error":"boom"}"#);
        assert_eq!(
            ok_line("x", vec![("pong".into(), Value::Bool(true))]),
            r#"{"id":"x","ok":true,"pong":true}"#
        );
    }
}
