//! Repro bundles: self-contained, deterministic reproduction artifacts.
//!
//! A bundle packages everything needed to re-derive a set of served
//! response lines from scratch in a fresh process: the tenant's **seed
//! text** (the dataset as loaded), the **replay ops** that took it from
//! epoch 0 to the latest captured epoch (the same canonical
//! `{"op":...}` items the `load` verb's `"replay"` member takes), the
//! **engine config** members that influence response bytes, and the
//! captured `(request line, served response line)` pairs tagged with the
//! epoch each ran at.
//!
//! Why this is sound: the stack's load-bearing invariant says every
//! response line is a pure function of `(dataset at the query's epoch,
//! config, request)`. The seed plus a prefix of the replay ops
//! reconstructs the dataset at *any* captured epoch bit-for-bit (mutations
//! keep the survivors' order, and `knn_delta::dataset_text` prints
//! shortest-roundtrip floats), so re-executing a captured
//! request in a fresh engine must reproduce the served bytes exactly —
//! any diff is a real divergence (broken build, corrupted state, or a
//! violated invariant), never replay noise.
//!
//! Serialization is the engine's deterministic JSON writer over a
//! canonical member order, so `serialize → parse → serialize` is
//! byte-identical (pinned by proptest).

use crate::json::{parse, Value};
use crate::{textfmt, EngineConfig, ExplanationEngine, Mutation, Request, Response};
use knn_space::Label;

/// Format tag of the bundle envelope (`"xknn_bundle"` member).
pub const BUNDLE_VERSION: u64 = 1;

/// One captured query inside a bundle: the raw request line, the served
/// response line, and where/when it ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BundleEntry {
    /// Server connection the query arrived on.
    pub conn: u64,
    /// Line number within that connection (the server's default id).
    pub seq: u64,
    /// Backend id when the bundle was assembled by the cluster router
    /// (entries from different backends may share `(conn, seq)`).
    pub backend: Option<u64>,
    /// Dataset epoch the served answer was computed at.
    pub epoch: u64,
    /// Flight-recorder trace id, if the query was traced.
    pub trace: Option<String>,
    /// The raw request line, byte-exact.
    pub request: String,
    /// The served response line, byte-exact — what replay must reproduce.
    pub response: String,
}

/// A self-contained reproduction artifact (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct ReproBundle {
    /// Tenant name (labels the bundle; replay loads it as this name).
    pub tenant: String,
    /// The engine config the responses were served under. `workers` is
    /// parallelism only, but `effort_budget` (plan demotion) changes
    /// response bytes and the rest is carried for faithfulness.
    pub config: EngineConfig,
    /// The dataset seed in `+/-` text form (epoch 0).
    pub seed: String,
    /// The mutations applied since the seed, oldest first: op `i` is the
    /// epoch `i → i+1` transition, so a prefix of length `e` reconstructs
    /// epoch `e` exactly.
    pub replay: Vec<Mutation>,
    /// The captured queries to re-execute.
    pub entries: Vec<BundleEntry>,
}

/// Builds the canonical `{"op":...}` JSON value for a mutation — the one
/// wire encoding of a mutation: the `load` verb's `"replay"` items, a
/// bundle's `replay`, and (with `op` as the verb) the router's mutation
/// fan-out lines.
pub fn mutation_to_op(m: &Mutation) -> Value {
    match m {
        Mutation::Insert { point, label } => Value::Object(vec![
            ("op".to_string(), Value::String("insert".to_string())),
            ("label".to_string(), Value::String(label.to_string())),
            ("point".to_string(), Value::Array(point.iter().map(|v| Value::Number(*v)).collect())),
        ]),
        Mutation::Remove { id } => Value::Object(vec![
            ("op".to_string(), Value::String("remove".to_string())),
            ("index".to_string(), Value::Number(*id as f64)),
        ]),
    }
}

/// Parses one canonical `{"op":...}` item back into a [`Mutation`] — the
/// inverse of [`mutation_to_op`], shared with the server protocol's
/// `load`-replay parsing.
pub fn mutation_from_op(v: &Value) -> Result<Mutation, String> {
    if !matches!(v, Value::Object(_)) {
        return Err("replay items must be objects".into());
    }
    match v.get("op").and_then(Value::as_str) {
        Some("insert") => {
            let label = match v.get("label").and_then(Value::as_str) {
                Some("+") => Label::Positive,
                Some("-") => Label::Negative,
                _ => return Err("insert ops need `label` of \"+\" or \"-\"".into()),
            };
            let point = match v.get("point") {
                Some(Value::Array(a)) if !a.is_empty() => a
                    .iter()
                    .map(|x| x.as_f64().ok_or_else(|| "`point` must contain numbers".to_string()))
                    .collect::<Result<Vec<f64>, String>>()?,
                _ => return Err("insert ops need a non-empty `point` array".into()),
            };
            Ok(Mutation::Insert { point, label })
        }
        Some("remove") => match v.get("index").and_then(Value::as_u64) {
            Some(id) => Ok(Mutation::Remove { id: id as usize }),
            None => Err("remove ops need a non-negative `index`".into()),
        },
        _ => Err("replay items need `op` of \"insert\" or \"remove\"".into()),
    }
}

fn member_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("bundle member `{key}` must be a non-negative integer"))
}

fn member_string(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::String(s)) => Ok(s.clone()),
        _ => Err(format!("bundle member `{key}` must be a string")),
    }
}

impl BundleEntry {
    fn to_value(&self) -> Value {
        let mut members = vec![
            ("conn".to_string(), Value::Number(self.conn as f64)),
            ("seq".to_string(), Value::Number(self.seq as f64)),
        ];
        if let Some(b) = self.backend {
            members.push(("backend".to_string(), Value::Number(b as f64)));
        }
        members.push(("epoch".to_string(), Value::Number(self.epoch as f64)));
        if let Some(t) = &self.trace {
            members.push(("trace".to_string(), Value::String(t.clone())));
        }
        members.push(("request".to_string(), Value::String(self.request.clone())));
        members.push(("response".to_string(), Value::String(self.response.clone())));
        Value::Object(members)
    }

    fn from_value(v: &Value) -> Result<BundleEntry, String> {
        Ok(BundleEntry {
            conn: member_u64(v, "conn")?,
            seq: member_u64(v, "seq")?,
            backend: match v.get("backend") {
                None => None,
                Some(x) => Some(
                    x.as_u64().ok_or("bundle member `backend` must be a non-negative integer")?,
                ),
            },
            epoch: member_u64(v, "epoch")?,
            trace: match v.get("trace") {
                None => None,
                Some(Value::String(s)) => Some(s.clone()),
                Some(_) => return Err("bundle member `trace` must be a string".into()),
            },
            request: member_string(v, "request")?,
            response: member_string(v, "response")?,
        })
    }
}

/// One replayed entry whose re-executed bytes differ from the served ones.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayDivergence {
    /// Capture reference of the diverged entry.
    pub conn: u64,
    /// See `conn`.
    pub seq: u64,
    /// Backend id when router-assembled.
    pub backend: Option<u64>,
    /// Epoch the entry was served (and replayed) at.
    pub epoch: u64,
    /// The served response line the bundle recorded.
    pub expected: String,
    /// The line the replay produced instead.
    pub got: String,
}

/// The outcome of [`ReproBundle::replay`].
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayReport {
    /// Tenant replayed.
    pub tenant: String,
    /// Entries re-executed.
    pub checked: usize,
    /// Epoch the replay engine finished at.
    pub final_epoch: u64,
    /// Entries whose bytes did not match (empty = clean replay).
    pub divergences: Vec<ReplayDivergence>,
}

impl ReproBundle {
    /// Serializes to one canonical JSON line. Deterministic: equal bundles
    /// always produce identical bytes, and parsing the output back
    /// re-serializes to the same bytes.
    pub fn to_json(&self) -> String {
        let mut members = vec![
            ("xknn_bundle".to_string(), Value::Number(BUNDLE_VERSION as f64)),
            ("tenant".to_string(), Value::String(self.tenant.clone())),
            (
                "config".to_string(),
                Value::Object(vec![
                    ("workers".to_string(), Value::Number(self.config.workers as f64)),
                    (
                        "cache_capacity".to_string(),
                        Value::Number(self.config.cache_capacity as f64),
                    ),
                    (
                        "effort_budget".to_string(),
                        match self.config.effort_budget {
                            Some(b) => Value::Number(b as f64),
                            None => Value::Null,
                        },
                    ),
                ]),
            ),
            ("seed".to_string(), Value::String(self.seed.clone())),
            ("replay".to_string(), Value::Array(self.replay.iter().map(mutation_to_op).collect())),
        ];
        members.push((
            "entries".to_string(),
            Value::Array(self.entries.iter().map(BundleEntry::to_value).collect()),
        ));
        Value::Object(members).to_json()
    }

    /// Parses a bundle produced by [`to_json`](ReproBundle::to_json).
    pub fn from_json(text: &str) -> Result<ReproBundle, String> {
        let v = parse(text.trim())?;
        if !matches!(v, Value::Object(_)) {
            return Err("bundle must be a JSON object".into());
        }
        match v.get("xknn_bundle").and_then(Value::as_u64) {
            Some(BUNDLE_VERSION) => {}
            Some(other) => return Err(format!("unsupported bundle version {other}")),
            None => return Err("missing `xknn_bundle` version tag".into()),
        }
        let cfg = v.get("config").ok_or("missing `config`")?;
        // Unknown members are ignored, among them the ℓ2 region-source switch
        // older bundles carry: its two settings served identical bytes.
        let config = EngineConfig {
            workers: member_u64(cfg, "workers")? as usize,
            cache_capacity: member_u64(cfg, "cache_capacity")? as usize,
            effort_budget: match cfg.get("effort_budget") {
                None | Some(Value::Null) => None,
                Some(x) => Some(
                    x.as_u64().ok_or("`effort_budget` must be null or a non-negative integer")?,
                ),
            },
        };
        let replay = match v.get("replay") {
            Some(Value::Array(items)) => {
                items.iter().map(mutation_from_op).collect::<Result<Vec<Mutation>, String>>()?
            }
            _ => return Err("`replay` must be an array".into()),
        };
        let entries = match v.get("entries") {
            Some(Value::Array(items)) => items
                .iter()
                .map(BundleEntry::from_value)
                .collect::<Result<Vec<BundleEntry>, String>>()?,
            _ => return Err("`entries` must be an array".into()),
        };
        Ok(ReproBundle {
            tenant: member_string(&v, "tenant")?,
            config,
            seed: member_string(&v, "seed")?,
            replay,
            entries,
        })
    }

    /// Re-executes every captured entry in a fresh engine and byte-diffs
    /// the results against the recorded response lines.
    ///
    /// Entries are replayed in `(epoch, backend, conn, seq)` order so the
    /// replay engine's epoch only ever advances; each entry's epoch is
    /// reached by applying the bundle's replay-op prefix. The recorded
    /// response line supplies the request's default id (responses always
    /// echo the resolved id, so the server-side line number need not be
    /// known here).
    pub fn replay(&self) -> Result<ReplayReport, String> {
        let data = textfmt::parse_dataset(&self.seed).map_err(|e| format!("bad seed: {e}"))?;
        let engine = ExplanationEngine::new(data, self.config.clone());
        let mut entries: Vec<&BundleEntry> = self.entries.iter().collect();
        entries.sort_by_key(|e| (e.epoch, e.backend, e.conn, e.seq));
        let mut applied: usize = 0;
        let mut divergences = Vec::new();
        for entry in &entries {
            if (entry.epoch as usize) > self.replay.len() {
                return Err(format!(
                    "entry (conn {}, seq {}) at epoch {} but the bundle carries only {} replay ops",
                    entry.conn,
                    entry.seq,
                    entry.epoch,
                    self.replay.len()
                ));
            }
            while (applied as u64) < entry.epoch {
                engine
                    .apply(self.replay[applied].clone())
                    .map_err(|e| format!("replay op {applied} rejected: {e}"))?;
                applied += 1;
            }
            let expected = Response::from_json_line(&entry.response).map_err(|e| {
                format!("entry (conn {}, seq {}): bad response: {e}", entry.conn, entry.seq)
            })?;
            let req =
                Request::from_json_bytes(entry.request.as_bytes(), &expected.id).map_err(|e| {
                    format!("entry (conn {}, seq {}): bad request: {e}", entry.conn, entry.seq)
                })?;
            let got = engine.run(&req).to_json_line();
            if got != entry.response {
                divergences.push(ReplayDivergence {
                    conn: entry.conn,
                    seq: entry.seq,
                    backend: entry.backend,
                    epoch: entry.epoch,
                    expected: entry.response.clone(),
                    got,
                });
            }
        }
        // Drain any trailing ops so the reported final epoch matches the
        // bundle's full log even when the last captures ran earlier.
        while applied < self.replay.len() {
            engine
                .apply(self.replay[applied].clone())
                .map_err(|e| format!("replay op {applied} rejected: {e}"))?;
            applied += 1;
        }
        Ok(ReplayReport {
            tenant: self.tenant.clone(),
            checked: entries.len(),
            final_epoch: engine.epoch(),
            divergences,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> ReproBundle {
        ReproBundle {
            tenant: "hot".to_string(),
            config: EngineConfig::default(),
            seed: "+ 1 1\n+ 1 0.5\n- 0 0\n- 0 0.25\n".to_string(),
            replay: vec![
                Mutation::Insert { point: vec![2.0, 2.0], label: Label::Positive },
                Mutation::Remove { id: 1 },
            ],
            entries: vec![
                BundleEntry {
                    conn: 1,
                    seq: 1,
                    epoch: 0,
                    request: r#"{"id":"a","cmd":"classify","point":[1,1]}"#.to_string(),
                    response: String::new(), // filled by the round-trip test
                    ..BundleEntry::default()
                },
                BundleEntry {
                    conn: 1,
                    seq: 2,
                    backend: Some(1),
                    epoch: 2,
                    trace: Some("t-9".to_string()),
                    request: r#"{"id":"b","cmd":"classify","point":[0,0]}"#.to_string(),
                    response: String::new(),
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_byte_identical() {
        let b = sample_bundle();
        let text = b.to_json();
        let parsed = ReproBundle::from_json(&text).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.to_json(), text);
        assert!(text.starts_with(r#"{"xknn_bundle":1,"tenant":"hot","config":{"workers":0"#));
    }

    #[test]
    fn legacy_region_switch_parses_and_is_dropped() {
        let current = sample_bundle().to_json();
        let without = r#""effort_budget":null}"#;
        assert!(current.contains(without));
        for legacy in ["true", "false"] {
            let with = format!(r#""effort_budget":null,"eager_l2_regions":{legacy}}}"#);
            let text = current.replace(without, &with);
            let parsed = ReproBundle::from_json(&text).unwrap();
            assert_eq!(parsed, sample_bundle());
            assert_eq!(parsed.to_json(), current);
        }
    }

    #[test]
    fn op_values_round_trip_through_their_wire_text() {
        for (m, text) in [
            (
                Mutation::Insert {
                    point: vec![1.0, 0.5, -0.0, 0.30000000000000004],
                    label: Label::Negative,
                },
                r#"{"op":"insert","label":"-","point":[1,0.5,0,0.30000000000000004]}"#,
            ),
            (Mutation::Remove { id: 7 }, r#"{"op":"remove","index":7}"#),
        ] {
            assert_eq!(mutation_to_op(&m).to_json(), text);
            assert_eq!(mutation_from_op(&mutation_to_op(&m)).unwrap(), m);
            assert_eq!(mutation_from_op(&parse(text).unwrap()).unwrap(), m);
        }
    }

    #[test]
    fn malformed_bundles_and_ops_are_rejected() {
        for bad in [
            "not json",
            "[1]",
            r#"{"tenant":"x"}"#,
            r#"{"xknn_bundle":9,"tenant":"x"}"#,
            r#"{"xknn_bundle":1,"tenant":"x","config":{"workers":0,"cache_capacity":0,"eager_l2_regions":false},"seed":"+ 1","replay":[{"op":"fly"}],"entries":[]}"#,
            r#"{"xknn_bundle":1,"tenant":"x","config":{"workers":0,"cache_capacity":0,"eager_l2_regions":false},"seed":"+ 1","replay":[],"entries":[{"conn":0}]}"#,
        ] {
            assert!(ReproBundle::from_json(bad).is_err(), "{bad}");
        }
        assert!(mutation_from_op(&Value::Null).is_err());
        assert!(
            mutation_from_op(&parse(r#"{"op":"insert","label":"+","point":[]}"#).unwrap()).is_err()
        );
        assert!(mutation_from_op(&parse(r#"{"op":"remove"}"#).unwrap()).is_err());
    }

    #[test]
    fn replay_reproduces_and_detects_divergence() {
        // Serve the sample bundle's queries for real to fill in responses.
        let mut b = sample_bundle();
        let data = textfmt::parse_dataset(&b.seed).unwrap();
        let engine = ExplanationEngine::new(data, b.config.clone());
        let req_a = Request::from_json_bytes(b.entries[0].request.as_bytes(), "a").unwrap();
        b.entries[0].response = engine.run(&req_a).to_json_line();
        for op in &b.replay {
            engine.apply(op.clone()).unwrap();
        }
        let req_b = Request::from_json_bytes(b.entries[1].request.as_bytes(), "b").unwrap();
        b.entries[1].response = engine.run(&req_b).to_json_line();

        let report = b.replay().unwrap();
        assert_eq!((report.checked, report.final_epoch), (2, 2));
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);

        // Corrupt one served byte (flip the label): replay must flag
        // exactly that entry.
        let mut corrupt = b.clone();
        corrupt.entries[1].response = if corrupt.entries[1].response.contains("\"label\":\"+\"") {
            corrupt.entries[1].response.replace("\"label\":\"+\"", "\"label\":\"-\"")
        } else {
            corrupt.entries[1].response.replace("\"label\":\"-\"", "\"label\":\"+\"")
        };
        assert_ne!(corrupt.entries[1].response, b.entries[1].response);
        let report = corrupt.replay().unwrap();
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].seq, 2);
        assert_eq!(report.divergences[0].expected, corrupt.entries[1].response);
        assert_eq!(report.divergences[0].got, b.entries[1].response);

        // An entry claiming an epoch past the log is an error, not a diff.
        let mut over = b.clone();
        over.entries[1].epoch = 9;
        assert!(over.replay().unwrap_err().contains("replay ops"));
    }
}
