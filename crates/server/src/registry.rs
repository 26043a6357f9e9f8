//! The dataset registry: named tenants, each owning one
//! [`ExplanationEngine`] behind an `Arc`.
//!
//! Tenants are created by the `load` verb (from a file path on the server or
//! inline text), dropped by `unload`, and enumerated by `list`. A query names
//! its tenant; the engine — and with it the explanation LRU, the single-flight
//! table, and the lazily-built artifacts — is shared by every connection
//! querying that tenant, so one client's cold queries warm the cache for all.
//!
//! Loading an already-loaded name **atomically replaces** the tenant: the
//! replacement (a new engine at version 0, fresh caches and counters) is
//! fully built before the registry pointer swings, so every query observes
//! either the complete old tenant or the complete new one — never a partial
//! state. Unloading (and replacing) only drops the registry's reference:
//! queries already holding the `Arc` finish against the old engine.
//!
//! Mutations (`insert` / `remove` verbs) go through the tenant's shared
//! engine ([`ExplanationEngine::apply`]) and are visible to every
//! connection at once; `load` with a `replay` log applies the mutations
//! *before* the swap, so a replica restored by the cluster reconciler is
//! never observable at an intermediate version.

use crate::admission::Admission;
use knn_engine::bundle::{BundleEntry, ReproBundle};
use knn_engine::{textfmt, EngineConfig, ExplanationEngine, Mutation, MutationReceipt, Request};
use knn_telemetry::{AuditJob, CaptureEntry, QuerySpans, Telemetry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One named dataset and its engine, plus the per-tenant queue counters the
/// `stats` verb reports.
pub struct Tenant {
    /// Registry name.
    pub name: String,
    /// The shared engine (lazily builds its artifacts on first use).
    pub engine: Arc<ExplanationEngine>,
    /// The dataset text this tenant was loaded from — the repro bundle's
    /// seed. The engine compacts its own mutation log to the revalidation
    /// window and keeps no seed, so bundle assembly needs this tenant-level
    /// retention.
    seed: String,
    /// Every mutation applied since the seed, oldest first (`load`-replay
    /// entries included): op `i` is the epoch `i → i+1` transition, so
    /// `ops.len()` always equals the engine's epoch and any captured epoch
    /// is reconstructible. Grows one op per mutation — mutations are
    /// control-verb-rare next to queries, and the points they carry are
    /// exactly what the engine's own dataset holds.
    ops: Mutex<Vec<Mutation>>,
    /// Queries completed against this tenant.
    requests: AtomicU64,
    /// Completed queries whose response was an error.
    errors: AtomicU64,
    /// Queries currently waiting in the admission queue.
    queued: AtomicU64,
    /// Queries currently executing.
    active: AtomicU64,
}

/// A point-in-time snapshot of one tenant's counters.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Registry name.
    pub name: String,
    /// Dataset size.
    pub points: usize,
    /// Positive points.
    pub points_pos: usize,
    /// Negative points.
    pub points_neg: usize,
    /// Dataset dimension.
    pub dim: usize,
    /// Queries completed.
    pub requests: u64,
    /// Error responses among them.
    pub errors: u64,
    /// Currently waiting for admission.
    pub queued: u64,
    /// Currently executing.
    pub active: u64,
    /// The engine's cache / single-flight counters.
    pub engine: knn_engine::EngineStats,
    /// The engine's per-route work counters (sorted by route).
    pub work: Vec<knn_engine::RouteWorkSnapshot>,
}

impl Tenant {
    /// The serving path's one entry: runs one request — waits for a global
    /// admission slot (FIFO), executes, and maintains the tenant's queue
    /// counters — then captures it and may elect it for a shadow audit.
    /// The response bytes are independent of admission order per the
    /// engine's determinism contract. `(conn, seq)` is the query's capture
    /// reference (connection number, line number) and `raw` the request
    /// line exactly as it arrived. Returns the response line to write —
    /// serialized once, shared by the wire, the capture ring, and any
    /// audit job. Capture is always on (like the flight recorder); the
    /// audit enqueue happens 1-in-N and never blocks.
    ///
    /// When the process telemetry is enabled, the end-to-end wall time goes
    /// into the per-(tenant, route) latency histogram and the admission
    /// wait into the phase histograms — out-of-band, never touching
    /// response bytes.
    ///
    /// Capture into the flight recorder is decided once, after the
    /// response line exists: the query's span family (root `query`, its
    /// `admission` child, and the engine's phase children) is recorded when
    /// the query is traced, when one sampler draw fires, or when an anomaly
    /// occurred — an error, a slow query (end-to-end time above the
    /// recorder's slow floor), a failed guard revalidation or a budget
    /// demotion. Traced and anomalous families go to the forced ring, the
    /// `slow` verb's source. `trace_id` is the client's `"trace"` member
    /// (or the router's minted id); untraced queries draw the sampler once.
    /// The root's detail carries `(conn, seq)`, so `slow`/`trace` output
    /// links to a replayable capture.
    pub fn serve(
        &self,
        admission: &Admission,
        req: &Request,
        trace_id: Option<&str>,
        conn: u64,
        seq: u64,
        raw: &str,
    ) -> String {
        let telemetry = self.engine.telemetry().clone();
        let started = Instant::now();
        self.queued.fetch_add(1, Ordering::Relaxed);
        let slot = admission.acquire();
        self.queued.fetch_sub(1, Ordering::Relaxed);
        let admission_us = started.elapsed().as_micros() as u64;
        self.active.fetch_add(1, Ordering::Relaxed);
        let (resp, qt) = self.engine.run_with_trace(req);
        self.active.fetch_sub(1, Ordering::Relaxed);
        drop(slot);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let err = resp.result.is_err();
        if err {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let total_us = started.elapsed().as_micros() as u64;
        if telemetry.is_enabled() {
            telemetry.record_phase(&self.name, "admission", admission_us);
            telemetry.record_route(&self.name, &resp.route, total_us);
        }
        let recorder = telemetry.recorder();
        let spans = QuerySpans {
            trace: trace_id.unwrap_or(""),
            tenant: &self.name,
            id: &resp.id,
            route: &resp.route,
            qt: &qt,
            err,
            slow: total_us > recorder.slow_floor(),
            total_us,
            admission_us: Some(admission_us),
            conn,
            seq,
        };
        let line = resp.to_json_line();
        let sampled = trace_id.is_none() && recorder.sample();
        if trace_id.is_some() || sampled || !spans.anomaly().is_empty() {
            recorder.record_query(&spans);
        }
        let epoch = qt.epoch;
        telemetry.capture().push(CaptureEntry {
            tenant: self.name.clone(),
            epoch,
            conn,
            seq,
            trace: trace_id.map(str::to_string),
            request: raw.to_string(),
            response: line.clone(),
        });
        let audit = telemetry.audit();
        if audit.elect() {
            audit.offer(AuditJob {
                tenant: self.name.clone(),
                epoch,
                id: resp.id.clone(),
                request: raw.to_string(),
                response: line.clone(),
                conn,
                seq,
                trace: trace_id.map(str::to_string),
            });
        }
        line
    }

    /// Applies one mutation through the engine and records it in the
    /// tenant's op log on success. The op-log lock is held across the
    /// engine apply so concurrent mutations append in epoch order —
    /// `ops[i]` is always the epoch `i → i+1` transition.
    pub fn apply_logged(&self, m: Mutation) -> Result<MutationReceipt, String> {
        let mut ops = self.ops.lock().unwrap();
        let receipt = self.engine.apply(m.clone())?;
        ops.push(m);
        debug_assert_eq!(receipt.epoch, ops.len() as u64);
        Ok(receipt)
    }

    /// A repro bundle of this tenant's seed, full op log, and `entries`.
    /// Self-contained: replaying it in a fresh process re-derives every
    /// entry's served bytes (or proves a divergence).
    pub fn bundle_with(&self, entries: Vec<BundleEntry>) -> ReproBundle {
        ReproBundle {
            tenant: self.name.clone(),
            config: self.engine.config().clone(),
            seed: self.seed.clone(),
            replay: self.ops.lock().unwrap().clone(),
            entries,
        }
    }

    /// This tenant's counters.
    pub fn stats(&self) -> TenantStats {
        let data = self.engine.data();
        TenantStats {
            name: self.name.clone(),
            points: data.continuous.len(),
            points_pos: data.continuous.count_of(knn_space::Label::Positive),
            points_neg: data.continuous.count_of(knn_space::Label::Negative),
            dim: data.continuous.dim(),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            engine: self.engine.stats(),
            work: self.engine.work_stats(),
        }
    }
}

/// The name → tenant map. `BTreeMap` so every listing is sorted — response
/// bytes must not depend on hash order.
pub struct Registry {
    engine_config: EngineConfig,
    telemetry: Arc<Telemetry>,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
}

impl Registry {
    /// An empty registry; every loaded tenant gets an engine with
    /// `engine_config`. Telemetry stays disabled (the server constructor
    /// uses [`Registry::with_telemetry`] instead).
    pub fn new(engine_config: EngineConfig) -> Registry {
        Registry::with_telemetry(engine_config, Telemetry::new())
    }

    /// [`Registry::new`] with a shared telemetry registry: every tenant's
    /// engine records its phase timings there under its registry name.
    pub fn with_telemetry(engine_config: EngineConfig, telemetry: Arc<Telemetry>) -> Registry {
        Registry { engine_config, telemetry, tenants: Mutex::new(BTreeMap::new()) }
    }

    /// The telemetry registry shared by every tenant engine.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Parses `text` (the `+/-`-labeled format of [`textfmt`]) and registers
    /// it under `name`, atomically **replacing** any tenant already loaded
    /// under that name (new engine at version 0, fresh caches/counters).
    pub fn load(&self, name: &str, text: &str) -> Result<Arc<Tenant>, String> {
        self.load_with_replay(name, text, &[])
    }

    /// [`Registry::load`], then re-applies `replay` (a mutation log) to the
    /// new engine **before** it is registered: the tenant is never
    /// observable at an intermediate version. A replay failure fails the
    /// whole load — the registry keeps whatever was there before.
    pub fn load_with_replay(
        &self,
        name: &str,
        text: &str,
        replay: &[Mutation],
    ) -> Result<Arc<Tenant>, String> {
        if name.is_empty() {
            return Err("dataset name must not be empty".into());
        }
        let data = textfmt::parse_dataset(text)?;
        let engine = ExplanationEngine::with_telemetry(
            data,
            self.engine_config.clone(),
            self.telemetry.clone(),
            name,
        );
        for (i, m) in replay.iter().enumerate() {
            engine.apply(m.clone()).map_err(|e| format!("replay entry {i}: {e}"))?;
        }
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            engine: Arc::new(engine),
            seed: text.to_string(),
            ops: Mutex::new(replay.to_vec()),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            active: AtomicU64::new(0),
        });
        self.tenants.lock().unwrap().insert(name.to_string(), tenant.clone());
        // Captures recorded against a replaced tenant's old seed are no
        // longer reproducible — drop them so `repro` never lies.
        self.telemetry.capture().purge_tenant(name);
        Ok(tenant)
    }

    /// Drops the tenant named `name`. In-flight queries holding its `Arc`
    /// complete against the old engine. Its black-box captures go with it
    /// (no seed to replay them against anymore).
    pub fn unload(&self, name: &str) -> Result<(), String> {
        match self.tenants.lock().unwrap().remove(name) {
            Some(_) => {
                self.telemetry.capture().purge_tenant(name);
                Ok(())
            }
            None => Err(format!("no dataset named `{name}`")),
        }
    }

    /// The tenant named `name`, if loaded.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.lock().unwrap().get(name).cloned()
    }

    /// All tenants, sorted by name.
    pub fn list(&self) -> Vec<Arc<Tenant>> {
        self.tenants.lock().unwrap().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOOL: &str = "+ 1 1 1\n+ 1 1 0\n- 0 0 0\n- 0 0 1\n";

    #[test]
    fn load_query_unload_lifecycle() {
        let r = Registry::new(EngineConfig::default());
        let t = r.load("toy", BOOL).unwrap();
        assert_eq!(t.stats().points, 4);
        assert_eq!((t.stats().points_pos, t.stats().points_neg), (2, 2));
        assert_eq!(r.list().len(), 1);

        let adm = Admission::new(2);
        let raw = r#"{"cmd":"classify","metric":"hamming","point":[1,1,1]}"#;
        let req = Request::from_json_line(raw, "0").unwrap();
        let line = r.get("toy").unwrap().serve(&adm, &req, None, 0, 0, raw);
        assert!(line.contains(r#""ok":true"#), "{line}");
        let s = r.get("toy").unwrap().stats();
        assert_eq!((s.requests, s.errors, s.queued, s.active), (1, 0, 0, 0));

        r.unload("toy").unwrap();
        assert!(r.get("toy").is_none());
        assert!(r.unload("toy").is_err());
    }

    #[test]
    fn bad_text_is_rejected() {
        let r = Registry::new(EngineConfig::default());
        assert!(r.load("x", "not a dataset").is_err());
        assert!(r.load("", BOOL).is_err());
    }

    #[test]
    fn reload_atomically_replaces_the_tenant() {
        let r = Registry::new(EngineConfig::default());
        let old = r.load("toy", BOOL).unwrap();
        old.engine
            .apply(Mutation::Insert {
                point: vec![1.0, 0.0, 0.0],
                label: knn_space::Label::Positive,
            })
            .unwrap();
        assert_eq!(old.engine.epoch(), 1);

        let new = r.load("toy", "+ 1 1\n- 0 0\n").unwrap();
        assert_eq!(r.list().len(), 1, "replacement, not a second tenant");
        assert_eq!(new.stats().points, 2);
        assert_eq!(new.engine.epoch(), 0, "fresh epoch after reload");
        // The old engine is unchanged for whoever still holds it.
        assert_eq!(old.stats().points, 5);
    }

    #[test]
    fn load_with_replay_arrives_at_the_final_version_atomically() {
        let r = Registry::new(EngineConfig::default());
        let replay = [
            Mutation::Insert { point: vec![1.0, 0.0, 1.0], label: knn_space::Label::Positive },
            Mutation::Remove { id: 0 },
        ];
        let t = r.load_with_replay("toy", BOOL, &replay).unwrap();
        assert_eq!(t.engine.epoch(), 2);
        assert_eq!(t.stats().points, 4);

        // A failing replay keeps the previous tenant intact.
        let bad = [Mutation::Remove { id: 77 }];
        let err = r.load_with_replay("toy", BOOL, &bad).map(|_| ()).unwrap_err();
        assert!(err.contains("replay entry 0"), "{err}");
        assert_eq!(r.get("toy").unwrap().engine.epoch(), 2, "previous tenant survives");
    }

    /// `serve` is `run` plus the black-box: the response lands in the
    /// capture ring tagged with its `(conn, seq)` reference, and
    /// `apply_logged` keeps the tenant's replay ops aligned with the
    /// engine epoch, so `bundle_with` exports a bundle whose offline
    /// replay reproduces the served bytes exactly.
    #[test]
    fn serve_captures_and_bundles_replay_byte_identically() {
        let r = Registry::new(EngineConfig::default());
        let t = r.load("toy", BOOL).unwrap();
        let adm = Admission::new(2);
        let raw =
            r#"{"dataset":"toy","id":"q1","cmd":"classify","metric":"hamming","point":[1,1,1]}"#;
        let req = Request::from_json_line(raw, "q1").unwrap();
        let line = t.serve(&adm, &req, Some("t-1"), 7, 3, raw);

        let entry = r.telemetry().capture().by_ref(7, 3).expect("served response captured");
        assert_eq!((entry.tenant.as_str(), entry.epoch), ("toy", 0));
        assert_eq!((entry.request.as_str(), entry.response.as_str()), (raw, line.as_str()));
        assert_eq!(entry.trace.as_deref(), Some("t-1"));

        t.apply_logged(Mutation::Insert {
            point: vec![0.0, 1.0, 1.0],
            label: knn_space::Label::Positive,
        })
        .unwrap();
        let raw2 =
            r#"{"dataset":"toy","id":"q2","cmd":"classify","metric":"hamming","point":[0,1,1]}"#;
        let req2 = Request::from_json_line(raw2, "q2").unwrap();
        let line2 = t.serve(&adm, &req2, None, 7, 4, raw2);

        let entries = r
            .telemetry()
            .capture()
            .for_tenant("toy")
            .into_iter()
            .map(|e| knn_engine::bundle::BundleEntry {
                conn: e.conn,
                seq: e.seq,
                backend: None,
                epoch: e.epoch,
                trace: e.trace,
                request: e.request,
                response: e.response,
            })
            .collect();
        let bundle = t.bundle_with(entries);
        assert_eq!(bundle.replay.len(), 1, "apply_logged retained the op");
        let report = bundle.replay().unwrap();
        assert_eq!((report.checked, report.final_epoch), (2, 1));
        assert!(report.divergences.is_empty(), "served bytes replay clean: {report:?}");
        drop((line, line2));
    }

    /// Reload and unload purge the tenant's captures: a bundle must never
    /// pair old-generation responses with a new-generation seed.
    #[test]
    fn reload_and_unload_purge_stale_captures() {
        let r = Registry::new(EngineConfig::default());
        let t = r.load("toy", BOOL).unwrap();
        let adm = Admission::new(2);
        let raw =
            r#"{"dataset":"toy","id":"q","cmd":"classify","metric":"hamming","point":[1,1,1]}"#;
        let req = Request::from_json_line(raw, "q").unwrap();
        t.serve(&adm, &req, None, 1, 0, raw);
        assert_eq!(r.telemetry().capture().for_tenant("toy").len(), 1);

        r.load("toy", "+ 1 1\n- 0 0\n").unwrap();
        assert!(r.telemetry().capture().for_tenant("toy").is_empty(), "reload purges");

        let raw2 = r#"{"dataset":"toy","id":"q","cmd":"classify","point":[1,1]}"#;
        let req2 = Request::from_json_line(raw2, "q").unwrap();
        r.get("toy").unwrap().serve(&adm, &req2, None, 1, 1, raw2);
        assert_eq!(r.telemetry().capture().for_tenant("toy").len(), 1);
        r.unload("toy").unwrap();
        assert!(r.telemetry().capture().for_tenant("toy").is_empty(), "unload purges");
    }
}
