//! The traced run's per-layer breakdown: span self times, counter deltas,
//! and the residual that closes the sum to the traced round-trip.

use crate::replay::SpanRec;
use crate::stats::Percentiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Planner route tags the workloads exercise; each gets a p50 and a p99
/// `core.solve_us` metric.
pub const ROUTES: [&str; 8] = [
    "hamming-index",
    "kdtree-class-index",
    "hamming-witness-k1",
    "hamming-sat-check",
    "hamming-greedy-deletion",
    "hamming-sat",
    "l2-lp-regions",
    "l2-qp-regions",
];

/// Every per-layer metric, in output order: `(name, unit)`. The solve
/// metrics (`core.solve_us.<route>.p50|p99`) follow `admission.max_waiting`.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("cluster.overhead_us", "us"),
        ("cluster.warm_hit_rate", "ratio"),
        ("cluster.fills_per_kop", "count"),
        ("cluster.failovers_per_kop", "count"),
        ("server.null_rtt_us", "us"),
        ("server.handoff_us", "us"),
        ("server.traced_rtt_us", "us"),
        ("admission.wait_p50_us", "us"),
        ("admission.wait_p99_us", "us"),
        ("admission.max_waiting", "count"),
        ("proto.parse_us", "us"),
        ("engine.hit_us", "us"),
        ("engine.serialize_us", "us"),
        ("engine.plan_us", "us"),
        ("engine.artifact_build_us", "us"),
        ("engine.hit_rate", "ratio"),
        ("engine.revalidated_frac", "ratio"),
        ("engine.coalesced_per_kop", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for r in ROUTES {
        out.push((format!("core.solve_us.{r}.p50"), "us"));
        out.push((format!("core.solve_us.{r}.p99"), "us"));
    }
    for (n, u) in [
        ("core.lp_solves_per_op", "count"),
        ("core.qp_solves_per_op", "count"),
        ("core.kd_visits_per_op", "count"),
        ("core.region_yields_per_op", "count"),
        ("delta.apply_p50_us", "us"),
        ("delta.apply_p99_us", "us"),
        ("delta.carried_frac", "ratio"),
        ("trace.unattributed_us", "us"),
        ("trace.overhead_frac", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// p99 when the trace has enough samples for it, else the highest
/// percentile that has (0 for an unexercised layer).
fn tail(p: &Percentiles) -> f64 {
    p.quantile(0.99).or_else(|| p.highest_supported().map(|(_, v)| v)).unwrap_or(0.0)
}

fn median(p: &Percentiles) -> f64 {
    p.quantile(0.5).or_else(|| p.highest_supported().map(|(_, v)| v)).unwrap_or_else(|| p.mean())
}

/// Socket-side measurements of the traced run.
pub struct SocketSide {
    /// Round-trip of each operation under the run's concurrency, µs,
    /// indexed `[client][op]`.
    pub rtt_us: Vec<Vec<f64>>,
    /// Median idle round-trip of a line the reader answers itself, µs.
    pub null_rtt_us: f64,
    /// Median idle round-trip of a cached line, less the null round-trip
    /// and the line's in-process parse + engine + serialize cost, µs: the
    /// reader → worker → writer hand-off.
    pub handoff_us: f64,
}

/// Builds the breakdown. `counters` carries the counter-derived metrics
/// (cluster pass, engine stats, work stats, admission, delta) by name.
pub fn breakdown(
    spans: &[SpanRec],
    hit: &[Vec<bool>],
    socket: &SocketSide,
    counters: &BTreeMap<&'static str, f64>,
    overhead_frac: f64,
) -> (BTreeMap<String, f64>, String) {
    // Self time per span: duration minus the children's durations (the
    // children of a root are every non-root span of the same operation).
    let mut children_ns: BTreeMap<(usize, usize, &str), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.root) {
        let root = if s.name.starts_with("engine.plan")
            || s.name == "engine.artifact_build"
            || s.name == "core.solve"
        {
            "decompose"
        } else {
            "op"
        };
        *children_ns.entry((s.client, s.op, root)).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut run_hit = Vec::new();
    let mut run_miss = Vec::new();
    let mut solve: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let self_us = if s.root {
            let kids = children_ns.get(&(s.client, s.op, s.name)).copied().unwrap_or(0);
            (s.end_ns - s.start_ns).saturating_sub(kids) as f64 / 1e3
        } else {
            s.us()
        };
        by_name.entry(s.name).or_default().push(self_us);
        if s.name == "engine.run" {
            if hit.get(s.client).and_then(|h| h.get(s.op)).copied().unwrap_or(false) {
                run_hit.push(self_us);
            } else {
                run_miss.push(self_us);
            }
        }
        if s.name == "core.solve" {
            solve.entry(s.detail).or_default().push(self_us);
        }
    }
    let mean_of =
        |name: &str| by_name.get(name).map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64);
    let sum_of = |name: &str| by_name.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let pct = |name: &str| Percentiles::new(by_name.get(name).cloned().unwrap_or_default());

    let null = socket.null_rtt_us;
    let handoff = socket.handoff_us;

    let ops: usize = spans.iter().filter(|s| s.root && s.name == "op").count().max(1);
    let rtt_all: Vec<f64> = socket.rtt_us.iter().flatten().copied().collect();
    let rtt_mean = rtt_all.iter().sum::<f64>() / rtt_all.len().max(1) as f64;
    let per_op = |total: f64| total / ops as f64;
    let rows: Vec<(&str, f64)> = vec![
        ("server.null_rtt", null),
        ("server.handoff", handoff),
        ("proto.parse", per_op(sum_of("proto.parse"))),
        ("admission.wait", per_op(sum_of("admission.wait"))),
        ("engine.run (hit)", per_op(run_hit.iter().sum())),
        ("engine.run (miss)", per_op(run_miss.iter().sum())),
        ("engine.serialize", per_op(sum_of("engine.serialize"))),
        ("delta.apply", per_op(sum_of("delta.apply"))),
    ];
    let attributed: f64 = rows.iter().map(|(_, v)| v).sum();
    let unattributed = rtt_mean - attributed;

    let mut table = String::new();
    let _ = writeln!(table, "  {:<24} {:>12} {:>8}", "layer (self time)", "µs per op", "share");
    for (name, v) in rows.iter().chain([("trace.unattributed", unattributed)].iter()) {
        let _ = writeln!(table, "  {name:<24} {v:>12.3} {:>7.1}%", 100.0 * v / rtt_mean.max(1e-9));
    }
    let _ = writeln!(
        table,
        "  {:<24} {rtt_mean:>12.3}   (mean of {} socket round-trips; layers + residual = this)",
        "= traced round-trip",
        rtt_all.len()
    );
    let _ = writeln!(
        table,
        "  engine.run on misses, decomposed ({} sampled queries): plan {:.3} µs, artifact build {:.3} µs ({} builds), solve {:.3} µs",
        by_name.get("decompose").map_or(0, Vec::len),
        mean_of("engine.plan"),
        mean_of("engine.artifact_build"),
        by_name.get("engine.artifact_build").map_or(0, Vec::len),
        mean_of("core.solve"),
    );
    for (route, v) in &solve {
        let p = Percentiles::new(v.clone());
        let _ = writeln!(
            table,
            "    core.solve {route:<26} n={:<5} p50 {:>10.1} µs  tail {:>10.1} µs",
            p.count(),
            median(&p),
            tail(&p)
        );
    }

    let wait = pct("admission.wait");
    let apply = pct("delta.apply");
    let hit_p = Percentiles::new(run_hit);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    set("server.null_rtt_us", null);
    set("server.handoff_us", handoff);
    set("server.traced_rtt_us", rtt_mean);
    set("admission.wait_p50_us", median(&wait));
    set("admission.wait_p99_us", tail(&wait));
    set("proto.parse_us", mean_of("proto.parse"));
    set("engine.hit_us", hit_p.mean());
    set("engine.serialize_us", mean_of("engine.serialize"));
    set("engine.plan_us", mean_of("engine.plan"));
    set("engine.artifact_build_us", mean_of("engine.artifact_build"));
    for r in ROUTES {
        let p = Percentiles::new(solve.get(r).cloned().unwrap_or_default());
        set(&format!("core.solve_us.{r}.p50"), median(&p));
        set(&format!("core.solve_us.{r}.p99"), tail(&p));
    }
    set("delta.apply_p50_us", median(&apply));
    set("delta.apply_p99_us", tail(&apply));
    set("trace.unattributed_us", unattributed);
    set("trace.overhead_frac", overhead_frac);
    for (k, v) in counters {
        set(k, *v);
    }
    (m, table)
}

/// The benchmark's own cost per recorded span (two clock reads and one
/// push), ns — calibrated in-process so the traced run can report its
/// tracing overhead.
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let origin = Instant::now();
    let mut v: Vec<SpanRec> = Vec::with_capacity(N);
    let t = Instant::now();
    for i in 0..N {
        let a = Instant::now();
        let b = Instant::now();
        v.push(SpanRec {
            name: "calibrate",
            client: 0,
            op: i,
            root: false,
            start_ns: a.duration_since(origin).as_nanos() as u64,
            end_ns: b.duration_since(origin).as_nanos() as u64,
            detail: "",
        });
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box(v);
    ns
}
