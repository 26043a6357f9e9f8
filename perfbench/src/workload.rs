//! The workloads, and the routed traffic of `warm_hot`'s cluster pass:
//! datasets, warm-up and operation streams, all a pure function of the
//! seed.
//!
//! Every request line is generated here and parsed back with the server's
//! own `proto::parse_line_value`, so the in-process oracle runs exactly the
//! request the server decodes (same f64 bits, same feature sets).

use knn_datasets::random::{random_boolean_dataset, random_real_dataset};
use knn_engine::json::Value;
use knn_engine::{Metric, Mutation, QueryKind, Request};
use knn_server::proto::{self, Command};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["warm_hot", "cold_explain", "mutate_large"];

/// The traffic through `xknn router --spawn 2` that `warm_hot`'s traced
/// run sends to measure the cluster layer (not a workload of its own:
/// see `cluster_pass` in `main.rs`).
pub const ROUTED: &str = "routed_mix";

/// One tenant: registry name and the dataset text the server loads.
pub struct TenantSpec {
    /// Registry name.
    pub name: &'static str,
    /// Dataset in the `+ 1 0 1` text format.
    pub text: String,
    /// Points.
    pub points: usize,
    /// Dimensions.
    pub dims: usize,
    /// Real-valued coordinates (else 0/1).
    pub real: bool,
}

/// What an operation does.
pub enum Body {
    /// An explanation query.
    Query(Request),
    /// An insert or remove (a control verb: a barrier on its connection).
    Mutation(Mutation),
}

/// One generated operation.
pub struct OpData {
    /// The wire line (no trailing newline).
    pub line: String,
    /// Index into [`Workload::tenants`].
    pub tenant: usize,
    /// The decoded operation.
    pub body: Body,
    /// The exact response line, when known before the run (repeated keys).
    pub expected: Option<String>,
}

/// Shared handle to an operation.
pub type Op = Arc<OpData>;

/// A query cell of the mix: `(kind, metric, k, weight)`.
type Cell = (QueryKind, Metric, u32, u32);

/// Everything a run needs to drive one workload.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Tenants loaded before the run.
    pub tenants: Vec<TenantSpec>,
    /// Client connections (one thread each).
    pub clients: usize,
    /// Requests kept outstanding per connection.
    pub window: usize,
    /// Served through `xknn router --spawn 2` instead of `xknn serve`.
    pub routed: bool,
    /// Sent once on one connection after loading, before the measured phase.
    pub warmup: Vec<Op>,
    /// The repeated key set (its expected lines are filled in at set-up
    /// when no mutation can change them).
    pub pool: Vec<Op>,
    gen: Gen,
}

/// The per-workload stream parameters.
enum Gen {
    /// Cycle the pool in a per-client shuffled order.
    Repeat,
    /// Fresh queries only, drawn from `cells` over tenants 0 (Hamming) and
    /// 1 (ℓ2), never repeating a key.
    Fresh { cells: Vec<(usize, Cell)> },
    /// Pool repeats mixed with fresh queries (`fresh_pct` percent).
    Mixed { fresh_pct: u32, cells: Vec<(usize, Cell)> },
    /// One tenant; `mut_pct` percent inserts/removes, the rest classify and
    /// check-SR, half of it from the pool.
    Mutating { mut_pct: u32, cells: Vec<(usize, Cell)> },
}

impl Gen {
    /// The cells fresh queries are drawn from (none for pure repeats).
    fn cells(&self) -> &[(usize, Cell)] {
        match self {
            Gen::Repeat => &[],
            Gen::Fresh { cells } | Gen::Mixed { cells, .. } | Gen::Mutating { cells, .. } => cells,
        }
    }
}

/// The server's per-connection in-flight cap (`ServerConfig::default()`).
pub const CONN_INFLIGHT: usize = 4;

/// Requests outstanding per connection: deeper than the in-flight cap, so
/// the admission queue never runs dry.
pub const WINDOW: usize = 8;

fn boolean_text(rng: &mut StdRng, n: usize, d: usize) -> String {
    knn_delta::dataset_text(&random_boolean_dataset(rng, n, d, 0.5).to_continuous())
}

fn real_text(rng: &mut StdRng, n: usize, d: usize) -> String {
    knn_delta::dataset_text(&random_real_dataset(rng, n, d, 0.5))
}

fn tenant(name: &'static str, text: String, points: usize, dims: usize) -> TenantSpec {
    let real = name == "l2";
    TenantSpec { name, text, points, dims, real }
}

/// Builds workload `name` from `seed`.
pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    use Metric::{Hamming, L2};
    use QueryKind::{CheckSr, Classify, Counterfactual, MinimalSr};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000);
    // The warm key set: cheap enough to compute during set-up, varied
    // enough in response size (labels, witnesses, counterfactual points).
    let warm_cells: Vec<(usize, Cell)> = vec![
        (0, (Classify, Hamming, 1, 2)),
        (0, (Classify, Hamming, 3, 2)),
        (0, (CheckSr, Hamming, 1, 2)),
        (0, (Counterfactual, Hamming, 1, 2)),
        (1, (Classify, L2, 1, 2)),
        (1, (Classify, L2, 3, 2)),
        (1, (Counterfactual, L2, 1, 1)),
    ];
    let small_tenants = |rng: &mut StdRng| {
        vec![
            tenant("ham", boolean_text(rng, 256, 12), 256, 12),
            tenant("l2", real_text(rng, 256, 8), 256, 8),
        ]
    };
    let (name, tenants, clients, routed, pool_cells, pool_len, warm_len, gen) = match name {
        "warm_hot" => {
            ("warm_hot", small_tenants(&mut rng), 1, false, warm_cells, 512, 0, Gen::Repeat)
        }
        "cold_explain" => {
            let tenants = vec![
                tenant("ham", boolean_text(&mut rng, 300, 16), 300, 16),
                tenant("l2", real_text(&mut rng, 300, 16), 300, 16),
            ];
            // All four query kinds at k ∈ {1, 3}, restricted to cells that
            // finish. Measured single-query costs at this size: classify
            // and k = 1 check-SR < 0.1 ms, ℓ2 check-SR 4 ms, ℓ2 CF (k = 1)
            // and Hamming minimal-SR 7-8 ms, Hamming CF (k = 1) 35 ms,
            // Hamming check-SR (k = 3) 45 ms. Left out: ℓ2 CF at k = 3 (over
            // a minute), ℓ2 minimal-SR (over 750 ms), and Hamming CF at
            // k = 3 (260 ms): at any share a run can afford, its few samples
            // alone decided p99, which then swung by 75% between seeds.
            let cells = vec![
                (0, (Classify, Hamming, 1, 30)),
                (0, (Classify, Hamming, 3, 30)),
                (0, (CheckSr, Hamming, 1, 30)),
                (0, (CheckSr, Hamming, 3, 12)),
                (0, (MinimalSr, Hamming, 1, 12)),
                (0, (Counterfactual, Hamming, 1, 18)),
                (1, (Classify, L2, 1, 30)),
                (1, (Classify, L2, 3, 30)),
                (1, (CheckSr, L2, 1, 12)),
                (1, (Counterfactual, L2, 1, 18)),
            ];
            // The warm-up holds every cell four times, so its cost (and
            // with it `setup_s`) does not swing with how many slow cells a
            // seed happens to deal.
            let once: Vec<(usize, Cell)> =
                cells.iter().map(|&(t, (kind, metric, k, _))| (t, (kind, metric, k, 1))).collect();
            let warm_len = 4 * once.len();
            ("cold_explain", tenants, 1, false, once, 0, warm_len, Gen::Fresh { cells })
        }
        "mutate_large" => {
            let tenants = vec![tenant("big", boolean_text(&mut rng, 10_000, 32), 10_000, 32)];
            let cells = vec![
                (0, (Classify, Hamming, 3, 2)),
                (0, (Classify, L2, 3, 1)),
                (0, (CheckSr, Hamming, 1, 1)),
            ];
            let gen = Gen::Mutating { mut_pct: 10, cells: cells.clone() };
            // One connection, so every response has an exact oracle.
            ("mutate_large", tenants, 1, false, cells, 256, 0, gen)
        }
        "routed_mix" => {
            // Fresh keys come from the ℓ2 tenant only: the Hamming
            // tenant's 12 dimensions give 2¹² distinct points, too few
            // fresh keys for a long run.
            let fresh = vec![(1, (Classify, L2, 1, 1)), (1, (Classify, L2, 3, 1))];
            let gen = Gen::Mixed { fresh_pct: 25, cells: fresh };
            (ROUTED, small_tenants(&mut rng), 2, true, warm_cells, 512, 0, gen)
        }
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    };
    // Behind the router, a connection keeps one request outstanding: with
    // more, the router's replies on a connection wait out the 40 ms
    // delayed ACK (its sockets keep Nagle on), and what is measured is
    // that timer, not the cluster.
    let window = if routed { 1 } else { WINDOW };
    let mut w = Workload {
        name,
        tenants,
        clients,
        window,
        routed,
        warmup: Vec::new(),
        pool: Vec::new(),
        gen,
    };
    let mut seen = HashSet::new();
    let mut deck = Deck::new(&pool_cells);
    let mut draw = |prefix: &str, i: usize, rng: &mut StdRng| {
        let cell = deck.deal(rng, &pool_cells);
        w.fresh_query(rng, cell, &format!("{prefix}{i}"), &mut seen)
    };
    let pool: Vec<Op> = (0..pool_len).map(|i| draw("p", i, &mut rng)).collect::<Result<_, _>>()?;
    let warm: Vec<Op> = (0..warm_len).map(|i| draw("w", i, &mut rng)).collect::<Result<_, _>>()?;
    w.pool = pool;
    w.warmup = if warm.is_empty() { w.pool.clone() } else { warm };
    Ok(w)
}

/// A stream of operations for one client connection.
pub struct Source<'w> {
    w: &'w Workload,
    client: usize,
    rng: StdRng,
    n: usize,
    order: Vec<usize>,
    /// Keys already used (pool, warm-up and every fresh query so far),
    /// shared by all clients of the run so no fresh query ever repeats.
    seen: Arc<Mutex<HashSet<String>>>,
    /// Points in the (single) mutated tenant right now.
    points: usize,
    /// Deals the fresh-query cells.
    deck: Deck,
}

impl Workload {
    /// Keys every fresh query must avoid: the pool and the warm-up.
    pub fn used_keys(&self) -> Arc<Mutex<HashSet<String>>> {
        let keys = self.pool.iter().chain(&self.warmup).map(|op| key_of(op)).collect();
        Arc::new(Mutex::new(keys))
    }

    /// The operation stream of client `client` (deterministic per seed).
    pub fn source(
        &self,
        seed: u64,
        client: usize,
        seen: Arc<Mutex<HashSet<String>>>,
    ) -> Source<'_> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(client as u64 + 1));
        let mut order: Vec<usize> = (0..self.pool.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let points = self.tenants[0].points;
        let deck = Deck::new(self.gen.cells());
        Source { w: self, client, rng, n: 0, order, seen, points, deck }
    }

    /// A fresh query of cell `cell` with id `id`, whose key is not in
    /// `seen` (its point redrawn until it is new).
    fn fresh_query(
        &self,
        rng: &mut StdRng,
        &(t, (kind, metric, k, _)): &(usize, Cell),
        id: &str,
        seen: &mut HashSet<String>,
    ) -> Result<Op, String> {
        let spec = &self.tenants[t];
        for _ in 0..1000 {
            let point: Vec<String> = (0..spec.dims)
                .map(|_| {
                    if spec.real {
                        format!("{}", (rng.gen_range(-1.0f64..1.0) * 1e4).round() / 1e4)
                    } else {
                        (rng.gen_range(0..2u32)).to_string()
                    }
                })
                .collect();
            let features = (kind == QueryKind::CheckSr).then(|| {
                let f: Vec<String> =
                    (0..spec.dims).filter(|_| rng.gen_bool(0.5)).map(|i| i.to_string()).collect();
                format!(r#","features":[{}]"#, f.join(","))
            });
            let line = format!(
                r#"{{"dataset":"{}","id":"{id}","cmd":"{}","metric":"{}","k":{k},"point":[{}]{}}}"#,
                spec.name,
                kind.name(),
                metric.name(),
                point.join(","),
                features.unwrap_or_default()
            );
            let op = parse_op(&line, t, None)?;
            if seen.insert(key_of(&op)) {
                return Ok(op);
            }
        }
        Err("could not draw a fresh key in 1000 tries".into())
    }
}

/// Deals cells in exact proportion to their weights: each round of
/// `Σ weights` draws holds every cell exactly `weight` times, in shuffled
/// order, so the mix (and with it the cost of a run) does not drift with
/// the seed.
struct Deck {
    cards: Vec<usize>,
    pos: usize,
}

impl Deck {
    fn new(cells: &[(usize, Cell)]) -> Deck {
        let cards = cells
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c.1 .3 as usize))
            .collect();
        Deck { cards, pos: usize::MAX }
    }

    fn deal<'c>(&mut self, rng: &mut StdRng, cells: &'c [(usize, Cell)]) -> &'c (usize, Cell) {
        if self.pos >= self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.gen_range(0..=i));
            }
            self.pos = 0;
        }
        self.pos += 1;
        &cells[self.cards[self.pos - 1]]
    }
}

/// The cache-relevant identity of a query op (the line minus its id).
pub fn key_of(op: &OpData) -> String {
    match &op.body {
        Body::Query(r) => {
            format!("{}|{}", op.tenant, Request { id: String::new(), ..r.clone() }.to_json_line())
        }
        Body::Mutation(_) => op.line.clone(),
    }
}

/// Decodes `line` with the server's own parser.
fn parse_op(line: &str, tenant: usize, expected: Option<String>) -> Result<Op, String> {
    let (parsed, _) = proto::parse_line_value(line.as_bytes(), "0")?;
    let body = match parsed.command {
        Command::Query { request, .. } => Body::Query(request),
        Command::Insert { label, point, .. } => Body::Mutation(Mutation::Insert { point, label }),
        Command::Remove { index, .. } => Body::Mutation(Mutation::Remove { id: index }),
        _ => return Err(format!("generated line is not a query or mutation: {line}")),
    };
    Ok(Arc::new(OpData { line: line.to_string(), tenant, body, expected }))
}

impl Source<'_> {
    /// The next operation.
    pub fn next_op(&mut self) -> Result<Op, String> {
        let n = self.n;
        self.n += 1;
        let client = self.client;
        let id = move || format!("c{client}-{n}");
        match &self.w.gen {
            Gen::Repeat => Ok(self.repeat(n)),
            Gen::Fresh { cells } => self.fresh(cells, &id()),
            Gen::Mixed { fresh_pct, cells } => {
                if self.rng.gen_range(0..100u32) < *fresh_pct {
                    self.fresh(cells, &id())
                } else {
                    Ok(self.repeat(n))
                }
            }
            Gen::Mutating { mut_pct, cells } => {
                if self.rng.gen_range(0..100u32) < *mut_pct {
                    self.mutation(&id())
                } else if self.rng.gen_bool(0.5) {
                    let i = self.rng.gen_range(0..self.w.pool.len());
                    Ok(self.w.pool[i].clone())
                } else {
                    self.fresh(cells, &id())
                }
            }
        }
    }

    fn repeat(&self, n: usize) -> Op {
        self.w.pool[self.order[n % self.order.len()]].clone()
    }

    fn fresh(&mut self, cells: &[(usize, Cell)], id: &str) -> Result<Op, String> {
        let cell = self.deck.deal(&mut self.rng, cells);
        let mut seen = self.seen.lock().expect("no client panics holding the key set");
        self.w.fresh_query(&mut self.rng, cell, id, &mut seen)
    }

    /// An insert of a random point or a remove of a random index, keeping
    /// the dataset size within a few points of where it started.
    fn mutation(&mut self, id: &str) -> Result<Op, String> {
        let spec = &self.w.tenants[0];
        let insert =
            self.points < spec.points || (self.points < spec.points + 8 && self.rng.gen_bool(0.5));
        let line = if insert {
            let label = if self.rng.gen_bool(0.5) { "+" } else { "-" };
            let point: Vec<&str> =
                (0..spec.dims).map(|_| if self.rng.gen_bool(0.5) { "1" } else { "0" }).collect();
            self.points += 1;
            format!(
                r#"{{"id":"{id}","verb":"insert","name":"{}","label":"{label}","point":[{}]}}"#,
                spec.name,
                point.join(",")
            )
        } else {
            let index = self.rng.gen_range(0..self.points);
            self.points -= 1;
            format!(r#"{{"id":"{id}","verb":"remove","name":"{}","index":{index}}}"#, spec.name)
        };
        parse_op(&line, 0, None)
    }
}

/// The acknowledgement line the server writes for an applied mutation.
pub fn mutation_ack(id: &str, tenant: &str, m: &Mutation, epoch: u64, points: usize) -> String {
    let verbed = match m {
        Mutation::Insert { .. } => "inserted",
        Mutation::Remove { .. } => "removed",
    };
    proto::ok_line(
        id,
        vec![
            (verbed.to_string(), Value::String(tenant.to_string())),
            ("version".into(), Value::Number(epoch as f64)),
            ("points".into(), Value::Number(points as f64)),
        ],
    )
}

/// The id a line carries (what the response echoes).
pub fn id_of(op: &OpData) -> String {
    match &op.body {
        Body::Query(r) => r.id.clone(),
        Body::Mutation(_) => {
            proto::parse_line(op.line.as_bytes(), "0").map(|p| p.id).unwrap_or_default()
        }
    }
}

impl Workload {
    /// Whether the pool's response bytes are fixed for the whole run (no
    /// mutations), so each repeat can be checked against a line computed
    /// once at set-up.
    pub fn pool_is_static(&self) -> bool {
        matches!(self.gen, Gen::Repeat | Gen::Mixed { .. })
    }

    /// Installs the expected lines of the warm-up ops (index-aligned); when
    /// the warm-up is the static pool, the pool gets them too.
    pub fn set_warmup_expected(&mut self, expected: Vec<String>) {
        let share = self.pool_is_static() && self.warmup.len() == self.pool.len();
        self.warmup = self
            .warmup
            .iter()
            .zip(expected)
            .map(|(op, e)| {
                let body = match &op.body {
                    Body::Query(r) => Body::Query(r.clone()),
                    Body::Mutation(m) => Body::Mutation(m.clone()),
                };
                Arc::new(OpData {
                    line: op.line.clone(),
                    tenant: op.tenant,
                    body,
                    expected: Some(e),
                })
            })
            .collect();
        if share {
            self.pool = self.warmup.clone();
        }
    }
}
