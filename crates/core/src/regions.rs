//! The Proposition 1 decomposition of the classifier's decision regions into
//! polyhedra, for the ℓ2 metric — eager and lazy.
//!
//! Under ℓ2, `d(ȳ, ā) ≤ d(ȳ, c̄)` is the linear inequality
//! `2(c̄ − ā)·ȳ ≤ c̄·c̄ − ā·ā` (§5, Figure 3), so by Proposition 1:
//!
//! * `{ȳ : f(ȳ) = 1}` is the union over pairs `(A ⊆ S⁺, |A| = maj;
//!   B ⊆ S⁻, |B| = min)` of the **closed** polyhedra
//!   `{ȳ : d(ȳ,ā) ≤ d(ȳ,c̄) ∀ā∈A, c̄∈S⁻\B}`;
//! * `{ȳ : f(ȳ) = 0}` is the union of the corresponding **open** polyhedra
//!   with the roles of `S⁺`/`S⁻` swapped and strict inequalities.
//!
//! Taking `|B| = min` exactly (instead of ≤ min) is WLOG: growing `B` only
//! removes constraints. The number of polyhedra is `O(|S⁺∪S⁻|^{k})` —
//! polynomial for fixed k, which is where the `n^{O(k)}` running time of
//! Propositions 3 and Theorem 2 comes from.
//!
//! Materializing the whole decomposition up front ([`RegionCache::build`]) is
//! `O(n^k)` time *and memory* before the first query can be answered, which
//! is the k ≥ 5 blocker at serving sizes. [`RegionStream`] therefore
//! enumerates the decomposition lazily:
//!
//! * **nearest-anchor-first**: for a query point `x̄`, anchor sets `A` are
//!   emitted in ascending `Σ_{ā∈A} d²(x̄, ā)`, so the region actually
//!   containing (or nearest to) the answer is reached early and feasibility /
//!   projection loops short-circuit after a handful of LPs;
//! * **pruning**: provably-empty polyhedra (anti-parallel contradictory
//!   bisector pairs, strict-empty degenerate rows) and dominated `(A, B)`
//!   pairs (a region contained in another region of the same union) are
//!   skipped before any LP sees them — see [`prune_region`];
//! * **memoization**: visited regions can be recorded in a [`RegionMemo`]
//!   (bounded, insert-only), so warm queries skip the row construction —
//!   [`LazyRegions`] is the `Arc`-shareable bundle the batch engine keeps in
//!   its artifact store.
//!
//! The eager [`RegionCache`] remains as the differential-testing oracle; its
//! [`RegionCache::ordered_pruned_with`] view applies the *same* ordering and
//! pruning decisions as the stream, so the two paths are byte-compatible by
//! construction (property-tested in `tests/prop_regions_lazy.rs`).
//!
//! The ℓ2 explanation engines pick one of these sources when they are built
//! (a fresh stream per call, a shared [`LazyRegions`] view, or the eager
//! cache) and run every operation through it.

use knn_num::field::norm_sq;
use knn_num::Field;
use knn_qp::Polyhedron;
use knn_space::{ContinuousDataset, Label, OddK};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Live counters of lazy-region enumeration activity: how many polyhedra
/// the streams actually yielded, and how many each prune rule skipped.
///
/// Counters are plain relaxed atomics — shareable across every stream of an
/// engine (and across its artifact-store generations) without this crate
/// depending on any telemetry machinery. They observe the enumeration and
/// never influence it: the yielded sequence is identical with or without a
/// counter attached.
#[derive(Debug, Default)]
pub struct RegionCounters {
    yields: AtomicU64,
    pruned_empty: AtomicU64,
    pruned_dominated: AtomicU64,
    memo_pruned: AtomicU64,
}

impl RegionCounters {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> RegionCountersSnapshot {
        RegionCountersSnapshot {
            yields: self.yields.load(Ordering::Relaxed),
            pruned_empty: self.pruned_empty.load(Ordering::Relaxed),
            pruned_dominated: self.pruned_dominated.load(Ordering::Relaxed),
            memo_pruned: self.memo_pruned.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of [`RegionCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionCountersSnapshot {
    /// Polyhedra yielded to callers (memoized re-yields included).
    pub yields: u64,
    /// Regions skipped as provably empty ([`PruneReason::Empty`]).
    pub pruned_empty: u64,
    /// Regions skipped as dominated ([`PruneReason::Dominated`]).
    pub pruned_dominated: u64,
    /// Regions skipped via a memoized prune verdict (rule unknown — the
    /// memo stores the verdict, not the reason).
    pub memo_pruned: u64,
}

/// Iterator over all size-`r` index subsets of `0..n` (lexicographic).
pub struct Combinations {
    n: usize,
    idx: Vec<usize>,
    done: bool,
}

impl Combinations {
    /// All `r`-subsets of `0..n`, in lexicographic order.
    pub fn new(n: usize, r: usize) -> Self {
        Combinations { n, idx: (0..r).collect(), done: r > n }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let current = self.idx.clone();
        let r = self.idx.len();
        if r == 0 {
            self.done = true;
            return Some(current);
        }
        // Advance to the next combination.
        let mut i = r;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.idx[i] != i + self.n - r {
                self.idx[i] += 1;
                for j in i + 1..r {
                    self.idx[j] = self.idx[j - 1] + 1;
                }
                break;
            }
        }
        Some(current)
    }
}

/// The halfspace row for `d₂(ȳ, ā) (≤ or <) d₂(ȳ, c̄)`:
/// coefficients `2(c̄ − ā)` and right-hand side `c̄·c̄ − ā·ā`.
pub fn bisector_row<F: Field>(a: &[F], c: &[F]) -> (Vec<F>, F) {
    let coeffs: Vec<F> = a
        .iter()
        .zip(c)
        .map(|(ai, ci)| {
            let d = ci.clone() - ai.clone();
            d.clone() + d
        })
        .collect();
    let rhs = norm_sq(c) - norm_sq(a);
    (coeffs, rhs)
}

/// The identity of one Proposition 1 region: the witness set `A` and the
/// excluded minority `B`, both as ascending dataset indices.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionSpec {
    /// Dataset indices of `A` (the `maj` target-class witnesses), ascending.
    pub anchors: Vec<usize>,
    /// Dataset indices of `B` (the `min` excluded opposite-class points),
    /// ascending.
    pub excluded: Vec<usize>,
}

/// `Σ_{ā∈A} d²(x̄, ā)`, accumulated in ascending-index order so the float
/// value is identical however the anchor set was produced — the ordering key
/// shared by [`RegionStream`] and [`RegionCache::query_order`].
pub fn anchor_key<F: Field>(ds: &ContinuousDataset<F>, x: &[F], anchors: &[usize]) -> F {
    let mut sum = F::zero();
    for &a in anchors {
        let p = ds.point(a);
        for (xi, pi) in x.iter().zip(p) {
            let d = xi.clone() - pi.clone();
            sum = sum + d.clone() * d;
        }
    }
    sum
}

/// The bisector rows of the region `(anchors, B)` where `B` is given as a
/// boolean mask over `others` — one flag lookup per opposite-class point
/// instead of the former `O(|B|)` membership scan per row.
fn region_rows<F: Field>(
    ds: &ContinuousDataset<F>,
    anchors: &[usize],
    others: &[usize],
    excluded_mask: &[bool],
) -> Vec<(Vec<F>, F)> {
    let mut rows = Vec::with_capacity(anchors.len() * others.len());
    for &a in anchors {
        let a_pt = ds.point(a);
        for (oj, &o) in others.iter().enumerate() {
            if excluded_mask[oj] {
                continue;
            }
            rows.push(bisector_row(a_pt, ds.point(o)));
        }
    }
    rows
}

fn polyhedron_from_rows<F: Field>(dim: usize, rows: Vec<(Vec<F>, F)>) -> Polyhedron<F> {
    let mut poly = Polyhedron::whole_space(dim);
    for (row, rhs) in rows {
        poly.add_le(row, rhs);
    }
    poly
}

/// If `v = λ·u` for a scalar `λ` (with `u ≠ 0`), returns `λ`.
fn scalar_multiple<F: Field>(u: &[F], v: &[F]) -> Option<F> {
    let pivot = u.iter().position(|c| !c.is_zero())?;
    let lambda = v[pivot].clone() / u[pivot].clone();
    for (ui, vi) in u.iter().zip(v) {
        if !(vi.clone() - lambda.clone() * ui.clone()).is_zero() {
            return None;
        }
    }
    Some(lambda)
}

/// `{ȳ : g_in·ȳ ≤ h_in} ⊆ {ȳ : g_out·ȳ ≤ h_out}` for bisector rows
/// (`H(ā, c̄_in) ⊆ H(ā, c̄_out)`): holds iff the outer row is a positive
/// scaling of the inner row with a no-smaller right-hand side (`c̄_out`
/// behind `c̄_in` on the same ray from `ā`); positive scaling preserves
/// strictness, so the same condition certifies the open-halfspace
/// implication — *except* the degenerate `c̄_out = ā` row (`g_out = 0`,
/// `h_out = 0`), which is vacuous closed (`0 ≤ 0`) but empty open (`0 < 0`):
/// claiming the implication there would let a dominated region be "covered"
/// by one whose interior the zero row kills.
fn halfspace_row_implies<F: Field>(
    g_in: &[F],
    h_in: &F,
    g_out: &[F],
    h_out: &F,
    strict: bool,
) -> bool {
    if g_out.iter().all(|c| c.is_zero()) {
        return !strict && !h_out.is_negative();
    }
    if g_in.iter().all(|c| c.is_zero()) {
        // c̄_in = ā: the inner halfspace is the whole space, the outer is not.
        return false;
    }
    match scalar_multiple(g_in, g_out) {
        Some(lambda) if lambda.is_positive() => {
            !(lambda * h_in.clone() - h_out.clone()).is_positive() // h_out ≥ λ·h_in
        }
        _ => false,
    }
}

/// Why the pruner skipped a region. Soundness is property-tested: every
/// skipped polyhedron is LP-verified empty (or contained in its dominator).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PruneReason {
    /// The polyhedron (closed, or its interior when `strict`) is empty: two
    /// anti-parallel bisector rows contradict each other, or a degenerate
    /// zero row (`ā = c̄`) kills the interior.
    Empty,
    /// The region is contained in the carried region of the same union
    /// (same `A`, with one excluded index swapped), so dropping it cannot
    /// change the union.
    Dominated(RegionSpec),
}

/// The cheap pre-LP emptiness / dominance test for the region
/// `(anchors, excluded)` of the `target` decision region. `None` means the
/// region must be kept. Decisions depend only on the dataset and the region
/// identity — never on the query — so lazy and eager paths agree.
pub fn prune_region<F: Field>(
    ds: &ContinuousDataset<F>,
    target: Label,
    anchors: &[usize],
    excluded: &[usize],
) -> Option<PruneReason> {
    let others = ds.indices_of(target.flip());
    let mut mask = vec![false; others.len()];
    for (oj, &o) in others.iter().enumerate() {
        if excluded.binary_search(&o).is_ok() {
            mask[oj] = true;
        }
    }
    let rows = region_rows(ds, anchors, &others, &mask);
    prune_region_masked(ds, anchors, &others, &mask, excluded, target == Label::Negative, &rows)
}

/// [`prune_region`] against precomputed opposite-class indices and mask — the
/// enumeration-loop fast path.
fn prune_region_masked<F: Field>(
    ds: &ContinuousDataset<F>,
    anchors: &[usize],
    others: &[usize],
    excluded_mask: &[bool],
    excluded: &[usize],
    strict: bool,
    rows: &[(Vec<F>, F)],
) -> Option<PruneReason> {
    if region_rows_infeasible(rows, strict) {
        return Some(PruneReason::Empty);
    }
    dominated_by(ds, anchors, others, excluded_mask, excluded, strict, rows)
        .map(PruneReason::Dominated)
}

/// Pairwise-bisector infeasibility: rows `g·y ≤ h` and `g′·y ≤ h′` with
/// `g′ = −λg` (λ > 0) are jointly infeasible iff `h′ < −λh` (for the open
/// interior, iff `h′ ≤ −λh`); a zero row `0·y ≤ 0` (duplicate point across
/// classes) is vacuous closed but kills the interior.
fn region_rows_infeasible<F: Field>(rows: &[(Vec<F>, F)], strict: bool) -> bool {
    for (g, h) in rows {
        if g.iter().all(|c| c.is_zero()) {
            // `0·y (≤ or <) h`.
            if h.is_negative() || (strict && !h.is_positive()) {
                return true;
            }
        }
    }
    for i in 0..rows.len() {
        let (gi, hi) = &rows[i];
        if gi.iter().all(|c| c.is_zero()) {
            continue;
        }
        for (gj, hj) in rows.iter().skip(i + 1) {
            if let Some(lambda) = scalar_multiple(gi, gj) {
                if lambda.is_negative() {
                    // gj = λ·gi with λ < 0: the two halfspaces face away from
                    // each other; compatible iff hj ≥ λ·hi.
                    let slack = hj.clone() - lambda * hi.clone();
                    if slack.is_negative() || (strict && !slack.is_positive()) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Dominated `(A, B)` pairs: if some excluded `c̄_out ∈ B` and kept
/// `c̄_in ∉ B` satisfy `H(ā, c̄_in) ⊆ H(ā, c̄_out)` for **every** anchor
/// (in the region's own closed/strict semantics), then swapping them can
/// only grow the polyhedron, so the region is contained in the swapped one
/// and is redundant in the union. When the two polyhedra are identical
/// (duplicate opposite-class points), the smaller swapped index is the
/// canonical survivor.
fn dominated_by<F: Field>(
    ds: &ContinuousDataset<F>,
    anchors: &[usize],
    others: &[usize],
    excluded_mask: &[bool],
    excluded: &[usize],
    strict: bool,
    rows: &[(Vec<F>, F)],
) -> Option<RegionSpec> {
    // `rows` is the region's own row matrix (anchor-major, kept-`c̄` minor —
    // the [`region_rows`] layout), so the kept side of every implication is
    // already built; only the `|B|·maj` excluded-side rows are constructed
    // here.
    let mut kept_seq = vec![usize::MAX; others.len()];
    let mut kept_count = 0;
    for (oj, seq) in kept_seq.iter_mut().enumerate() {
        if !excluded_mask[oj] {
            *seq = kept_count;
            kept_count += 1;
        }
    }
    for &c_out in excluded {
        let c_out_pt = ds.point(c_out);
        let out_rows: Vec<(Vec<F>, F)> =
            anchors.iter().map(|&a| bisector_row(ds.point(a), c_out_pt)).collect();
        for (oj, &c_in) in others.iter().enumerate() {
            if excluded_mask[oj] {
                continue;
            }
            let in_row = |ai: usize| &rows[ai * kept_count + kept_seq[oj]];
            let forward = (0..anchors.len()).all(|ai| {
                let (g_in, h_in) = in_row(ai);
                let (g_out, h_out) = &out_rows[ai];
                halfspace_row_implies(g_in, h_in, g_out, h_out, strict)
            });
            if !forward {
                continue;
            }
            let backward = (0..anchors.len()).all(|ai| {
                let (g_out, h_out) = in_row(ai);
                let (g_in, h_in) = &out_rows[ai];
                halfspace_row_implies(g_in, h_in, g_out, h_out, strict)
            });
            // Strict domination always prunes; an identical swap prunes only
            // toward the lexicographically smaller survivor (no cycles).
            if !backward || c_in < c_out {
                let mut swapped: Vec<usize> =
                    excluded.iter().copied().filter(|&c| c != c_out).collect();
                swapped.push(c_in);
                swapped.sort_unstable();
                return Some(RegionSpec { anchors: anchors.to_vec(), excluded: swapped });
            }
        }
    }
    None
}

/// A bounded, insert-only memo of visited regions, shared across queries and
/// worker threads. Entries record either the constructed polyhedron or the
/// prune verdict, so warm enumerations skip both the row construction and
/// the prune test. Once `cap` entries are stored, further inserts are
/// dropped (lookups still hit), bounding memory at roughly the cost of an
/// eager cache over the visited prefix.
#[derive(Debug)]
pub struct RegionMemo<F> {
    // RwLock, not Mutex: warm enumerations are lookup-only and every engine
    // worker shares the per-k memo, so reads must not serialize each other.
    entries: RwLock<HashMap<RegionSpec, MemoEntry<F>>>,
    cap: usize,
    // Estimated heap bytes of the retained entries, maintained under the
    // insert write lock (entries are insert-only, so no decrements). Kept as
    // a running total so the resource gauges never iterate the map.
    bytes: AtomicU64,
}

#[derive(Clone, Debug)]
enum MemoEntry<F> {
    Pruned,
    Poly(Arc<Polyhedron<F>>),
}

impl<F: Field> RegionMemo<F> {
    /// An empty memo holding at most `cap` regions.
    pub fn new(cap: usize) -> Self {
        RegionMemo { entries: RwLock::new(HashMap::new()), cap, bytes: AtomicU64::new(0) }
    }

    fn get(&self, spec: &RegionSpec) -> Option<MemoEntry<F>> {
        self.entries.read().unwrap().get(spec).cloned()
    }

    fn insert(&self, spec: RegionSpec, entry: MemoEntry<F>) {
        let mut map = self.entries.write().unwrap();
        if map.len() < self.cap {
            let b = Self::entry_bytes(&spec, &entry);
            if map.insert(spec, entry).is_none() {
                self.bytes.fetch_add(b as u64, Ordering::Relaxed);
            }
        }
    }

    /// Coarse per-entry heap estimate: the spec's index vectors, the map
    /// entry itself, and — for retained polyhedra — rows of `dim + 1`
    /// field elements each (inline size of `F`; heap-backed fields like
    /// `Rat` undercount, which the gauges document as acceptable).
    fn entry_bytes(spec: &RegionSpec, entry: &MemoEntry<F>) -> usize {
        let spec_b = (spec.anchors.len() + spec.excluded.len()) * std::mem::size_of::<usize>();
        let entry_b = match entry {
            MemoEntry::Pruned => 0,
            MemoEntry::Poly(p) => {
                let row = (p.dim() + 1) * std::mem::size_of::<F>() + 24;
                std::mem::size_of::<Polyhedron<F>>() + (p.ineqs().len() + p.eqs().len()) * row
            }
        };
        spec_b + entry_b + std::mem::size_of::<(RegionSpec, MemoEntry<F>)>() + 16
    }

    /// Number of memoized regions (pruned verdicts included).
    pub fn len(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    /// True iff nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The insert bound this memo was created with.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Estimated heap bytes of the retained entries (see
    /// [`RegionMemo::entry_bytes`] for the estimation rules).
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed) as usize
    }
}

/// Lazy, pruned enumerator of the Prop 1 polyhedra of one decision region.
///
/// Yields `(polyhedron, spec)` pairs. With a query point
/// ([`RegionStream::for_query`]) the anchor sets are ordered
/// nearest-anchor-first (ties broken lexicographically, i.e. in canonical
/// order) and the pruner drops provably-empty and dominated regions before
/// any LP runs. Without one ([`RegionStream::canonical`]) the order is the
/// eager cache's lexicographic order and nothing is pruned, which is the
/// configuration the differential tests compare set-for-set against
/// [`RegionCache::build`].
///
/// Memory is `O(|A-sets|)` (the ordered anchor list) plus whatever the
/// optional memo retains — never the `O(n^k)` of the materialized cache.
pub struct RegionStream<'a, F: Field> {
    ds: &'a ContinuousDataset<F>,
    others: Vec<usize>,
    min_sz: usize,
    strict: bool,
    prune: bool,
    memo: Option<&'a RegionMemo<F>>,
    a_sets: AnchorOrder,
    a_pos: usize,
    cur: Option<(Vec<usize>, Combinations)>,
    scratch_mask: Vec<bool>,
    counters: Option<&'a RegionCounters>,
}

/// The emission order of anchor sets for one `(dataset, k, target, query)`
/// tuple, shareable across streams. Greedy-deletion and hitting-set loops
/// re-check the same point many times; computing this once per query point
/// (instead of once per check) removes the `Θ(C(n, maj) log C(n, maj))`
/// floor those loops would otherwise pay on every iteration.
pub type AnchorOrder = Arc<Vec<Vec<usize>>>;

/// The anchor sets of the `target` region in emission order: canonical
/// (lexicographic) without a query point, nearest-anchor-first (ascending
/// [`anchor_key`], canonical ties) with one.
pub fn anchor_order<F: Field>(
    ds: &ContinuousDataset<F>,
    k: OddK,
    target: Label,
    query: Option<&[F]>,
) -> AnchorOrder {
    let same = ds.indices_of(target);
    let maj = k.majority();
    let mut a_sets: Vec<Vec<usize>> = Combinations::new(same.len(), maj)
        .map(|positions| positions.iter().map(|&i| same[i]).collect())
        .collect();
    if let Some(x) = query {
        let keys: Vec<F> = a_sets.iter().map(|a| anchor_key(ds, x, a)).collect();
        let mut order: Vec<usize> = (0..a_sets.len()).collect();
        order.sort_by(|&i, &j| {
            keys[i].partial_cmp(&keys[j]).unwrap_or(std::cmp::Ordering::Equal).then(i.cmp(&j))
        });
        a_sets = order.into_iter().map(|i| std::mem::take(&mut a_sets[i])).collect();
    }
    Arc::new(a_sets)
}

impl<'a, F: Field> RegionStream<'a, F> {
    /// The fully-general constructor: `query` turns on nearest-anchor-first
    /// ordering, `prune` the pre-LP pruner, `memo` the visited-region memo.
    pub fn new(
        ds: &'a ContinuousDataset<F>,
        k: OddK,
        target: Label,
        query: Option<&[F]>,
        prune: bool,
        memo: Option<&'a RegionMemo<F>>,
    ) -> Self {
        let order = anchor_order(ds, k, target, query);
        RegionStream::with_order(ds, k, target, order, prune, memo)
    }

    /// [`RegionStream::new`] over a precomputed [`AnchorOrder`] — the repeat
    /// callers' path (greedy / hitting-set loops over one query point).
    pub fn with_order(
        ds: &'a ContinuousDataset<F>,
        k: OddK,
        target: Label,
        order: AnchorOrder,
        prune: bool,
        memo: Option<&'a RegionMemo<F>>,
    ) -> Self {
        // Memo entries encode prune verdicts, so a memo shared between
        // pruned and unpruned streams would corrupt both: an unpruned
        // stream would skip memoized `Pruned` regions, and a pruned one
        // would emit regions an unpruned warm-up materialized.
        assert!(memo.is_none() || prune, "a region memo requires pruning enabled");
        let others = ds.indices_of(target.flip());
        let min_sz = k.minority().min(others.len());
        let scratch_mask = vec![false; others.len()];
        RegionStream {
            ds,
            others,
            min_sz,
            strict: target == Label::Negative,
            prune,
            memo,
            a_sets: order,
            a_pos: 0,
            cur: None,
            scratch_mask,
            counters: None,
        }
    }

    /// Attaches activity counters (see [`RegionCounters`]); purely
    /// observational — the yielded sequence is unchanged.
    pub fn counting(mut self, counters: &'a RegionCounters) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Canonical (lexicographic) order, unpruned: the eager oracle's
    /// enumeration, streamed.
    pub fn canonical(ds: &'a ContinuousDataset<F>, k: OddK, target: Label) -> Self {
        RegionStream::new(ds, k, target, None, false, None)
    }

    /// Nearest-anchor-first, pruned enumeration for the query point `x` —
    /// the serving path.
    pub fn for_query(
        ds: &'a ContinuousDataset<F>,
        k: OddK,
        target: Label,
        x: &[F],
        memo: Option<&'a RegionMemo<F>>,
    ) -> Self {
        RegionStream::new(ds, k, target, Some(x), true, memo)
    }
}

impl<F: Field> Iterator for RegionStream<'_, F> {
    type Item = (Arc<Polyhedron<F>>, RegionSpec);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.cur.is_none() {
                let anchors = self.a_sets.get(self.a_pos)?.clone();
                self.a_pos += 1;
                self.cur = Some((anchors, Combinations::new(self.others.len(), self.min_sz)));
            }
            let (anchors, b_iter) = self.cur.as_mut().unwrap();
            let Some(b_positions) = b_iter.next() else {
                self.cur = None;
                continue;
            };
            self.scratch_mask.iter_mut().for_each(|m| *m = false);
            for &bj in &b_positions {
                self.scratch_mask[bj] = true;
            }
            let excluded: Vec<usize> = b_positions.iter().map(|&bj| self.others[bj]).collect();
            let spec = RegionSpec { anchors: anchors.clone(), excluded };
            if let Some(memo) = self.memo {
                match memo.get(&spec) {
                    Some(MemoEntry::Pruned) => {
                        if let Some(c) = self.counters {
                            c.memo_pruned.fetch_add(1, Ordering::Relaxed);
                        }
                        continue;
                    }
                    Some(MemoEntry::Poly(p)) => {
                        if let Some(c) = self.counters {
                            c.yields.fetch_add(1, Ordering::Relaxed);
                        }
                        crate::tally::bump_region_yields();
                        return Some((p, spec));
                    }
                    None => {}
                }
            }
            // Rows are built once and shared by the pruner and the kept
            // polyhedron — row construction dominates the cold pass.
            let rows = region_rows(self.ds, &spec.anchors, &self.others, &self.scratch_mask);
            if self.prune {
                if let Some(reason) = prune_region_masked(
                    self.ds,
                    &spec.anchors,
                    &self.others,
                    &self.scratch_mask,
                    &spec.excluded,
                    self.strict,
                    &rows,
                ) {
                    if let Some(c) = self.counters {
                        match reason {
                            PruneReason::Empty => c.pruned_empty.fetch_add(1, Ordering::Relaxed),
                            PruneReason::Dominated(_) => {
                                c.pruned_dominated.fetch_add(1, Ordering::Relaxed)
                            }
                        };
                    }
                    if let Some(memo) = self.memo {
                        memo.insert(spec, MemoEntry::Pruned);
                    }
                    continue;
                }
            }
            let poly = Arc::new(polyhedron_from_rows(self.ds.dim(), rows));
            if let Some(memo) = self.memo {
                memo.insert(spec.clone(), MemoEntry::Poly(poly.clone()));
            }
            if let Some(c) = self.counters {
                c.yields.fetch_add(1, Ordering::Relaxed);
            }
            crate::tally::bump_region_yields();
            return Some((poly, spec));
        }
    }
}

/// The `Arc`-shareable lazy-region bundle the batch engine memoizes behind
/// its artifact store: an owned copy of the dataset plus one [`RegionMemo`]
/// per decision region. Unlike [`RegionCache`], construction is `O(n)`; the
/// decomposition is enumerated (and selectively retained) only as queries
/// visit it.
#[derive(Debug)]
pub struct LazyRegions<F> {
    ds: ContinuousDataset<F>,
    k: OddK,
    positive: RegionMemo<F>,
    negative: RegionMemo<F>,
    counters: Arc<RegionCounters>,
}

impl<F: Field> LazyRegions<F> {
    /// Default bound on memoized regions per decision region.
    pub const DEFAULT_MEMO_CAP: usize = 1 << 16;

    /// A lazy view of the `f^k` decomposition over `ds`.
    pub fn new(ds: &ContinuousDataset<F>, k: OddK) -> Self {
        LazyRegions {
            ds: ds.clone(),
            k,
            positive: RegionMemo::new(Self::DEFAULT_MEMO_CAP),
            negative: RegionMemo::new(Self::DEFAULT_MEMO_CAP),
            counters: Arc::new(RegionCounters::default()),
        }
    }

    /// [`LazyRegions::new`], sharing an external [`RegionCounters`] — the
    /// engine hands every per-`k` view (across artifact-store generations)
    /// the same counters so prune/yield totals are engine-wide.
    pub fn with_counters(
        ds: &ContinuousDataset<F>,
        k: OddK,
        counters: Arc<RegionCounters>,
    ) -> Self {
        let mut lazy = Self::new(ds, k);
        lazy.counters = counters;
        lazy
    }

    /// The `k` this view was built for.
    pub fn k(&self) -> OddK {
        self.k
    }

    /// The activity counters every stream of this view records into.
    pub fn counters(&self) -> &Arc<RegionCounters> {
        &self.counters
    }

    /// A pruned, nearest-anchor-first, memoized stream of the `target`
    /// region's polyhedra for the query point `x`.
    pub fn stream(&self, target: Label, x: &[F]) -> RegionStream<'_, F> {
        let memo = match target {
            Label::Positive => &self.positive,
            Label::Negative => &self.negative,
        };
        RegionStream::for_query(&self.ds, self.k, target, x, Some(memo)).counting(&self.counters)
    }

    /// The nearest-anchor-first [`AnchorOrder`] for `x` — compute once, then
    /// feed to [`LazyRegions::stream_with_order`] for every re-check of the
    /// same point (greedy / hitting-set loops).
    pub fn order_for(&self, target: Label, x: &[F]) -> AnchorOrder {
        anchor_order(&self.ds, self.k, target, Some(x))
    }

    /// [`LazyRegions::stream`] over a precomputed [`AnchorOrder`].
    pub fn stream_with_order(&self, target: Label, order: AnchorOrder) -> RegionStream<'_, F> {
        let memo = match target {
            Label::Positive => &self.positive,
            Label::Negative => &self.negative,
        };
        RegionStream::with_order(&self.ds, self.k, target, order, true, Some(memo))
            .counting(&self.counters)
    }

    /// Total regions memoized so far (both decision regions, prune verdicts
    /// included) — observability for warm/cold diagnostics.
    pub fn memoized(&self) -> usize {
        self.positive.len() + self.negative.len()
    }

    /// Combined insert bound of the two per-region memos (the denominator of
    /// the memo-fill gauge).
    pub fn memo_cap(&self) -> usize {
        self.positive.cap() + self.negative.cap()
    }

    /// Estimated heap bytes of the two memos alone (the `memo` component
    /// of the engine's byte gauges, reported separately from the artifact
    /// total so operators can see memo growth against its cap).
    pub fn memo_bytes(&self) -> usize {
        self.positive.approx_bytes() + self.negative.approx_bytes()
    }

    /// Estimated heap bytes: the owned dataset copy plus both memos.
    pub fn approx_bytes(&self) -> usize {
        self.ds.approx_bytes() + self.memo_bytes()
    }
}

/// The Prop 1 decomposition of **both** decision regions, materialized once.
///
/// This is the `O(n^k)`-memory eager construction: every polyhedron is built
/// before the first query can be answered. The serving path now runs on
/// [`LazyRegions`]; the cache remains as the differential-testing oracle,
/// and [`RegionCache::ordered_pruned_with`] replays the lazy path's ordering and
/// pruning over the materialized entries so the two stay byte-compatible.
#[derive(Clone, Debug)]
pub struct RegionCache<F> {
    k: OddK,
    positive: Vec<(Polyhedron<F>, RegionSpec)>,
    negative: Vec<(Polyhedron<F>, RegionSpec)>,
    /// Per-entry prune verdicts, parallel to `positive` / `negative`.
    /// Decisions are query-independent, so they are computed once here
    /// (reusing each entry's already-materialized rows) instead of on every
    /// [`RegionCache::ordered_pruned_with`] iteration.
    positive_pruned: Vec<bool>,
    negative_pruned: Vec<bool>,
}

impl<F: Field> RegionCache<F> {
    /// Materializes the decomposition for `f^k` over `ds`.
    pub fn build(ds: &ContinuousDataset<F>, k: OddK) -> Self {
        let collect = |target| -> (Vec<(Polyhedron<F>, RegionSpec)>, Vec<bool>) {
            let others = ds.indices_of(match target {
                Label::Positive => Label::Negative,
                Label::Negative => Label::Positive,
            });
            let strict = target == Label::Negative;
            let entries: Vec<(Polyhedron<F>, RegionSpec)> = RegionStream::canonical(ds, k, target)
                .map(|(p, spec)| (Arc::try_unwrap(p).unwrap_or_else(|a| (*a).clone()), spec))
                .collect();
            let pruned = entries
                .iter()
                .map(|(poly, spec)| {
                    if region_rows_infeasible(poly.ineqs(), strict) {
                        return true;
                    }
                    let mut mask = vec![false; others.len()];
                    for (oj, &o) in others.iter().enumerate() {
                        if spec.excluded.binary_search(&o).is_ok() {
                            mask[oj] = true;
                        }
                    }
                    dominated_by(
                        ds,
                        &spec.anchors,
                        &others,
                        &mask,
                        &spec.excluded,
                        strict,
                        poly.ineqs(),
                    )
                    .is_some()
                })
                .collect();
            (entries, pruned)
        };
        let (positive, positive_pruned) = collect(Label::Positive);
        let (negative, negative_pruned) = collect(Label::Negative);
        RegionCache { k, positive, negative, positive_pruned, negative_pruned }
    }

    /// The `k` this cache was built for.
    pub fn k(&self) -> OddK {
        self.k
    }

    /// The materialized `(polyhedron, spec)` entries of the `target` region,
    /// in canonical order.
    pub fn entries(&self, target: Label) -> &[(Polyhedron<F>, RegionSpec)] {
        match target {
            Label::Positive => &self.positive,
            Label::Negative => &self.negative,
        }
    }

    /// The polyhedra whose union (closed for `Positive`, strict interiors for
    /// `Negative`) is the `target` decision region, in canonical order.
    pub fn polyhedra(&self, target: Label) -> impl Iterator<Item = &Polyhedron<F>> {
        self.entries(target).iter().map(|(p, _)| p)
    }

    /// The permutation that puts the `target` entries nearest-anchor-first
    /// for `x` — the eager twin of [`anchor_order`]. The ordering key and
    /// tie-breaking (canonical order within equal keys) are the ones the
    /// stream uses.
    pub fn query_order(&self, ds: &ContinuousDataset<F>, target: Label, x: &[F]) -> Vec<usize> {
        let entries = self.entries(target);
        let keys: Vec<F> = entries.iter().map(|(_, s)| anchor_key(ds, x, &s.anchors)).collect();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&i, &j| {
            keys[i].partial_cmp(&keys[j]).unwrap_or(std::cmp::Ordering::Equal).then(i.cmp(&j))
        });
        order
    }

    /// The `target` entries in a [`RegionCache::query_order`] permutation,
    /// filtered by [`prune_region`]'s decisions — the eager twin of
    /// [`RegionStream::for_query`]: iterating it performs the LP sequence
    /// the lazy path performs.
    pub fn ordered_pruned_with(
        &self,
        target: Label,
        order: Vec<usize>,
    ) -> impl Iterator<Item = &(Polyhedron<F>, RegionSpec)> + '_ {
        let entries = self.entries(target);
        let pruned = match target {
            Label::Positive => &self.positive_pruned,
            Label::Negative => &self.negative_pruned,
        };
        order.into_iter().filter(move |&i| !pruned[i]).map(move |i| &entries[i])
    }

    /// Estimated heap bytes of the materialized decomposition (same row
    /// estimation rules as [`RegionMemo`]).
    pub fn approx_bytes(&self) -> usize {
        let entry = |(p, s): &(Polyhedron<F>, RegionSpec)| {
            let row = (p.dim() + 1) * std::mem::size_of::<F>() + 24;
            std::mem::size_of::<(Polyhedron<F>, RegionSpec)>()
                + (p.ineqs().len() + p.eqs().len()) * row
                + (s.anchors.len() + s.excluded.len()) * std::mem::size_of::<usize>()
        };
        self.positive.iter().map(entry).sum::<usize>()
            + self.negative.iter().map(entry).sum::<usize>()
            + self.positive_pruned.len()
            + self.negative_pruned.len()
    }
}

/// Where an ℓ2 explanation engine takes the Prop 1 polyhedra from, fixed
/// when the engine is built. All three sources emit the same polyhedra in
/// the same order with the same prune decisions, so every operation gives
/// the same answer over each (property-tested in
/// `tests/prop_regions_lazy.rs`).
#[derive(Clone, Debug)]
pub(crate) enum RegionSource<'a, F> {
    /// A fresh pruned, nearest-anchor-first stream per call.
    Stream,
    /// A shared [`LazyRegions`] view: the batch engine's serving path.
    Lazy(&'a LazyRegions<F>),
    /// The eager [`RegionCache`]: the differential oracle.
    Cache(&'a RegionCache<F>),
}

impl<'a, F: Field> RegionSource<'a, F> {
    /// The polyhedra of the decision region `x` is *not* in, ordered for
    /// `x`. The order is computed here, once; every
    /// [`QueryRegions::polyhedra`] call replays it.
    pub(crate) fn for_query(
        &self,
        ds: &'a ContinuousDataset<F>,
        k: OddK,
        x: &[F],
    ) -> QueryRegions<'a, F> {
        assert_eq!(x.len(), ds.dim());
        let target = crate::ContinuousKnn::new(ds, knn_space::LpMetric::L2, k).classify(x).flip();
        let order = match *self {
            RegionSource::Stream => Order::Stream(anchor_order(ds, k, target, Some(x))),
            RegionSource::Lazy(lazy) => Order::Lazy(lazy, lazy.order_for(target, x)),
            RegionSource::Cache(cache) => Order::Cache(cache, cache.query_order(ds, target, x)),
        };
        QueryRegions { ds, k, target, order }
    }
}

/// One source's emission order for one query point.
enum Order<'a, F> {
    Stream(AnchorOrder),
    Lazy(&'a LazyRegions<F>, AnchorOrder),
    Cache(&'a RegionCache<F>, Vec<usize>),
}

/// The target region's polyhedra for one query point (see
/// [`RegionSource::for_query`]). Greedy-deletion and hitting-set loops
/// re-check the same point many times and iterate this once per check.
pub(crate) struct QueryRegions<'a, F> {
    ds: &'a ContinuousDataset<F>,
    k: OddK,
    target: Label,
    order: Order<'a, F>,
}

impl<F: Field> QueryRegions<'_, F> {
    /// The label every yielded polyhedron's points take: the flip of `f(x)`.
    pub(crate) fn target(&self) -> Label {
        self.target
    }

    /// The regions in the query's order, prune decisions applied.
    pub(crate) fn polyhedra(&self) -> Box<dyn Iterator<Item = SourcedRegion<'_, F>> + '_> {
        let target = self.target;
        match &self.order {
            Order::Stream(order) => Box::new(
                RegionStream::with_order(self.ds, self.k, target, order.clone(), true, None)
                    .map(|(p, spec)| SourcedRegion::Shared(p, spec)),
            ),
            Order::Lazy(lazy, order) => Box::new(
                lazy.stream_with_order(target, order.clone())
                    .map(|(p, spec)| SourcedRegion::Shared(p, spec)),
            ),
            Order::Cache(cache, order) => Box::new(
                cache.ordered_pruned_with(target, order.clone()).map(SourcedRegion::Borrowed),
            ),
        }
    }
}

/// A region from a [`QueryRegions`]: its polyhedron, shared with a stream or
/// memo or borrowed from the eager cache, together with its spec.
pub(crate) enum SourcedRegion<'s, F> {
    Shared(Arc<Polyhedron<F>>, RegionSpec),
    Borrowed(&'s (Polyhedron<F>, RegionSpec)),
}

impl<F> SourcedRegion<'_, F> {
    /// The region's anchor set `A`, as ascending dataset indices.
    pub(crate) fn anchors(&self) -> &[usize] {
        match self {
            SourcedRegion::Shared(_, spec) | SourcedRegion::Borrowed((_, spec)) => &spec.anchors,
        }
    }
}

impl<F> std::borrow::Borrow<Polyhedron<F>> for SourcedRegion<'_, F> {
    fn borrow(&self) -> &Polyhedron<F> {
        match self {
            SourcedRegion::Shared(p, _) => p,
            SourcedRegion::Borrowed((p, _)) => p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_num::field::dot;
    use knn_num::Rat;
    use knn_space::LpMetric;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn combinations_enumeration() {
        let all: Vec<Vec<usize>> = Combinations::new(4, 2).collect();
        assert_eq!(
            all,
            vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3], vec![2, 3],]
        );
        assert_eq!(Combinations::new(3, 0).collect::<Vec<_>>(), vec![Vec::<usize>::new()]);
        assert_eq!(Combinations::new(2, 3).count(), 0);
        assert_eq!(Combinations::new(5, 5).count(), 1);
    }

    #[test]
    fn bisector_is_equidistance_boundary() {
        let a = [Rat::from_int(0i64), Rat::from_int(0i64)];
        let c = [Rat::from_int(2i64), Rat::from_int(0i64)];
        let (row, rhs) = bisector_row(&a, &c);
        // Midpoint (1, 0) lies exactly on the hyperplane.
        let mid = [Rat::one(), Rat::zero()];
        assert_eq!(dot(&row, &mid), rhs);
        // Points closer to a satisfy the ≤.
        let near_a = [Rat::frac(1, 2), Rat::one()];
        assert!(dot(&row, &near_a) < rhs);
    }

    /// Membership in ∪(polyhedra) must coincide with the classifier's regions.
    #[test]
    fn region_union_matches_classifier() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..40 {
            let dim = rng.gen_range(1..3usize);
            let n_pos = rng.gen_range(1..4usize);
            let n_neg = rng.gen_range(1..4usize);
            let k = OddK::of(if (n_pos + n_neg) >= 3 && rng.gen_bool(0.4) { 3 } else { 1 });
            if n_pos + n_neg < k.get() as usize {
                continue;
            }
            let rnd_pt = |rng: &mut StdRng| -> Vec<Rat> {
                (0..dim).map(|_| Rat::from_int(rng.gen_range(-3i64..4))).collect()
            };
            let pos: Vec<Vec<Rat>> = (0..n_pos).map(|_| rnd_pt(&mut rng)).collect();
            let neg: Vec<Vec<Rat>> = (0..n_neg).map(|_| rnd_pt(&mut rng)).collect();
            let ds = ContinuousDataset::from_sets(pos, neg);
            let knn = crate::ContinuousKnn::new(&ds, LpMetric::L2, k);
            for _ in 0..10 {
                let q = rnd_pt(&mut rng);
                let label = knn.classify(&q);
                let in_pos_union =
                    RegionStream::canonical(&ds, k, Label::Positive).any(|(p, _)| p.contains(&q));
                let in_neg_union = RegionStream::canonical(&ds, k, Label::Negative)
                    .any(|(p, _)| p.contains_strictly(&q));
                assert_eq!(
                    label == Label::Positive,
                    in_pos_union,
                    "positive region mismatch at {q:?}"
                );
                assert_eq!(
                    label == Label::Negative,
                    in_neg_union,
                    "negative region mismatch at {q:?}"
                );
            }
        }
    }

    /// The stream in query mode must emit exactly the canonical region set
    /// (reordered), and its memo must hand back the identical polyhedra on a
    /// warm pass.
    #[test]
    fn stream_reorders_without_losing_regions() {
        let ds = ContinuousDataset::from_sets(
            vec![vec![Rat::from_int(0i64)], vec![Rat::from_int(2i64)]],
            vec![vec![Rat::from_int(5i64)], vec![Rat::from_int(7i64)]],
        );
        let k = OddK::THREE;
        let canonical: Vec<RegionSpec> =
            RegionStream::canonical(&ds, k, Label::Positive).map(|(_, s)| s).collect();
        let x = [Rat::from_int(6i64)];
        let ordered: Vec<RegionSpec> =
            RegionStream::new(&ds, k, Label::Positive, Some(&x), false, None)
                .map(|(_, s)| s)
                .collect();
        let mut a = canonical.clone();
        let mut b = ordered.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "query ordering must permute, not change, the set");

        let memo = RegionMemo::new(1024);
        let cold: Vec<_> =
            RegionStream::new(&ds, k, Label::Positive, Some(&x), true, Some(&memo)).collect();
        let warm: Vec<_> =
            RegionStream::new(&ds, k, Label::Positive, Some(&x), true, Some(&memo)).collect();
        assert_eq!(cold.len(), warm.len());
        for ((p1, s1), (p2, s2)) in cold.iter().zip(&warm) {
            assert_eq!(s1, s2);
            assert!(Arc::ptr_eq(p1, p2), "warm pass must reuse the memoized polyhedron");
        }
    }

    /// Nearest-anchor-first: with k = 1 the first emitted region must be
    /// anchored at the class point nearest the query.
    #[test]
    fn query_ordering_is_nearest_first() {
        let ds = ContinuousDataset::from_sets(
            vec![vec![Rat::from_int(-5i64)], vec![Rat::from_int(1i64)]],
            vec![vec![Rat::from_int(10i64)]],
        );
        let x = [Rat::from_int(0i64)];
        let first =
            RegionStream::for_query(&ds, OddK::ONE, Label::Positive, &x, None).next().unwrap().1;
        assert_eq!(first.anchors, vec![1], "anchor 1 (at +1) is nearest to x = 0");
    }

    /// A duplicate point shared by both classes makes the negative region's
    /// strict polyhedron empty — the pruner must catch the zero row.
    #[test]
    fn pruner_catches_duplicate_point_zero_row() {
        let p = vec![Rat::from_int(1i64), Rat::from_int(1i64)];
        let ds = ContinuousDataset::from_sets(vec![p.clone()], vec![p, vec![Rat::zero(); 2]]);
        // Negative target, k = 1: the region anchored at the duplicate
        // negative (index 1) with B = {} has the zero row from anchor vs the
        // positive duplicate → strict-empty.
        let reason = prune_region(&ds, Label::Negative, &[1], &[]);
        assert_eq!(reason, Some(PruneReason::Empty));
    }
}
