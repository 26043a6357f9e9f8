//! The CDCL engine with native guarded cardinality constraints.

use crate::lit::{LBool, Lit, Var};
use std::mem::size_of;
use std::sync::Arc;

/// Outcome of a solve call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found (query it with [`Solver::value`]).
    Sat,
    /// No satisfying assignment exists (under the given assumptions).
    Unsat,
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    learned: bool,
    activity: f64,
    deleted: bool,
}

/// Most guard literals one cardinality constraint may carry.
pub const MAX_GUARDS: usize = 2;

/// A guarded at-least-`bound` constraint: `g₁ ∧ g₂ ⇒ Σ lits ≥ bound`
/// (unconditionally enforced without guards). Immutable once added: its
/// false-literal counter lives in [`Solver::nfalse`], so a sealed card can
/// be shared by every clone of the solver.
#[derive(Clone, Debug)]
struct Card {
    guards: [Option<Lit>; MAX_GUARDS],
    lits: Vec<Lit>,
    bound: u32,
}

impl Card {
    fn guards(&self) -> impl Iterator<Item = Lit> + '_ {
        self.guards.iter().flatten().copied()
    }
}

/// The cardinality constraints frozen by [`Solver::seal`], with their
/// occurrence lists: read-only, shared by `Arc` between a solver and its
/// clones. Card `i < cards.len()` of a solver is `cards[i]` here; later
/// cards live in the solver itself.
#[derive(Clone, Debug, Default)]
struct Sealed {
    cards: Vec<Card>,
    /// `card_occ[l]`, `guard_occ[l]` as in [`Solver`], for the literals of
    /// the variables that existed at sealing time.
    card_occ: Vec<Vec<u32>>,
    guard_occ: Vec<Vec<u32>>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Reason {
    None,
    Clause(u32),
    Card(u32),
}

#[derive(Clone, Copy, Debug)]
enum Conflict {
    Clause(u32),
    Card(u32),
}

/// CDCL SAT solver with native guarded cardinality constraints.
///
/// See the crate docs for the feature list. All constraints are added through
/// [`Solver::add_clause`] and [`Solver::add_card_ge`]; incremental use is
/// supported (add constraints, solve, add more, solve again) as long as
/// solving happened at decision level zero, which this API guarantees.
///
/// `Clone` copies the whole search state. After [`Solver::seal`] the
/// cardinality constraints added so far are shared instead of copied, so a
/// clone costs its clauses and per-variable/per-card counters only.
#[derive(Clone)]
pub struct Solver {
    n_vars: usize,
    clauses: Vec<Clause>,
    learned_ids: Vec<u32>,
    /// `watches[l]` = clause ids watching literal `¬l` (inspected when `l` becomes true).
    watches: Vec<Vec<u32>>,
    /// Cards frozen by [`Solver::seal`] (ids `0..sealed.cards.len()`).
    sealed: Arc<Sealed>,
    /// Cards added since the last seal (ids from `sealed.cards.len()` on).
    cards: Vec<Card>,
    /// `nfalse[ci]` = literals of card `ci` currently false.
    nfalse: Vec<u32>,
    /// `card_occ[l]` = unsealed card ids containing literal `¬l` (their
    /// `nfalse` bumps when `l` becomes true). Grown on demand: a literal
    /// past the end has no unsealed occurrences.
    card_occ: Vec<Vec<u32>>,
    /// `guard_occ[l]` = unsealed card ids guarded by `l` (checked when `l`
    /// becomes true). Grown on demand, like `card_occ`.
    guard_occ: Vec<Vec<u32>>,

    assigns: Vec<LBool>,
    phase: Vec<bool>,
    levels: Vec<u32>,
    trail_pos: Vec<u32>,
    reasons: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: Vec<Var>,
    heap_pos: Vec<i32>,

    seen: Vec<bool>,
    ok: bool,
    /// Statistics: total conflicts seen (exposed for the benchmark harness).
    pub conflicts: u64,
    /// Literals removed from learned clauses by self-subsumption
    /// minimization (statistics for the harness).
    pub minimized_lits: u64,
    /// Statistics: total propagations.
    pub propagations: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Self {
        Solver {
            n_vars: 0,
            clauses: Vec::new(),
            learned_ids: Vec::new(),
            watches: Vec::new(),
            sealed: Arc::default(),
            cards: Vec::new(),
            nfalse: Vec::new(),
            card_occ: Vec::new(),
            guard_occ: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            levels: Vec::new(),
            trail_pos: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            seen: Vec::new(),
            ok: true,
            conflicts: 0,
            minimized_lits: 0,
            propagations: 0,
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.n_vars as u32);
        self.n_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.levels.push(0);
        self.trail_pos.push(0);
        self.reasons.push(Reason::None);
        self.activity.push(0.0);
        self.heap_pos.push(-1);
        self.seen.push(false);
        self.heap_insert(v);
        v
    }

    /// Creates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Sets the initial branching polarity of a variable (phase saving will
    /// overwrite it as search progresses). Callers use this to bias the
    /// search toward a known nearby assignment — e.g. the anchor point in a
    /// closest-counterfactual query.
    pub fn set_phase(&mut self, v: Var, polarity: bool) {
        self.phase[v.index()] = polarity;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n_vars
    }

    /// Current truth value of a literal.
    pub fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].of_lit(l)
    }

    /// Model value of a variable after a `Sat` answer.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assigns[v.index()] {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Adds a clause (disjunction of literals). Returns `false` if the solver
    /// became inconsistent at the root level. Incremental: may be called
    /// after a solve (the trail is rewound to the root first).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        // Normalize: dedupe, drop root-false literals, detect tautologies.
        let mut norm: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.lit_value(l) {
                LBool::True => return true,
                LBool::False => continue,
                LBool::Undef => {}
            }
            if norm.contains(&l.negate()) {
                return true; // tautology
            }
            if !norm.contains(&l) {
                norm.push(l);
            }
        }
        match norm.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(norm[0], Reason::None);
                self.root_propagate()
            }
            _ => {
                self.attach_clause(norm, false);
                true
            }
        }
    }

    /// Adds the guarded cardinality constraint `g₁ ∧ … ⇒ Σ lits ≥ bound`
    /// over at most [`MAX_GUARDS`] conjoined guard literals (unconditional
    /// when `guards` is empty). Literals must be distinct. Returns `false`
    /// if the solver became inconsistent at the root level. Incremental: may
    /// be called after a solve.
    pub fn add_card_ge(&mut self, guards: &[Lit], lits: &[Lit], bound: u32) -> bool {
        assert!(guards.len() <= MAX_GUARDS, "at most {MAX_GUARDS} guard literals");
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        if bound == 0 {
            return true;
        }
        // The clause that switches the constraint off: ¬g₁ ∨ ¬g₂.
        let off: Vec<Lit> = guards.iter().map(|g| g.negate()).collect();
        if bound as usize > lits.len() {
            return self.add_clause(&off);
        }
        if bound == 1 {
            // Degenerates to a clause (with the guards folded in).
            let mut c: Vec<Lit> = lits.to_vec();
            c.extend(off);
            return self.add_clause(&c);
        }
        let mut card = Card { guards: [None; MAX_GUARDS], lits: lits.to_vec(), bound };
        for (i, &g) in guards.iter().enumerate() {
            if guards.contains(&g.negate()) {
                return true; // g ∧ ¬g never activates it
            }
            if !guards[..i].contains(&g) {
                card.guards[i] = Some(g);
            }
        }
        let ci = (self.sealed.cards.len() + self.cards.len()) as u32;
        let mut nfalse = 0;
        for &l in lits {
            occurrences_of(&mut self.card_occ, l.negate()).push(ci);
            if self.lit_value(l) == LBool::False {
                nfalse += 1;
            }
        }
        for g in card.guards() {
            occurrences_of(&mut self.guard_occ, g).push(ci);
        }
        self.cards.push(card);
        self.nfalse.push(nfalse);
        if self.check_card(ci).is_some() {
            self.ok = false;
            return false;
        }
        self.root_propagate()
    }

    /// Freezes every cardinality constraint added so far, with its
    /// occurrence lists, into the prefix this solver shares with its
    /// clones. A later `clone()` copies clauses, assignment, per-variable
    /// state and one counter per card, but not the cards themselves.
    /// Search behaves exactly as without sealing: card ids and the order
    /// every occurrence list is visited in are unchanged.
    pub fn seal(&mut self) {
        if self.cards.is_empty() {
            return;
        }
        let sealed = Arc::make_mut(&mut self.sealed);
        sealed.cards.append(&mut std::mem::take(&mut self.cards));
        sealed.cards.shrink_to_fit();
        for (shared, local) in [
            (&mut sealed.card_occ, &mut self.card_occ),
            (&mut sealed.guard_occ, &mut self.guard_occ),
        ] {
            if shared.len() < local.len() {
                shared.resize_with(local.len(), Vec::new);
            }
            for (s, mut l) in shared.iter_mut().zip(std::mem::take(local)) {
                s.append(&mut l);
                s.shrink_to_fit();
            }
        }
    }

    /// Estimated heap bytes of the sealed prefix (see [`Solver::seal`]).
    /// Every clone shares it, so count it once, not per clone.
    pub fn sealed_bytes(&self) -> usize {
        let s = &self.sealed;
        cards_bytes(&s.cards) + lists_bytes(&s.card_occ) + lists_bytes(&s.guard_occ)
    }

    /// Estimated heap bytes this solver owns alone: everything but the
    /// sealed prefix. Per-variable state is `O(n_vars)`, and each card,
    /// sealed or not, has one counter here.
    pub fn local_bytes(&self) -> usize {
        let per_var = size_of::<LBool>()
            + size_of::<bool>() * 2
            + size_of::<u32>() * 2
            + size_of::<Reason>()
            + size_of::<f64>()
            + size_of::<Var>()
            + size_of::<i32>();
        let clauses: usize = self
            .clauses
            .iter()
            .map(|c| size_of::<Clause>() + c.lits.len() * size_of::<Lit>())
            .sum();
        clauses
            + self.learned_ids.len() * size_of::<u32>()
            + lists_bytes(&self.watches)
            + cards_bytes(&self.cards)
            + self.nfalse.len() * size_of::<u32>()
            + lists_bytes(&self.card_occ)
            + lists_bytes(&self.guard_occ)
            + self.n_vars * per_var
            + self.trail.len() * size_of::<Lit>()
            + self.trail_lim.len() * size_of::<usize>()
    }

    /// Card `ci`, sealed or not.
    fn card(&self, ci: u32) -> &Card {
        let ci = ci as usize;
        match self.sealed.cards.get(ci) {
            Some(card) => card,
            None => &self.cards[ci - self.sealed.cards.len()],
        }
    }

    /// The `i`-th card id in `p`'s occurrence list (`guard_occ` when
    /// `guarded`, else `card_occ`): sealed ids first, then unsealed — the
    /// order the cards were added in.
    fn occurrence(&self, p: Lit, guarded: bool, i: usize) -> Option<u32> {
        let (sealed, local) = if guarded {
            (&self.sealed.guard_occ, &self.guard_occ)
        } else {
            (&self.sealed.card_occ, &self.card_occ)
        };
        let shared = sealed.get(p.index()).map_or(&[][..], Vec::as_slice);
        match shared.get(i) {
            Some(&ci) => Some(ci),
            None => local.get(p.index())?.get(i - shared.len()).copied(),
        }
    }

    /// Bumps (`assigned`) or drops the false-literal counter of every card
    /// containing `¬l` — the cards whose count moves when `l` is assigned
    /// or unassigned.
    fn shift_nfalse(&mut self, l: Lit, assigned: bool) {
        let sealed = self.sealed.card_occ.get(l.index()).map_or(&[][..], Vec::as_slice);
        let local = self.card_occ.get(l.index()).map_or(&[][..], Vec::as_slice);
        for &ci in sealed.iter().chain(local) {
            let n = &mut self.nfalse[ci as usize];
            if assigned {
                *n += 1;
            } else {
                *n -= 1;
            }
        }
    }

    fn root_propagate(&mut self) -> bool {
        if self.propagate().is_some() {
            self.ok = false;
        }
        self.ok
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learned: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let id = self.clauses.len() as u32;
        self.watches[lits[0].negate().index()].push(id);
        self.watches[lits[1].negate().index()].push(id);
        if learned {
            self.learned_ids.push(id);
        }
        self.clauses.push(Clause { lits, learned, activity: 0.0, deleted: false });
        id
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var();
        self.assigns[v.index()] = if l.is_positive() { LBool::True } else { LBool::False };
        self.levels[v.index()] = self.decision_level();
        self.trail_pos[v.index()] = self.trail.len() as u32;
        self.reasons[v.index()] = reason;
        self.trail.push(l);
        // Cardinality counters are maintained eagerly at assignment time so
        // they stay symmetric with `cancel_until` even when propagation is
        // aborted early by a conflict.
        self.shift_nfalse(l, true);
        self.propagations += 1;
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        while self.trail.len() > target {
            let l = self.trail.pop().unwrap();
            let v = l.var();
            self.phase[v.index()] = l.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.reasons[v.index()] = Reason::None;
            self.shift_nfalse(l, false);
            if self.heap_pos[v.index()] < 0 {
                self.heap_insert(v);
            }
        }
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    /// Unit propagation over clauses and cardinality constraints.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;

            // --- Clause propagation (two watched literals) -----------------
            let mut i = 0;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut conflict = None;
            'watch: while i < ws.len() {
                let cid = ws[i];
                if self.clauses[cid as usize].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                let false_lit = p.negate();
                {
                    let lits = &mut self.clauses[cid as usize].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                let first = self.clauses[cid as usize].lits[0];
                if self.lit_value(first) == LBool::True {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let len = self.clauses[cid as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cid as usize].lits[k];
                    if self.lit_value(lk) != LBool::False {
                        self.clauses[cid as usize].lits.swap(1, k);
                        self.watches[lk.negate().index()].push(cid);
                        ws.swap_remove(i);
                        continue 'watch;
                    }
                }
                // No replacement: unit or conflict.
                if self.lit_value(first) == LBool::False {
                    conflict = Some(Conflict::Clause(cid));
                    // Keep remaining watches in place.
                    break;
                } else {
                    self.enqueue(first, Reason::Clause(cid));
                    i += 1;
                }
            }
            self.watches[p.index()].append(&mut ws);
            if let Some(c) = conflict {
                self.qhead = self.trail.len();
                return Some(c);
            }

            // --- Cardinality: p just became true ---------------------------
            // 1. cards containing ¬p gained a false literal (the counter was
            //    already bumped at enqueue time; here we only check);
            // 2. cards guarded by p moved toward activation.
            for guarded in [false, true] {
                let mut i = 0;
                while let Some(ci) = self.occurrence(p, guarded, i) {
                    if let Some(c) = self.check_card(ci) {
                        self.qhead = self.trail.len();
                        return Some(c);
                    }
                    i += 1;
                }
            }
        }
        None
    }

    /// Counter-based propagation check for one cardinality constraint. A
    /// false guard disables it; with every guard true it is active; with
    /// exactly one guard open and the rest true, a violated count refutes
    /// that guard.
    fn check_card(&mut self, ci: u32) -> Option<Conflict> {
        let card = self.card(ci);
        let len = card.lits.len();
        let slack = len as i64 - self.nfalse[ci as usize] as i64 - card.bound as i64;
        let mut open = None;
        for g in card.guards() {
            match self.lit_value(g) {
                LBool::False => return None,
                LBool::True => {}
                LBool::Undef if open.is_none() => open = Some(g),
                LBool::Undef => return None,
            }
        }
        if let Some(g) = open {
            if slack < 0 {
                self.enqueue(g.negate(), Reason::Card(ci));
            }
            return None;
        }
        if slack < 0 {
            return Some(Conflict::Card(ci));
        }
        if slack == 0 {
            for j in 0..len {
                let l = self.card(ci).lits[j];
                if self.lit_value(l) == LBool::Undef {
                    self.enqueue(l, Reason::Card(ci));
                }
            }
        }
        None
    }

    /// Premise literals (all currently false) that forced `implied`, for a
    /// propagation whose reason was `reason`. For cardinality reasons the
    /// clause is materialized lazily: `implied ∨ ¬guard ∨ (falsified lits
    /// assigned before implied)` — see DESIGN.md §2 (sat).
    fn reason_premises(&self, implied: Var, reason: Reason) -> Vec<Lit> {
        match reason {
            Reason::None => Vec::new(),
            Reason::Clause(cid) => self.clauses[cid as usize]
                .lits
                .iter()
                .copied()
                .filter(|l| l.var() != implied)
                .collect(),
            Reason::Card(ci) => {
                let card = self.card(ci);
                let cutoff = self.trail_pos[implied.index()];
                let mut out = Vec::new();
                for g in card.guards() {
                    if g.var() != implied {
                        debug_assert_eq!(self.lit_value(g), LBool::True);
                        out.push(g.negate());
                    }
                }
                for &l in &card.lits {
                    if l.var() != implied
                        && self.lit_value(l) == LBool::False
                        && self.trail_pos[l.var().index()] < cutoff
                    {
                        out.push(l);
                    }
                }
                out
            }
        }
    }

    /// All premise literals of a conflicting constraint (all currently false).
    fn conflict_premises(&self, conflict: Conflict) -> Vec<Lit> {
        match conflict {
            Conflict::Clause(cid) => self.clauses[cid as usize].lits.clone(),
            Conflict::Card(ci) => {
                let card = self.card(ci);
                let mut out = Vec::new();
                for g in card.guards() {
                    debug_assert_eq!(self.lit_value(g), LBool::True);
                    out.push(g.negate());
                }
                for &l in &card.lits {
                    if self.lit_value(l) == LBool::False {
                        out.push(l);
                    }
                }
                out
            }
        }
    }

    /// 1-UIP conflict analysis. Returns the learned clause (asserting literal
    /// first, a max-level literal second) and the backjump level.
    fn analyze(&mut self, conflict: Conflict) -> (Vec<Lit>, u32) {
        self.conflicts += 1;
        if let Conflict::Clause(cid) = conflict {
            self.bump_clause(cid);
        }
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit(0)];
        let mut counter = 0usize;
        let mut premises = self.conflict_premises(conflict);
        let mut idx = self.trail.len();
        let asserting;
        loop {
            for &q in &premises {
                let v = q.var();
                if !self.seen[v.index()] && self.levels[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.levels[v.index()] == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                asserting = pl;
                break;
            }
            let r = self.reasons[pl.var().index()];
            if let Reason::Clause(cid) = r {
                self.bump_clause(cid);
            }
            premises = self.reason_premises(pl.var(), r);
        }
        learnt[0] = asserting.negate();
        // Local (self-subsumption) minimization: drop a non-asserting literal
        // whose reason's premises all already appear in the clause (`seen`)
        // or sit at level 0 — its negation is implied by the rest, so the
        // shorter clause is still a logical consequence. This is what tames
        // the long resolution chains that cardinality propagations produce.
        let before = learnt.len();
        let mut kept = 1usize;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let redundant = match self.reasons[l.var().index()] {
                Reason::None => false,
                r => self
                    .reason_premises(l.var(), r)
                    .iter()
                    .all(|q| self.seen[q.var().index()] || self.levels[q.var().index()] == 0),
            };
            if redundant {
                self.seen[l.var().index()] = false;
            } else {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        self.minimized_lits += (before - kept) as u64;
        // Clear `seen` for the literals kept in the learned clause.
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        // Backjump level: the highest level among the non-asserting literals.
        let mut bt = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.levels[learnt[i].var().index()] > self.levels[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            bt = self.levels[learnt[1].var().index()];
        }
        self.decay_activities();
        (learnt, bt)
    }

    fn record(&mut self, learnt: Vec<Lit>) {
        if learnt.len() == 1 {
            self.enqueue(learnt[0], Reason::None);
        } else {
            let first = learnt[0];
            let cid = self.attach_clause(learnt, true);
            self.bump_clause(cid);
            self.enqueue(first, Reason::Clause(cid));
        }
    }

    // --- VSIDS ----------------------------------------------------------------

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v.index()] >= 0 {
            self.heap_sift_up(self.heap_pos[v.index()] as usize);
        }
    }

    fn bump_clause(&mut self, cid: u32) {
        let c = &mut self.clauses[cid as usize];
        if !c.learned {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for &id in &self.learned_ids {
                self.clauses[id as usize].activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    // --- Order heap (max-heap on activity) -------------------------------------

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        debug_assert!(self.heap_pos[v.index()] < 0);
        self.heap_pos[v.index()] = self.heap.len() as i32;
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].index()] = i as i32;
        self.heap_pos[self.heap[j].index()] = j as i32;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.index()] = -1;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    // --- Learned clause database reduction --------------------------------------

    fn reduce_db(&mut self) {
        let locked = |s: &Self, cid: u32| {
            let first = s.clauses[cid as usize].lits[0];
            s.lit_value(first) == LBool::True
                && s.reasons[first.var().index()] == Reason::Clause(cid)
        };
        self.learned_ids.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .unwrap()
        });
        let half = self.learned_ids.len() / 2;
        let mut kept = Vec::with_capacity(self.learned_ids.len() - half);
        for (i, &cid) in self.learned_ids.iter().enumerate() {
            if i < half && !locked(self, cid) && self.clauses[cid as usize].lits.len() > 2 {
                self.clauses[cid as usize].deleted = true;
            } else {
                kept.push(cid);
            }
        }
        self.learned_ids = kept;
        // Deleted clauses are dropped lazily from the watch lists.
    }

    // --- Top-level search ----------------------------------------------------------

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On `Sat`, the model satisfies all constraints and assumptions; on
    /// `Unsat`, no assignment extending the assumptions exists. The solver can
    /// be reused afterwards (state is rewound to the root level on entry).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, u64::MAX)
            .expect("unlimited solve cannot exhaust its budget")
    }

    /// [`Solver::solve_with`] with a conflict budget: returns `None` when the
    /// budget is exhausted before an answer is reached (anytime use — e.g.
    /// time-bounded optimality proofs in the counterfactual search).
    pub fn solve_limited(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> Option<SolveResult> {
        if !self.ok {
            return Some(SolveResult::Unsat);
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return Some(SolveResult::Unsat);
        }

        let mut restarts = 0u32;
        let mut budget = 100u64 * luby(restarts) as u64;
        let mut since_restart = 0u64;
        let mut spent: u64 = 0;
        let max_learned = 4000 + self.clauses.len() / 2;

        loop {
            if let Some(conflict) = self.propagate() {
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                since_restart += 1;
                spent += 1;
                if spent > max_conflicts {
                    self.cancel_until(0);
                    return None;
                }
                let (learnt, bt) = self.analyze(conflict);
                self.cancel_until(bt);
                self.record(learnt);
            } else {
                if since_restart >= budget {
                    restarts += 1;
                    since_restart = 0;
                    budget = 100 * luby(restarts) as u64;
                    self.cancel_until(0);
                    continue;
                }
                if self.learned_ids.len() > max_learned + (self.conflicts / 3) as usize {
                    self.reduce_db();
                }
                // Assumption decisions occupy the first levels, in order.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            self.trail_lim.push(self.trail.len()); // empty level keeps the mapping
                        }
                        LBool::False => {
                            self.cancel_until(0);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, Reason::None);
                        }
                    }
                } else {
                    match self.pick_branch() {
                        None => return Some(SolveResult::Sat),
                        Some(v) => {
                            let lit = v.lit(self.phase[v.index()]);
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(lit, Reason::None);
                        }
                    }
                }
            }
        }
    }
}

/// The occurrence list of `l` in `lists`, growing `lists` to reach it.
fn occurrences_of(lists: &mut Vec<Vec<u32>>, l: Lit) -> &mut Vec<u32> {
    if lists.len() <= l.index() {
        lists.resize_with(l.index() + 1, Vec::new);
    }
    &mut lists[l.index()]
}

/// Estimated heap bytes of `cards` (headers plus literals).
fn cards_bytes(cards: &[Card]) -> usize {
    cards.iter().map(|c| size_of::<Card>() + c.lits.len() * size_of::<Lit>()).sum()
}

/// Estimated heap bytes of per-literal id lists (headers plus ids).
fn lists_bytes(lists: &[Vec<u32>]) -> usize {
    lists.iter().map(|l| size_of::<Vec<u32>>() + l.len() * size_of::<u32>()).sum()
}

/// The Luby restart sequence 1,1,2,1,1,2,4,…
fn luby(i: u32) -> u32 {
    let mut k = 1u32;
    while (1u64 << (k + 1)) - 1 <= i as u64 + 1 {
        k += 1;
    }
    let mut i = i;
    let mut kk = k;
    loop {
        if i + 2 == (1 << (kk + 1)) {
            return 1 << kk;
        }
        if i + 1 < (1 << kk) {
            kk -= 1;
            continue;
        }
        i -= (1 << kk) - 1;
        kk = 1;
        while (1u64 << (kk + 1)) - 1 <= i as u64 + 1 {
            kk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        solver.new_vars(n)
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0].pos()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert!(!s.add_clause(&[v[0].neg()]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0].pos()]);
        s.add_clause(&[v[0].neg(), v[1].pos()]);
        s.add_clause(&[v[1].neg(), v[2].pos()]);
        s.add_clause(&[v[2].neg(), v[3].pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[3]), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3).map(|_| s.new_vars(2)).collect();
        for row in &p {
            s.add_clause(&[row[0].pos(), row[1].pos()]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in a + 1..3 {
                    s.add_clause(&[p[a][j].neg(), p[b][j].neg()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn cardinality_at_least() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        let all: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        assert!(s.add_card_ge(&[], &all, 3));
        assert_eq!(s.solve(), SolveResult::Sat);
        let count = v.iter().filter(|&&x| s.value(x) == Some(true)).count();
        assert!(count >= 3, "model has only {count} true literals");
    }

    #[test]
    fn cardinality_conflicts_with_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let all: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        s.add_card_ge(&[], &all, 3);
        // Force three of them false: 3 true out of remaining 1 impossible.
        s.add_clause(&[v[0].neg()]);
        s.add_clause(&[v[1].neg()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn cardinality_equals_length_forces_all() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let all: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        s.add_card_ge(&[], &all, 3);
        assert_eq!(s.solve(), SolveResult::Sat);
        for x in &v {
            assert_eq!(s.value(*x), Some(true));
        }
    }

    #[test]
    fn guarded_cardinality_inactive_when_guard_false() {
        let mut s = Solver::new();
        let g = s.new_var();
        let v = lits(&mut s, 3);
        let all: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        s.add_card_ge(&[g.pos()], &all, 3);
        s.add_clause(&[v[0].neg()]); // makes the card unsatisfiable if active
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(g), Some(false), "guard must be forced off");
    }

    #[test]
    fn guarded_cardinality_enforced_under_assumption() {
        let mut s = Solver::new();
        let g = s.new_var();
        let v = lits(&mut s, 4);
        let all: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        s.add_card_ge(&[g.pos()], &all, 2);
        s.add_clause(&[v[0].neg()]);
        s.add_clause(&[v[1].neg()]);
        // Active guard: need 2 true among v[2], v[3].
        assert_eq!(s.solve_with(&[g.pos()]), SolveResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
        assert_eq!(s.value(v[3]), Some(true));
        // Still satisfiable without the assumption.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumptions_unsat_then_sat_incremental() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        assert_eq!(s.solve_with(&[v[0].neg(), v[1].neg()]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[v[0].neg()]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn conflicting_cardinalities() {
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        let pos: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        let neg: Vec<Lit> = v.iter().map(|x| x.neg()).collect();
        // At least 4 true and at least 4 false among 6: impossible.
        s.add_card_ge(&[], &pos, 4);
        assert!(!s.add_card_ge(&[], &neg, 4) || s.solve() == SolveResult::Unsat);
    }

    #[test]
    fn two_guards_select_between_cards() {
        let mut s = Solver::new();
        let g1 = s.new_var();
        let g2 = s.new_var();
        let v = lits(&mut s, 4);
        let pos: Vec<Lit> = v.iter().map(|x| x.pos()).collect();
        let neg: Vec<Lit> = v.iter().map(|x| x.neg()).collect();
        s.add_card_ge(&[g1.pos()], &pos, 3); // g1 ⇒ ≥3 true
        s.add_card_ge(&[g2.pos()], &neg, 3); // g2 ⇒ ≥3 false
        s.add_clause(&[g1.pos(), g2.pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let trues = v.iter().filter(|&&x| s.value(x) == Some(true)).count();
        let g1v = s.value(g1) == Some(true);
        let g2v = s.value(g2) == Some(true);
        assert!(g1v || g2v);
        if g1v {
            assert!(trues >= 3);
        }
        if g2v {
            assert!(trues <= 1);
        }
    }

    #[test]
    fn random_3sat_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..60 {
            let n = rng.gen_range(3..9usize);
            let m = rng.gen_range(3..24usize);
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..m {
                let w = rng.gen_range(1..4usize);
                let mut cl = Vec::new();
                for _ in 0..w {
                    cl.push((rng.gen_range(0..n), rng.gen_bool(0.5)));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for mask in 0u32..(1 << n) {
                for cl in &clauses {
                    if !cl.iter().any(|&(v, pos)| ((mask >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // Solver.
            let mut s = Solver::new();
            let vars = s.new_vars(n);
            for cl in &clauses {
                let lits: Vec<Lit> = cl.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
                s.add_clause(&lits);
            }
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, brute_sat, "mismatch on round {round}: {clauses:?}");
            if got {
                for cl in &clauses {
                    assert!(
                        cl.iter().any(|&(v, pos)| s.value(vars[v]) == Some(pos)),
                        "model does not satisfy {cl:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_cardinality_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(123);
        for round in 0..40 {
            let n = rng.gen_range(3..8usize);
            let ncards = rng.gen_range(1..4usize);
            let nclauses = rng.gen_range(0..6usize);
            let mut cards: Vec<(Vec<(usize, bool)>, u32)> = Vec::new();
            for _ in 0..ncards {
                let w = rng.gen_range(2..=n);
                let mut vs: Vec<usize> = (0..n).collect();
                for i in (1..vs.len()).rev() {
                    vs.swap(i, rng.gen_range(0..=i));
                }
                let chosen: Vec<(usize, bool)> =
                    vs[..w].iter().map(|&v| (v, rng.gen_bool(0.5))).collect();
                let bound = rng.gen_range(1..=w as u32);
                cards.push((chosen, bound));
            }
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..nclauses {
                let w = rng.gen_range(1..3usize);
                clauses.push((0..w).map(|_| (rng.gen_range(0..n), rng.gen_bool(0.5))).collect());
            }
            let eval = |mask: u32| -> bool {
                cards.iter().all(|(lits, bound)| {
                    let t = lits.iter().filter(|&&(v, pos)| ((mask >> v) & 1 == 1) == pos).count()
                        as u32;
                    t >= *bound
                }) && clauses
                    .iter()
                    .all(|cl| cl.iter().any(|&(v, pos)| ((mask >> v) & 1 == 1) == pos))
            };
            let brute_sat = (0u32..(1 << n)).any(eval);
            let mut s = Solver::new();
            let vars = s.new_vars(n);
            for (lits, bound) in &cards {
                let ls: Vec<Lit> = lits.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
                s.add_card_ge(&[], &ls, *bound);
            }
            for cl in &clauses {
                let ls: Vec<Lit> = cl.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
                s.add_clause(&ls);
            }
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, brute_sat, "mismatch on round {round}");
            if got {
                let mut mask = 0u32;
                for (i, v) in vars.iter().enumerate() {
                    if s.value(*v) == Some(true) {
                        mask |= 1 << i;
                    }
                }
                assert!(eval(mask), "solver model violates constraints");
            }
        }
    }

    #[test]
    fn luby_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u32), e, "luby({i})");
        }
    }
}
