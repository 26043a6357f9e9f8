//! Thread-local tally of the lazy region walk, for resource accounting.
//!
//! [`crate::regions::RegionStream`] records each region event — a yielded
//! polyhedron (memoized re-yields included), a region pruned as empty or
//! as dominated, a memoized prune verdict — with one bump of a plain
//! thread-local [`RegionTally`]. Serving layers read [`regions`] before and
//! after a query's compute phase and attribute the difference to the query
//! and its route: exact, because a single query executes entirely on one
//! worker thread, and work done outside such a phase (an audit
//! re-execution, say) is never attributed. The tally is a non-atomic
//! `Cell`: a bump costs ~1 ns, touches no shared state, and cannot perturb
//! the byte-determinism contract.

use std::cell::Cell;

/// Counts of region events: one thread's running total, or the
/// difference of two readings of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionTally {
    /// Polyhedra yielded to callers (memoized re-yields included).
    pub yields: u64,
    /// Regions skipped as provably empty
    /// ([`crate::regions::PruneReason::Empty`]).
    pub pruned_empty: u64,
    /// Regions skipped as dominated
    /// ([`crate::regions::PruneReason::Dominated`]).
    pub pruned_dominated: u64,
    /// Regions skipped via a memoized prune verdict (rule unknown — the
    /// memo stores the verdict, not the reason).
    pub memo_pruned: u64,
}

impl RegionTally {
    /// The events recorded after `earlier` was read, wrapping so the
    /// difference stays exact across counter overflow.
    pub fn since(&self, earlier: &RegionTally) -> RegionTally {
        RegionTally {
            yields: self.yields.wrapping_sub(earlier.yields),
            pruned_empty: self.pruned_empty.wrapping_sub(earlier.pruned_empty),
            pruned_dominated: self.pruned_dominated.wrapping_sub(earlier.pruned_dominated),
            memo_pruned: self.memo_pruned.wrapping_sub(earlier.memo_pruned),
        }
    }

    /// Regions skipped, by any rule.
    pub fn pruned(&self) -> u64 {
        self.pruned_empty + self.pruned_dominated + self.memo_pruned
    }
}

impl std::ops::AddAssign for RegionTally {
    fn add_assign(&mut self, other: RegionTally) {
        self.yields += other.yields;
        self.pruned_empty += other.pruned_empty;
        self.pruned_dominated += other.pruned_dominated;
        self.memo_pruned += other.memo_pruned;
    }
}

thread_local! {
    static REGIONS: Cell<RegionTally> = const {
        Cell::new(RegionTally { yields: 0, pruned_empty: 0, pruned_dominated: 0, memo_pruned: 0 })
    };
}

/// Monotonic counts of the region events on this thread.
pub fn regions() -> RegionTally {
    REGIONS.with(|c| c.get())
}

/// Records one event: `event` picks the count it adds to.
pub(crate) fn bump(event: fn(&mut RegionTally) -> &mut u64) {
    REGIONS.with(|c| {
        let mut t = c.get();
        let n = event(&mut t);
        *n = n.wrapping_add(1);
        c.set(t);
    });
}
