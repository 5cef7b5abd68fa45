//! The Prob-BTB, SwapTable and Prob-in-Flight structures
//! (paper Figure 4).
//!
//! In real hardware the Prob-BTB's `Pr_Phy` field and the SwapTable hold
//! *physical register pointers*; the value swap is performed through
//! register renaming. This functional model stores the probabilistic
//! values themselves — architecturally equivalent (dependent instructions
//! read exactly the same values), with the renaming cost accounted for in
//! the timing model's dependency edges.

use std::collections::VecDeque;

use crate::ContextKey;

/// The per-branch Prob-in-Flight FIFO.
///
/// Execution pushes a record — the probabilistic values an executed
/// instance generated, in instruction order (`PROB_CMP` register first,
/// then any intermediate `PROB_JMP` registers, then the final
/// `PROB_JMP` register), with the outcome the branch condition produced
/// on them; fetch pops the oldest to direct the next instance. The
/// depth bound is the number of simultaneously outstanding instances
/// the hardware supports, which is also the bootstrap length.
///
/// Every record's values share one flat buffer, beside a value count
/// and an outcome per record, so a record holds no allocation of its
/// own — the FIFO of an unbounded window (every instance bootstraps)
/// grows by 8 bytes per value and 8 per record.
#[derive(Debug, Clone, Default)]
pub struct ProbInFlight {
    /// The values of every outstanding record, oldest first.
    values: VecDeque<u64>,
    /// Per outstanding record, oldest first: its value count and
    /// outcome.
    records: VecDeque<(u32, bool)>,
}

impl ProbInFlight {
    /// Creates an empty FIFO.
    pub fn new() -> ProbInFlight {
        ProbInFlight::default()
    }

    /// Records an executed instance: its values and the outcome they
    /// produced.
    pub fn push(&mut self, values: &[u64], outcome: bool) {
        let n = u32::try_from(values.len()).expect("a branch carries few values");
        self.values.extend(values);
        self.records.push_back((n, outcome));
    }

    /// Pulls the oldest recorded instance, if any: appends its values to
    /// `values` and returns its outcome.
    pub fn pop_into(&mut self, values: &mut Vec<u64>) -> Option<bool> {
        let (n, outcome) = self.records.pop_front()?;
        values.extend(self.values.drain(..n as usize));
        Some(outcome)
    }

    /// Number of outstanding records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are outstanding.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drops all records.
    pub fn clear(&mut self) {
        self.values.clear();
        self.records.clear();
    }
}

/// One Prob-BTB entry (with its SwapTable slots folded into the values
/// its Prob-in-Flight records hold).
#[derive(Debug, Clone)]
pub struct ProbBtbEntry {
    /// PC of the probabilistic jump.
    pub pc: u32,
    /// Calling context (the paper's loop bit + `Function-PC`).
    pub context: ContextKey,
    /// The `Const-Val` safety snapshot: the comparison constant observed
    /// at first execution (paper Section V-C1).
    pub const_val: u64,
    /// Total executions recorded for this entry.
    pub executed: u64,
    /// Whether a `Const-Val` mismatch demoted this branch to regular
    /// treatment for the remainder of its context.
    pub risky: bool,
    /// The branch's share of the Prob-in-Flight table.
    pub in_flight: ProbInFlight,
}

/// The Prob-BTB: a small fully-associative table of probabilistic-branch
/// entries, indexed by `(pc, context)`.
#[derive(Debug, Clone)]
pub struct ProbBtb {
    entries: Vec<ProbBtbEntry>,
    capacity: usize,
    /// Index of the last entry [`find_mut`](Self::find_mut) returned —
    /// a lookup accelerator for the hot re-execution path (a loop's
    /// prob branch finds its own entry every iteration). `(pc,
    /// context)` pairs are unique in the table, so a cursor hit is
    /// always the same entry the scan would find; a stale cursor
    /// (after eviction/flush) either misses or lands on the queried
    /// pair itself, never on a wrong entry.
    cursor: usize,
}

impl ProbBtb {
    /// Creates an empty table supporting `capacity` simultaneous
    /// branches.
    pub fn new(capacity: usize) -> ProbBtb {
        ProbBtb {
            entries: Vec::with_capacity(capacity),
            capacity,
            cursor: 0,
        }
    }

    /// Finds the entry for `(pc, context)`.
    pub fn find_mut(&mut self, pc: u32, context: ContextKey) -> Option<&mut ProbBtbEntry> {
        if self
            .entries
            .get(self.cursor)
            .is_some_and(|e| e.pc == pc && e.context == context)
        {
            return Some(&mut self.entries[self.cursor]);
        }
        let pos = self
            .entries
            .iter()
            .position(|e| e.pc == pc && e.context == context)?;
        self.cursor = pos;
        Some(&mut self.entries[pos])
    }

    /// Allocates a fresh entry, or returns `None` when the table is full
    /// (the branch is then treated as regular — paper Section V-C2's
    /// capacity discussion).
    pub fn allocate(
        &mut self,
        pc: u32,
        context: ContextKey,
        const_val: u64,
    ) -> Option<&mut ProbBtbEntry> {
        if self.entries.len() >= self.capacity {
            return None;
        }
        self.entries.push(ProbBtbEntry {
            pc,
            context,
            const_val,
            executed: 0,
            risky: false,
            in_flight: ProbInFlight::new(),
        });
        self.entries.last_mut()
    }

    /// Evicts one entry that does not belong to the `keep` context,
    /// freeing a slot for a branch in the currently active context. This
    /// implements the paper's capacity heuristic ("it may clear branches
    /// from outer loop levels first", Section V-C2): entries from stale
    /// or outer contexts are sacrificed for the innermost loop's
    /// branches. Returns `true` if a slot was freed.
    pub fn evict_victim(&mut self, keep: ContextKey) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.context != keep) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Flushes every entry belonging to the loop context `gen`
    /// ("Whenever a loop terminates ... all the branches associated with
    /// it are cleared from the probabilistic tables").
    ///
    /// Returns the number of entries flushed.
    pub fn flush_context(&mut self, gen: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.context.loop_gen != gen);
        before - self.entries.len()
    }

    /// Flushes everything (context-switch model without state save).
    pub fn flush_all(&mut self) {
        self.entries.clear();
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over live entries.
    pub fn iter(&self) -> impl Iterator<Item = &ProbBtbEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(gen: u64) -> ContextKey {
        ContextKey {
            loop_gen: gen,
            function_pc: 0,
        }
    }

    #[test]
    fn fifo_is_first_in_first_out() {
        let mut f = ProbInFlight::new();
        assert!(f.is_empty());
        f.push(&[1], true);
        f.push(&[2, 3], false);
        f.push(&[], true);
        assert_eq!(f.len(), 3);
        let mut values = vec![9];
        assert_eq!(f.pop_into(&mut values), Some(true));
        assert_eq!(values, [9, 1], "values append to the buffer");
        values.clear();
        assert_eq!(f.pop_into(&mut values), Some(false));
        assert_eq!(values, [2, 3], "a record's values travel as a group");
        values.clear();
        assert_eq!(f.pop_into(&mut values), Some(true));
        assert!(values.is_empty());
        assert_eq!(f.pop_into(&mut values), None);
        assert!(f.is_empty());
    }

    #[test]
    fn fifo_clear() {
        let mut f = ProbInFlight::new();
        f.push(&[1], true);
        f.clear();
        assert!(f.is_empty());
        f.push(&[4], false);
        let mut values = Vec::new();
        assert_eq!(f.pop_into(&mut values), Some(false));
        assert_eq!(values, [4], "a cleared FIFO keeps no stale values");
    }

    #[test]
    fn btb_allocate_and_find() {
        let mut b = ProbBtb::new(2);
        assert!(b.is_empty());
        b.allocate(10, ctx(1), 99).unwrap();
        b.allocate(20, ctx(1), 99).unwrap();
        assert!(b.find_mut(10, ctx(1)).is_some());
        assert!(
            b.find_mut(10, ctx(2)).is_none(),
            "context is part of the key"
        );
        assert!(b.find_mut(30, ctx(1)).is_none());
    }

    #[test]
    fn btb_capacity_limit() {
        let mut b = ProbBtb::new(1);
        assert!(b.allocate(10, ctx(1), 0).is_some());
        assert!(
            b.allocate(20, ctx(1), 0).is_none(),
            "full table rejects allocation"
        );
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn same_pc_different_contexts_coexist() {
        // Paper: "different paths leading to the same branch have
        // separate entries in the probabilistic tables and do not
        // conflict with each other."
        let mut b = ProbBtb::new(4);
        b.allocate(10, ctx(1), 0).unwrap();
        b.allocate(10, ctx(2), 0).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn flush_context_removes_only_matching_generation() {
        let mut b = ProbBtb::new(4);
        b.allocate(10, ctx(1), 0).unwrap();
        b.allocate(20, ctx(1), 0).unwrap();
        b.allocate(30, ctx(2), 0).unwrap();
        assert_eq!(b.flush_context(1), 2);
        assert_eq!(b.len(), 1);
        assert!(b.find_mut(30, ctx(2)).is_some());
        assert_eq!(b.flush_context(7), 0);
    }

    #[test]
    fn flush_all_empties_and_frees_capacity() {
        let mut b = ProbBtb::new(1);
        b.allocate(10, ctx(1), 0).unwrap();
        b.flush_all();
        assert!(b.allocate(20, ctx(1), 0).is_some());
    }
}
