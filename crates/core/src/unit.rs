//! The PBS unit: the functional engine gluing the Prob-BTB, SwapTable,
//! Prob-in-Flight and Context-Table together (paper Sections III and V).

use crate::{ContextTable, PbsConfig, ProbBtb};

/// Why a probabilistic branch was *not* handled by PBS and executed as a
/// regular branch instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BypassReason {
    /// The Prob-BTB is full (more distinct probabilistic branches than
    /// provisioned entries).
    BtbCapacity,
    /// The branch carries more probabilistic values than the SwapTable
    /// supports.
    TooManyValues,
    /// The branch executes deeper than one function call inside the
    /// active loop (paper: counter > 1 ⇒ treat all branches as regular).
    DeepCall,
    /// The `Const-Val` safety check failed: the comparison constant
    /// changed within the context, so PBS "may be risky to use" and the
    /// branch is demoted for the rest of its context.
    ConstValChanged,
}

/// The resolution of one dynamic probabilistic-branch execution.
#[derive(Debug, Clone, PartialEq)]
pub enum BranchResolution {
    /// Initialization phase: the instance executes as a regular branch
    /// (its own freshly generated outcome, predicted by the baseline
    /// predictor in the timing model) while its record fills the
    /// Prob-in-Flight FIFO.
    Bootstrap {
        /// The actual outcome of the new probabilistic values.
        taken: bool,
    },
    /// Steady state: fetch followed the recorded outcome — no prediction,
    /// no misprediction. The architectural probabilistic registers must
    /// be overwritten with `swapped` (the recorded values matching the
    /// followed direction), in instruction order.
    Directed {
        /// The recorded direction that fetch followed.
        taken: bool,
        /// Recorded probabilistic values to swap into the registers.
        swapped: Vec<u64>,
    },
    /// PBS did not handle this instance; it executes as a regular branch.
    Bypassed {
        /// The actual outcome of the new probabilistic values.
        taken: bool,
        /// Why PBS stepped aside.
        reason: BypassReason,
    },
}

impl BranchResolution {
    /// The direction the branch actually follows.
    pub fn taken(&self) -> bool {
        match *self {
            BranchResolution::Bootstrap { taken }
            | BranchResolution::Directed { taken, .. }
            | BranchResolution::Bypassed { taken, .. } => taken,
        }
    }

    /// Whether this instance is PBS-directed (never mispredicts, does not
    /// touch the branch predictor).
    pub fn is_directed(&self) -> bool {
        matches!(self, BranchResolution::Directed { .. })
    }
}

/// Event counters exposed by the unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PbsStats {
    /// Dynamic instances steered by PBS (never mispredict).
    pub directed: u64,
    /// Dynamic instances executed as regular branches while the FIFO
    /// fills.
    pub bootstrap: u64,
    /// Dynamic instances bypassed (capacity / safety / deep calls).
    pub bypassed: u64,
    /// Prob-BTB allocations performed.
    pub allocations: u64,
    /// Entries demoted by the `Const-Val` safety check.
    pub const_val_demotions: u64,
    /// Stale-context entries evicted to make room (capacity heuristic).
    pub evictions: u64,
    /// Entries flushed because their loop context terminated.
    pub context_flushes: u64,
}

/// The PBS hardware unit (functional model).
///
/// Drive it from an emulator:
///
/// * [`execute_prob_branch`](PbsUnit::execute_prob_branch) for every
///   dynamic probabilistic branch (a `PROB_CMP` … `PROB_JMP` group);
/// * [`observe_branch`](PbsUnit::observe_branch),
///   [`observe_call`](PbsUnit::observe_call) and
///   [`observe_ret`](PbsUnit::observe_ret) for every control transfer,
///   powering dynamic loop detection and context tracking.
#[derive(Debug, Clone)]
pub struct PbsUnit {
    config: PbsConfig,
    btb: ProbBtb,
    context: ContextTable,
    stats: PbsStats,
    /// Recycled swap buffers: the emulator hands consumed ones back
    /// through [`PbsUnit::recycle`], making the steady-state directed
    /// path allocation-free.
    spare: Vec<Vec<u64>>,
}

impl PbsUnit {
    /// Creates a unit with the given hardware configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero-sized structures (see
    /// [`PbsConfig::validated`]).
    pub fn new(config: PbsConfig) -> PbsUnit {
        let config = config.validated();
        PbsUnit {
            btb: ProbBtb::new(config.num_branches),
            context: ContextTable::new(),
            stats: PbsStats::default(),
            spare: Vec::new(),
            config,
        }
    }

    /// Returns a spent swap buffer (from
    /// [`BranchResolution::Directed::swapped`]) to the recycle pool.
    /// Optional — purely an allocation optimization for hot drivers.
    pub fn recycle(&mut self, buffer: Vec<u64>) {
        if self.spare.len() < 8 {
            self.spare.push(buffer);
        }
    }

    /// Resolves one dynamic execution of the probabilistic branch whose
    /// jump instruction is at `pc`.
    ///
    /// * `values` — the newly generated probabilistic values, in
    ///   instruction order (`PROB_CMP` register first);
    /// * `const_val` — the value of the comparison operand (the paper's
    ///   `Const-Val` snapshot);
    /// * `taken_new` — the outcome the *new* values produce.
    pub fn execute_prob_branch(
        &mut self,
        pc: u32,
        values: &[u64],
        const_val: u64,
        taken_new: bool,
    ) -> BranchResolution {
        if values.len() > self.config.values_per_branch {
            self.stats.bypassed += 1;
            return BranchResolution::Bypassed {
                taken: taken_new,
                reason: BypassReason::TooManyValues,
            };
        }
        let context = match self.context.current() {
            Some(c) => c,
            None => {
                self.stats.bypassed += 1;
                return BranchResolution::Bypassed {
                    taken: taken_new,
                    reason: BypassReason::DeepCall,
                };
            }
        };

        let in_flight_limit = self.config.in_flight;
        if self.btb.find_mut(pc, context).is_none() {
            // First encounter in this context: allocate and bootstrap.
            // On a full table, evict an entry from a stale/outer context
            // first (the paper's capacity heuristic, Section V-C2).
            if self.btb.len() >= self.btb.capacity() && self.btb.evict_victim(context) {
                self.stats.evictions += 1;
            }
            match self.btb.allocate(pc, context, const_val) {
                Some(entry) => {
                    entry.executed = 1;
                    entry.in_flight.push(values, taken_new);
                    self.stats.allocations += 1;
                    self.stats.bootstrap += 1;
                    return BranchResolution::Bootstrap { taken: taken_new };
                }
                None => {
                    self.stats.bypassed += 1;
                    return BranchResolution::Bypassed {
                        taken: taken_new,
                        reason: BypassReason::BtbCapacity,
                    };
                }
            }
        }

        let entry = self.btb.find_mut(pc, context).expect("checked above");
        if entry.risky {
            self.stats.bypassed += 1;
            return BranchResolution::Bypassed {
                taken: taken_new,
                reason: BypassReason::ConstValChanged,
            };
        }
        if entry.const_val != const_val {
            // Safety rule (Section V-C1): a changing comparison condition
            // breaks the correctness argument — flush and demote.
            entry.risky = true;
            entry.in_flight.clear();
            self.stats.const_val_demotions += 1;
            self.stats.bypassed += 1;
            return BranchResolution::Bypassed {
                taken: taken_new,
                reason: BypassReason::ConstValChanged,
            };
        }

        entry.executed += 1;
        if entry.in_flight.len() < in_flight_limit {
            // Initialization: record while the pipeline window fills.
            entry.in_flight.push(values, taken_new);
            self.stats.bootstrap += 1;
            return BranchResolution::Bootstrap { taken: taken_new };
        }

        // Steady state: pull the oldest record into a recycled swap
        // buffer to direct this instance, and store the new values for a
        // future instance.
        let mut swapped = self.spare.pop().unwrap_or_default();
        swapped.clear();
        let taken = entry
            .in_flight
            .pop_into(&mut swapped)
            .expect("FIFO at in-flight limit");
        entry.in_flight.push(values, taken_new);
        self.stats.directed += 1;
        BranchResolution::Directed { taken, swapped }
    }

    /// Observes a direct branch (conditional or not) for loop detection.
    /// Must be called for every control transfer with a static target,
    /// *including* probabilistic jumps.
    #[inline]
    pub fn observe_branch(&mut self, pc: u32, target: u32, taken: bool) {
        if !self.config.context_tracking {
            return;
        }
        for gen in self.context.observe_branch(pc, target, taken) {
            let flushed = self.btb.flush_context(gen);
            self.stats.context_flushes += flushed as u64;
        }
    }

    /// Observes a call instruction at `pc`.
    #[inline]
    pub fn observe_call(&mut self, pc: u32) {
        if self.config.context_tracking {
            self.context.observe_call(pc);
        }
    }

    /// Observes a return instruction.
    #[inline]
    pub fn observe_ret(&mut self) {
        if self.config.context_tracking {
            self.context.observe_ret();
        }
    }

    /// Models a context switch without state save/restore: all PBS state
    /// is lost and every branch re-bootstraps (the paper instead
    /// recommends saving the 193 bytes; both behaviours are available).
    pub fn flush_all(&mut self) {
        self.btb.flush_all();
        self.context = ContextTable::new();
    }

    /// Event counters.
    pub fn stats(&self) -> PbsStats {
        self.stats
    }

    /// The hardware configuration.
    pub fn config(&self) -> &PbsConfig {
        &self.config
    }

    /// The context table (for inspection).
    pub fn context(&self) -> &ContextTable {
        &self.context
    }

    /// The Prob-BTB (for inspection).
    pub fn btb(&self) -> &ProbBtb {
        &self.btb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> PbsUnit {
        PbsUnit::new(PbsConfig::default())
    }

    /// Drives `n` executions of a single branch at `pc` with values
    /// 0,1,2,... and condition `value < 100` (always taken).
    fn drive(u: &mut PbsUnit, pc: u32, n: u64) -> Vec<BranchResolution> {
        (0..n)
            .map(|i| u.execute_prob_branch(pc, &[i], 100, i < 100))
            .collect()
    }

    #[test]
    fn bootstrap_then_directed() {
        let mut u = unit();
        let rs = drive(&mut u, 10, 10);
        for r in &rs[..4] {
            assert!(matches!(r, BranchResolution::Bootstrap { .. }), "{r:?}");
        }
        for r in &rs[4..] {
            assert!(r.is_directed(), "{r:?}");
        }
        assert_eq!(u.stats().bootstrap, 4);
        assert_eq!(u.stats().directed, 6);
    }

    #[test]
    fn directed_values_lag_by_in_flight_depth() {
        // The value consumed by instance i (i >= B) is the value
        // generated by instance i - B: the FIFO preserves generation
        // order with lag B.
        let mut u = unit();
        let rs = drive(&mut u, 10, 12);
        for (i, r) in rs.iter().enumerate().skip(4) {
            match r {
                BranchResolution::Directed { swapped, .. } => {
                    assert_eq!(swapped, &vec![(i - 4) as u64], "instance {i}");
                }
                other => panic!("instance {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn directed_outcome_matches_recorded_value() {
        // Values 96..104 against `< 100`: outcomes flip at value 100, and
        // each directed instance must follow the outcome its swapped
        // value produced.
        let mut u = unit();
        for i in 96..112u64 {
            let r = u.execute_prob_branch(10, &[i], 100, i < 100);
            if let BranchResolution::Directed { taken, swapped } = r {
                assert_eq!(taken, swapped[0] < 100, "semantic consistency");
            }
        }
    }

    #[test]
    fn category2_multiple_values_swap_together() {
        let mut u = unit();
        for i in 0..8u64 {
            let r = u.execute_prob_branch(10, &[i, i + 1000], 5, i < 5);
            if let BranchResolution::Directed { swapped, .. } = r {
                assert_eq!(swapped.len(), 2);
                assert_eq!(swapped[1], swapped[0] + 1000, "values travel as a group");
            }
        }
        assert!(u.stats().directed > 0);
    }

    #[test]
    fn too_many_values_bypasses() {
        let mut u = unit(); // values_per_branch = 2
        let r = u.execute_prob_branch(10, &[1, 2, 3], 5, true);
        assert_eq!(
            r,
            BranchResolution::Bypassed {
                taken: true,
                reason: BypassReason::TooManyValues
            }
        );
    }

    #[test]
    fn btb_capacity_bypasses_fifth_branch() {
        let mut u = unit(); // 4 entries
        for pc in [10, 20, 30, 40] {
            drive(&mut u, pc, 1);
        }
        let r = u.execute_prob_branch(50, &[0], 100, true);
        assert_eq!(
            r,
            BranchResolution::Bypassed {
                taken: true,
                reason: BypassReason::BtbCapacity
            }
        );
    }

    #[test]
    fn const_val_change_demotes_branch() {
        let mut u = unit();
        drive(&mut u, 10, 6);
        // The comparison constant changes: correctness rule violated.
        let r = u.execute_prob_branch(10, &[7], 200, true);
        assert_eq!(
            r,
            BranchResolution::Bypassed {
                taken: true,
                reason: BypassReason::ConstValChanged
            }
        );
        assert_eq!(u.stats().const_val_demotions, 1);
        // Still demoted on subsequent executions, even with the original
        // constant.
        let r = u.execute_prob_branch(10, &[8], 100, true);
        assert_eq!(
            r,
            BranchResolution::Bypassed {
                taken: true,
                reason: BypassReason::ConstValChanged
            }
        );
    }

    #[test]
    fn loop_end_flushes_and_rebootstraps() {
        let mut u = unit();
        // Enter a loop (backward taken branch), run the prob branch to
        // steady state.
        u.observe_branch(90, 5, true);
        drive(&mut u, 10, 8);
        assert!(u.stats().directed > 0);
        // Loop terminates.
        u.observe_branch(90, 5, false);
        assert_eq!(u.stats().context_flushes, 1);
        // Re-execution of the loop is a new context: bootstrap again.
        u.observe_branch(90, 5, true);
        let r = u.execute_prob_branch(10, &[0], 100, true);
        assert!(matches!(r, BranchResolution::Bootstrap { .. }));
    }

    #[test]
    fn deep_calls_bypass() {
        let mut u = unit();
        u.observe_branch(90, 5, true); // loop
        u.observe_call(7);
        drive(&mut u, 10, 1); // depth 1: fine
        assert_eq!(u.stats().bootstrap, 1);
        u.observe_call(8); // depth 2
        let r = u.execute_prob_branch(10, &[1], 100, true);
        assert_eq!(
            r,
            BranchResolution::Bypassed {
                taken: true,
                reason: BypassReason::DeepCall
            }
        );
        u.observe_ret();
        let r = u.execute_prob_branch(10, &[2], 100, true);
        assert!(!matches!(r, BranchResolution::Bypassed { .. }));
    }

    #[test]
    fn distinct_call_sites_are_distinct_branch_entries() {
        let mut u = unit();
        u.observe_branch(90, 5, true);
        u.observe_call(7);
        drive(&mut u, 10, 5);
        u.observe_ret();
        u.observe_call(8);
        // Same pc through a different call site: fresh bootstrap.
        let r = u.execute_prob_branch(10, &[0], 100, true);
        assert!(matches!(r, BranchResolution::Bootstrap { .. }));
        assert_eq!(u.btb().len(), 2);
    }

    #[test]
    fn flush_all_resets_everything() {
        let mut u = unit();
        drive(&mut u, 10, 6);
        u.flush_all();
        assert!(u.btb().is_empty());
        let r = u.execute_prob_branch(10, &[0], 100, true);
        assert!(matches!(r, BranchResolution::Bootstrap { .. }));
    }

    #[test]
    fn determinism_same_inputs_same_outputs() {
        let drive_all = || {
            let mut u = unit();
            let mut out = Vec::new();
            for i in 0..50u64 {
                u.observe_branch(90, 5, i % 10 != 9);
                out.push(u.execute_prob_branch(10, &[i * 7 % 13], 6, (i * 7 % 13) < 6));
            }
            out
        };
        assert_eq!(drive_all(), drive_all());
    }

    #[test]
    fn value_conservation_directed_stream_is_prefix_of_generated() {
        // Every value PBS hands out was generated earlier by the same
        // branch, in order (paper: "PBS replays the same stream").
        let mut u = unit();
        let generated: Vec<u64> = (0..40).collect();
        let mut consumed = Vec::new();
        for &v in &generated {
            match u.execute_prob_branch(10, &[v], 1000, true) {
                BranchResolution::Directed { swapped, .. } => consumed.push(swapped[0]),
                BranchResolution::Bootstrap { .. } => consumed.push(v),
                BranchResolution::Bypassed { .. } => unreachable!(),
            }
        }
        // Bootstrap consumes 0..4 (its own values); directed replays
        // 0,1,2,... lagged — so the consumed stream equals the first 4
        // values, then the generated stream from the start again.
        assert_eq!(&consumed[..4], &generated[..4]);
        assert_eq!(&consumed[4..], &generated[..36]);
    }

    #[test]
    fn context_disabled_unit_ignores_loops() {
        let mut u = PbsUnit::new(PbsConfig {
            context_tracking: false,
            ..PbsConfig::default()
        });
        u.observe_branch(90, 5, true);
        drive(&mut u, 10, 8);
        u.observe_branch(90, 5, false); // would flush with tracking on
        let r = u.execute_prob_branch(10, &[9], 100, true);
        assert!(
            r.is_directed(),
            "no context tracking: entry survives loop end"
        );
        assert_eq!(u.stats().context_flushes, 0);
    }
}
