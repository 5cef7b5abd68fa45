//! # probranch-faults
//!
//! Deterministic, seeded **failpoints** for torture-testing the
//! execution and storage layers: persisted-trace writes (create/write,
//! short write, fsync, rename, ENOSPC), persisted-trace reads, trace
//! capture, experiment-cell bodies (injected panics and delays), the
//! sweep service's request path (dropped accepts, failed frame
//! reads/writes, post-sweep connection drops) and spurious
//! cancellations of the current cancel scope.
//!
//! A [`FaultPlan`] is a set of `(site, probability, optional budget)`
//! clauses plus a plan seed. Whether a particular failpoint fires is a
//! **pure function** of the plan seed, the site and a caller-supplied
//! salt (typically a content hash or cell identity plus the attempt
//! number): `SplitMix64::mix_fold([seed, site, salt...])` compared
//! against the clause probability. Fault schedules are therefore
//! reproducible across runs, thread counts and schedulers — the same
//! plan trips the same sites for the same cells every time, which is
//! what lets CI diff a fault-injected `figures` run byte-for-byte
//! against a clean one.
//!
//! Plans parse from a compact spec (`figures --fault-plan`):
//!
//! ```text
//! seed=7,cell.panic=0.3,persist.write=0.5x2,trace.load=1.0
//! ```
//!
//! `seed=N` seeds the schedule (default 0); every other clause is
//! `<site>=<probability>` with an optional `xCOUNT` budget capping how
//! many times the site may fire in total.
//!
//! A plan is armed per thread, like the pipeline's cancel scope:
//! [`PlanScope::enter`] arms one on the current thread until the guard
//! drops, and code that hands work to other threads passes [`current`]
//! on to [`PlanScope::join`], as the experiment engine and the sweep
//! service do. Threads that join a plan share its hit counters and
//! budgets, so [`hits`] on the arming thread totals the run. With no
//! plan armed every check is one thread-local read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use probranch_rng::SplitMix64;

/// Every failpoint site wired into the stack, one stable name each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// Persisted-trace write path: creating or writing the temp file
    /// fails with a generic (transient-looking) I/O error.
    PersistWrite,
    /// Persisted-trace write path: the write fails with `ENOSPC`
    /// (disk full) — the store must disable persistence for the run.
    PersistEnospc,
    /// Persisted-trace write path: only a prefix of the encoding
    /// reaches the temp file before the writer dies (a torn temp).
    PersistShort,
    /// Persisted-trace write path: the data fsync fails.
    PersistFsync,
    /// Persisted-trace write path: the publishing rename fails.
    PersistRename,
    /// Reading a persisted trace file fails with an I/O error.
    TraceLoad,
    /// Trace capture (functional emulation) fails.
    Capture,
    /// An experiment cell body panics.
    CellPanic,
    /// An experiment cell body stalls briefly (a slow attempt must
    /// still merge in cell-index order).
    CellDelay,
    /// Sweep service: an accepted connection is dropped before its
    /// request is read.
    ServeAccept,
    /// Sweep service: reading a request frame fails.
    ServeRead,
    /// Sweep service: writing a response frame fails (the connection
    /// is closed with the response unsent).
    ServeWrite,
    /// Sweep service: the connection is dropped after the sweep ran
    /// but before the response is written.
    ServeDrop,
    /// A spurious cancellation of the current cancel scope's token
    /// (exercises the cooperative-cancellation path end to end).
    CancelSpurious,
    /// A trace capture or a functional run compiles no blocks, so
    /// every pc single-steps through the decoded interpreter (how the
    /// interpreter tier is forced from outside the process; rolled
    /// once per capture and once per functional run; must be
    /// byte-invisible in every report).
    CaptureBlock,
}

/// All sites, for iteration and parsing.
pub const ALL_SITES: [Site; 15] = [
    Site::PersistWrite,
    Site::PersistEnospc,
    Site::PersistShort,
    Site::PersistFsync,
    Site::PersistRename,
    Site::TraceLoad,
    Site::Capture,
    Site::CellPanic,
    Site::CellDelay,
    Site::ServeAccept,
    Site::ServeRead,
    Site::ServeWrite,
    Site::ServeDrop,
    Site::CancelSpurious,
    Site::CaptureBlock,
];

impl Site {
    /// The site's stable spec/reporting name.
    pub fn name(self) -> &'static str {
        match self {
            Site::PersistWrite => "persist.write",
            Site::PersistEnospc => "persist.enospc",
            Site::PersistShort => "persist.short",
            Site::PersistFsync => "persist.fsync",
            Site::PersistRename => "persist.rename",
            Site::TraceLoad => "trace.load",
            Site::Capture => "capture",
            Site::CellPanic => "cell.panic",
            Site::CellDelay => "cell.delay",
            Site::ServeAccept => "serve.accept",
            Site::ServeRead => "serve.read",
            Site::ServeWrite => "serve.write",
            Site::ServeDrop => "serve.drop",
            Site::CancelSpurious => "cancel.spurious",
            Site::CaptureBlock => "capture.block",
        }
    }

    /// Parses a spec name back to the site.
    pub fn parse(name: &str) -> Option<Site> {
        ALL_SITES.into_iter().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One failpoint clause: fire `site` with `probability`, at most
/// `budget` times (`None` = unlimited).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clause {
    /// The instrumented site this clause arms.
    pub site: Site,
    /// Firing probability in `[0, 1]`, evaluated per deterministic roll.
    pub probability: f64,
    /// Cap on total fires across the whole run, `None` for unlimited.
    pub budget: Option<u64>,
}

/// A parsed fault plan: the schedule seed plus the armed clauses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed folded into every roll — two plans with different seeds
    /// trip different (but each internally reproducible) schedules.
    pub seed: u64,
    /// The armed failpoint clauses (at most one per site; later
    /// clauses for the same site override earlier ones).
    pub clauses: Vec<Clause>,
}

impl FaultPlan {
    /// An empty plan (no sites armed) under `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            clauses: Vec::new(),
        }
    }

    /// Arms `site` at `probability`, replacing any previous clause for
    /// the same site.
    pub fn arm(mut self, site: Site, probability: f64) -> FaultPlan {
        self.arm_mut(site, probability, None);
        self
    }

    /// [`arm`](FaultPlan::arm) with a total-fire budget.
    pub fn arm_capped(mut self, site: Site, probability: f64, budget: u64) -> FaultPlan {
        self.arm_mut(site, probability, Some(budget));
        self
    }

    fn arm_mut(&mut self, site: Site, probability: f64, budget: Option<u64>) {
        self.clauses.retain(|c| c.site != site);
        self.clauses.push(Clause {
            site,
            probability: probability.clamp(0.0, 1.0),
            budget,
        });
    }

    /// Parses the `--fault-plan` spec syntax:
    /// comma-separated clauses, each `seed=N` or
    /// `<site>=<probability>[xCOUNT]`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not `name=value`"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("fault seed `{value}` is not a u64"))?;
                continue;
            }
            let site = Site::parse(key).ok_or_else(|| {
                format!(
                    "unknown fault site `{key}` (expected one of: {})",
                    ALL_SITES.map(Site::name).join(", ")
                )
            })?;
            let (prob, budget) =
                match value.split_once(['x', 'X']) {
                    Some((p, n)) => (
                        p,
                        Some(n.parse::<u64>().map_err(|_| {
                            format!("fault budget `{n}` in `{clause}` is not a u64")
                        })?),
                    ),
                    None => (value, None),
                };
            let probability = prob
                .parse::<f64>()
                .ok()
                .filter(|p| (0.0..=1.0).contains(p))
                .ok_or_else(|| {
                    format!("fault probability `{prob}` in `{clause}` is not in [0, 1]")
                })?;
            plan.arm_mut(site, probability, budget);
        }
        Ok(plan)
    }

    /// Renders the plan back to its spec syntax (parse/render round-trips).
    pub fn spec(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for c in &self.clauses {
            out.push_str(&format!(",{}={}", c.site.name(), c.probability));
            if let Some(b) = c.budget {
                out.push_str(&format!("x{b}"));
            }
        }
        out
    }
}

/// A plan armed for a run: the plan plus its per-site accounting, shared
/// by every thread that joins it (see [`PlanScope`]).
#[derive(Debug)]
pub struct ArmedPlan {
    plan: FaultPlan,
    /// Times each site fired (indexed by `Site as usize`).
    hits: [AtomicU64; ALL_SITES.len()],
    /// Remaining fire budget per site (`u64::MAX` = unlimited).
    budget: [AtomicU64; ALL_SITES.len()],
}

impl ArmedPlan {
    fn new(plan: FaultPlan) -> ArmedPlan {
        let budget = std::array::from_fn(|i| {
            let site = ALL_SITES[i];
            let left = plan
                .clauses
                .iter()
                .find(|c| c.site == site)
                .and_then(|c| c.budget)
                .unwrap_or(u64::MAX);
            AtomicU64::new(left)
        });
        ArmedPlan {
            plan,
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
            budget,
        }
    }

    /// The roll behind [`injected`].
    #[cold]
    fn fires(&self, site: Site, salt: &[u64]) -> bool {
        let Some(clause) = self.plan.clauses.iter().find(|c| c.site == site) else {
            return false;
        };
        let mut parts = Vec::with_capacity(salt.len() + 2);
        parts.push(self.plan.seed);
        parts.push(site as u64 ^ 0xFA17_FA17_FA17_FA17);
        parts.extend_from_slice(salt);
        let roll = SplitMix64::mix_fold(&parts);
        // 53 uniform mantissa bits → [0, 1); p = 1.0 always fires.
        let u = (roll >> 11) as f64 / (1u64 << 53) as f64;
        if u >= clause.probability {
            return false;
        }
        // Budget: fire only while the cap has room. The decrement order is
        // scheduling-dependent under threads, but a budget only *caps* the
        // schedule — the byte-identity invariant never depends on it.
        let i = site as usize;
        if self.budget[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(1)
            })
            .is_err()
        {
            return false;
        }
        self.hits[i].fetch_add(1, Ordering::Relaxed);
        true
    }
}

thread_local! {
    /// The plan the failpoints on this thread roll against, if any.
    static CURRENT: RefCell<Option<Arc<ArmedPlan>>> = const { RefCell::new(None) };
}

/// RAII guard arming a plan on the current thread; the previous plan
/// (if any) is restored on drop, so scopes nest.
#[derive(Debug)]
pub struct PlanScope {
    prev: Option<Arc<ArmedPlan>>,
}

impl PlanScope {
    /// Arms `plan` on the current thread, with fresh hit counters and
    /// budgets, until the guard drops.
    pub fn enter(plan: FaultPlan) -> PlanScope {
        PlanScope::join(Arc::new(ArmedPlan::new(plan)))
    }

    /// Arms a plan another thread armed (its [`current`]) on this
    /// thread until the guard drops: fires here count against the same
    /// hit counters and budgets.
    pub fn join(plan: Arc<ArmedPlan>) -> PlanScope {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(plan));
        PlanScope { prev }
    }
}

impl Drop for PlanScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// The current thread's plan, if a [`PlanScope`] is active — what a
/// thread hands the threads it spawns.
pub fn current() -> Option<Arc<ArmedPlan>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The deterministic failpoint decision: does `site` fire for `salt`
/// under the current thread's plan?
///
/// The roll is `SplitMix64::mix_fold([plan seed, site, salt...])`
/// mapped to `[0, 1)` and compared against the clause probability —
/// reproducible for the same `(plan, site, salt)` triple regardless of
/// threads or call order. Callers put everything that identifies *this
/// particular potential failure* into the salt (content hash, cell
/// hash, attempt number), so retries re-roll and byte-diffable
/// schedules follow from byte-diffable salts. A fire decrements the
/// site's budget and bumps its hit counter.
#[inline]
pub fn injected(site: Site, salt: &[u64]) -> bool {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|plan| plan.fires(site, salt))
    })
}

/// The structured I/O error an injected persistence/load fault carries:
/// the message names the site so failures stay attributable end to end.
pub fn io_error(site: Site) -> std::io::Error {
    let kind = match site {
        Site::PersistEnospc => std::io::ErrorKind::StorageFull,
        _ => std::io::ErrorKind::Other,
    };
    std::io::Error::new(kind, format!("injected fault: {}", site.name()))
}

/// Cell-body failpoints: [`Site::CellDelay`] stalls ~2 ms (long enough
/// to reorder a parallel grid's finishes, short enough for torture
/// suites), then [`Site::CellPanic`] panics with a message naming the
/// site and salt. Call at the top of a supervised cell body with a salt
/// of (cell identity, attempt number).
pub fn cell_faults(salt: &[u64]) {
    if injected(Site::CellDelay, salt) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    if injected(Site::CellPanic, salt) {
        panic!("injected fault: {} (salt {salt:x?})", Site::CellPanic);
    }
}

/// Per-site fire counts of the current thread's plan, non-zero entries
/// only — the "fault sites hit" section of structured reports. Counts
/// fires on every thread that joined the plan; empty when no plan is
/// armed.
pub fn hits() -> Vec<(Site, u64)> {
    let Some(plan) = current() else {
        return Vec::new();
    };
    ALL_SITES
        .into_iter()
        .filter_map(|s| {
            let n = plan.hits[s as usize].load(Ordering::Relaxed);
            (n > 0).then_some((s, n))
        })
        .collect()
}

/// Renders [`hits`] as `site×count` joined with `, ` — `"none"` when no
/// site fired.
pub fn hits_summary() -> String {
    let hits = hits();
    if hits.is_empty() {
        return "none".to_string();
    }
    hits.iter()
        .map(|(s, n)| format!("{}\u{d7}{n}", s.name()))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_is_a_no_op() {
        assert!(current().is_none());
        assert!(!injected(Site::Capture, &[1, 2, 3]));
        assert!(hits().is_empty());
        assert_eq!(hits_summary(), "none");
    }

    #[test]
    fn spec_parses_and_round_trips() {
        let plan = FaultPlan::parse("seed=7, cell.panic=0.25, persist.write=1.0x3").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.clauses.len(), 2);
        assert_eq!(plan.clauses[0].site, Site::CellPanic);
        assert_eq!(plan.clauses[1].budget, Some(3));
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        // Later clauses override earlier ones for the same site.
        let over = FaultPlan::parse("capture=0.1,capture=0.9").unwrap();
        assert_eq!(over.clauses.len(), 1);
        assert!((over.clauses[0].probability - 0.9).abs() < 1e-12);
        // Errors name the offending clause.
        assert!(FaultPlan::parse("bogus.site=0.5").is_err());
        assert!(FaultPlan::parse("capture=1.5").is_err());
        assert!(FaultPlan::parse("capture").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("capture=0.5xq").is_err());
        // The empty spec is the empty plan.
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn rolls_are_deterministic_and_seed_sensitive() {
        let schedule = |seed: u64| {
            let _plan = PlanScope::enter(FaultPlan::seeded(seed).arm(Site::Capture, 0.5));
            (0..64)
                .map(|i| injected(Site::Capture, &[i]))
                .collect::<Vec<bool>>()
        };
        let pattern = schedule(1);
        // Same plan, same salts → same schedule.
        assert_eq!(pattern, schedule(1));
        assert!(pattern.iter().any(|&b| b) && !pattern.iter().all(|&b| b));
        // A different seed re-rolls the schedule.
        assert_ne!(pattern, schedule(2));
        // Unarmed sites never fire even while a plan is armed.
        let _plan = PlanScope::enter(FaultPlan::seeded(1).arm(Site::Capture, 1.0));
        assert!(!injected(Site::TraceLoad, &[0]));
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _outer = PlanScope::enter(FaultPlan::seeded(1).arm(Site::Capture, 1.0));
        {
            let _inner = PlanScope::enter(FaultPlan::seeded(1).arm(Site::TraceLoad, 1.0));
            assert!(!injected(Site::Capture, &[0]), "entering replaces the plan");
            assert!(injected(Site::TraceLoad, &[0]));
        }
        assert!(
            injected(Site::Capture, &[0]),
            "dropping restores the outer plan"
        );
        assert!(!injected(Site::TraceLoad, &[0]));
        assert_eq!(hits(), vec![(Site::Capture, 1)]);
    }

    #[test]
    fn concurrent_plans_count_only_their_own_threads_hits() {
        // Two threads arm different plans and a third arms none; the
        // barrier keeps both plans armed while all three roll every site.
        let barrier = std::sync::Barrier::new(3);
        let roll = |plan: Option<FaultPlan>| {
            let _plan = plan.map(PlanScope::enter);
            barrier.wait();
            let fired: Vec<Site> = ALL_SITES
                .into_iter()
                .filter(|&site| injected(site, &[0]))
                .collect();
            barrier.wait();
            (fired, hits())
        };
        let (a, b, quiet) = std::thread::scope(|s| {
            let a = s.spawn(|| roll(Some(FaultPlan::seeded(5).arm(Site::PersistWrite, 1.0))));
            let b = s.spawn(|| roll(Some(FaultPlan::seeded(5).arm(Site::CellPanic, 1.0))));
            let quiet = s.spawn(|| roll(None));
            (a.join(), b.join(), quiet.join())
        });
        for (rolled, site) in [(a, Site::PersistWrite), (b, Site::CellPanic)] {
            assert_eq!(rolled.unwrap(), (vec![site], vec![(site, 1)]));
        }
        assert_eq!(quiet.unwrap(), (Vec::new(), Vec::new()));
    }

    #[test]
    fn probability_extremes_behave() {
        let _plan = PlanScope::enter(
            FaultPlan::seeded(3)
                .arm(Site::TraceLoad, 1.0)
                .arm(Site::Capture, 0.0),
        );
        assert!((0..32).all(|i| injected(Site::TraceLoad, &[i])));
        assert!((0..32).all(|i| !injected(Site::Capture, &[i])));
    }

    #[test]
    fn budget_caps_total_fires_and_hits_count() {
        let _plan = PlanScope::enter(FaultPlan::seeded(9).arm_capped(Site::PersistWrite, 1.0, 2));
        let fired = (0..10)
            .filter(|&i| injected(Site::PersistWrite, &[i]))
            .count();
        assert_eq!(fired, 2, "budget must cap fires");
        assert_eq!(hits(), vec![(Site::PersistWrite, 2)]);
        assert_eq!(hits_summary(), "persist.write\u{d7}2");
    }

    #[test]
    fn injected_io_errors_are_attributable() {
        let e = io_error(Site::PersistEnospc);
        assert_eq!(e.kind(), std::io::ErrorKind::StorageFull);
        assert!(e.to_string().contains("persist.enospc"));
        assert!(io_error(Site::TraceLoad).to_string().contains("trace.load"));
    }

    #[test]
    fn cell_faults_panic_names_the_site() {
        let _plan = PlanScope::enter(FaultPlan::seeded(4).arm(Site::CellPanic, 1.0));
        let err = std::panic::catch_unwind(|| cell_faults(&[0xBEEF, 0])).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault: cell.panic"), "{msg}");
    }

    #[test]
    fn site_names_parse_back() {
        for site in ALL_SITES {
            assert_eq!(Site::parse(site.name()), Some(site));
        }
        assert_eq!(Site::parse("nope"), None);
    }
}
