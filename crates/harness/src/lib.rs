//! # probranch-harness
//!
//! The deterministic parallel experiment engine behind the `figures`
//! binary.
//!
//! The paper's seed-averaged sweeps (Figures 1/6/7/8/9, Tables I–III)
//! are grids of independent **cells** — one (workload, predictor,
//! PBS on/off, seed) point each. This crate runs those grids across
//! `std::thread` workers while keeping the results **bit-identical to a
//! serial run**:
//!
//! * every cell is self-contained: its RNG seed is derived with
//!   [`SplitMix64::mix`] from a stable hash of the cell's identity
//!   ([`Cell::workload_seed`]), so no RNG state is shared between cells
//!   and no cell's stream depends on how many cells ran before it;
//! * workers pull cell *indices* from an atomic counter — scheduling
//!   decides only *when* a cell runs, never *what* it computes;
//! * [`run_cells`] writes each result into the slot of its cell index
//!   and returns the slots in index order, so the merged output is
//!   independent of thread interleaving.
//!
//! Every grid runs through [`run_cells`]: [`run_cells_supervised`] runs
//! its per-cell attempt loop (panic isolation, four attempts) as the
//! body of a `run_cells` grid, and [`EngineContext`] is the one
//! trace pool the cells share.
//!
//! Consequently `run_cells(cells, Jobs::serial(), f)` and
//! `run_cells(cells, Jobs::new(8), f)` return equal vectors for any
//! deterministic `f`, which `tests/determinism.rs` locks in for the
//! fig6/table3 pipelines end to end.
//!
//! ```
//! use probranch_harness::{run_cells, Jobs};
//! let squares = run_cells(&[1u64, 2, 3, 4], Jobs::new(2), |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use probranch_faults as faults;
use probranch_pipeline::cancel::{self, CancelScope};
use probranch_pipeline::{
    sweep_old_quarantined, sweep_stale_temps, DynTrace, PredTape, PredictorChoice, SimConfig,
    TapeKey, TraceLoad,
};
use probranch_rng::SplitMix64;
use probranch_workloads::BenchmarkId;

mod supervise;

/// Locks a mutex, recovering from poisoning: every value guarded by
/// the harness's internal locks is written whole (a pool slot goes
/// from `None` to a complete entry, a result slot from `None` to a
/// finished result), so a panic that poisoned a lock can never have
/// left a half-updated value behind — and supervised retries must be
/// able to reuse the slot a failed attempt touched.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use supervise::{run_cells_supervised, Attempt, CellOutcome, SupervisedError, SupervisedRun};

/// Worker-count selection for [`run_cells`].
///
/// The value is always at least 1; [`Jobs::from_env`] (also
/// `Default::default()`) honours the `PROBRANCH_JOBS` environment
/// variable (`0` or unset: all available cores), which is how the CI
/// matrix forces a serial run next to the parallel one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(usize);

impl Jobs {
    /// Exactly `n` workers (clamped to at least 1).
    pub fn new(n: usize) -> Jobs {
        Jobs(n.max(1))
    }

    /// A single worker: the serial reference schedule.
    pub fn serial() -> Jobs {
        Jobs(1)
    }

    /// One worker per available core.
    pub fn available() -> Jobs {
        Jobs::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Reads `PROBRANCH_JOBS`; `0`, unset, or unparsable means
    /// [`Jobs::available`].
    pub fn from_env() -> Jobs {
        match std::env::var("PROBRANCH_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n > 0 => Jobs(n),
            _ => Jobs::available(),
        }
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for Jobs {
    fn default() -> Jobs {
        Jobs::from_env()
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One point of an experiment grid: a workload instance simulated under
/// one predictor/PBS configuration.
///
/// `seed` is a small per-cell *index* (0, 1, 2, … within a sweep), not
/// the RNG seed itself: the actual workload seed is derived by hashing,
/// see [`Cell::workload_seed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The benchmark this cell simulates.
    pub workload: BenchmarkId,
    /// The baseline branch predictor.
    pub predictor: PredictorChoice,
    /// Whether the PBS hardware is enabled.
    pub pbs: bool,
    /// Seed index within the sweep (a counter, not an RNG seed).
    pub seed: u64,
}

impl Cell {
    /// A cell for `workload` under `predictor`, PBS `pbs`, seed index
    /// `seed`.
    pub fn new(workload: BenchmarkId, predictor: PredictorChoice, pbs: bool, seed: u64) -> Cell {
        Cell {
            workload,
            predictor,
            pbs,
            seed,
        }
    }

    /// A stable 64-bit hash of the full cell identity (all four fields).
    ///
    /// Stable across runs and thread counts — it folds only the cell's
    /// declarative fields, never addresses or global counters.
    pub fn stable_hash(&self) -> u64 {
        SplitMix64::mix_fold(&[
            self.workload as u64,
            self.predictor as u64,
            self.pbs as u64,
            self.seed,
        ])
    }

    /// The derived RNG seed used to construct this cell's workload.
    ///
    /// Deliberately hashes only the *workload-identity* fields
    /// (benchmark, seed index): the predictor choice and the PBS switch
    /// must not change the dynamic instruction stream, otherwise a
    /// "PBS on vs. off" column pair would compare two different program
    /// runs instead of two machine configurations of the same run.
    pub fn workload_seed(&self) -> u64 {
        workload_seed(self.workload, self.seed)
    }
}

/// Fixed stream constant folded into every derived workload seed. It
/// plays the role of the harness's former `BASE_SEED`: one global pick
/// that versions the entire experiment stream (bump it to re-roll all
/// sweeps at once).
const SEED_STREAM: u64 = 1;

/// The derived RNG seed for `(workload, seed index)` — the free-function
/// form of [`Cell::workload_seed`], for sweeps (static analyses,
/// functional accuracy runs) whose cells have no predictor axis.
pub fn workload_seed(workload: BenchmarkId, seed: u64) -> u64 {
    SplitMix64::mix(SplitMix64::mix_fold(&[SEED_STREAM, workload as u64, seed]))
}

/// Runs one closure per cell across `jobs` workers and returns the
/// results **in cell-index order**.
///
/// Workers claim cell indices from a shared atomic counter and deposit
/// each result into its cell's dedicated slot, so the returned vector —
/// and therefore everything downstream of it — is byte-identical no
/// matter how many workers ran or how they interleaved. One worker
/// means no thread at all: the cells run in order on the caller's
/// thread. Every worker runs under the caller's [`cancel::current`]
/// scope and [`faults::current`] plan, so a request deadline and a
/// fault plan reach the cells on every worker. A panic inside `run`
/// propagates, with its own payload, after all workers have stopped.
///
/// The driver is generic over the item type: the paper sweeps pass
/// [`Cell`]s, but any `Sync` descriptor works.
pub fn run_cells<T, R, F>(cells: &[T], jobs: Jobs, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = cells.len();
    let workers = jobs.get().min(n);
    if workers <= 1 {
        return cells.iter().map(run).collect();
    }

    let token = cancel::current();
    let plan = faults::current();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _scope = token.clone().map(CancelScope::enter);
                    let _plan = plan.clone().map(faults::PlanScope::join);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = run(&cells[i]);
                        *lock_ignore_poison(&slots[i]) = Some(result);
                    }
                })
            })
            .collect();
        // Join explicitly: the scope's implicit join would replace a
        // worker's panic payload with a generic message.
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .unwrap_or_else(|| panic!("cell {i} produced no result"))
        })
        .collect()
}

/// One pooled trace plus its prediction tapes and budget-accounting
/// metadata.
#[derive(Debug)]
struct Entry {
    trace: Arc<DynTrace>,
    /// The prediction tapes recorded over `trace`, one per
    /// [`TapeKey`]: kept, counted and dropped with the trace.
    tapes: Vec<Arc<PredTape>>,
    /// `trace.bytes()` plus the tapes' bytes at the last insert or tape
    /// store — what this entry charges against the pool budget.
    bytes: usize,
    /// LRU clock value at last touch.
    stamp: u64,
    /// The content hash the trace's file is named and keyed by.
    content_hash: u64,
}

impl Entry {
    /// The heap bytes the entry holds: its trace and its tapes.
    fn footprint(&self) -> usize {
        self.trace.bytes() + self.tapes.iter().map(|t| t.bytes()).sum::<usize>()
    }
}

/// A pool slot: empty until its key's one capture completes (or after
/// its entry was evicted under memory pressure).
type TraceSlot = Arc<Mutex<Option<Entry>>>;

/// The engine-wide simulation context: one worker-shared, optionally
/// *bounded* pool of captured [`DynTrace`]s keyed by emulation key —
/// and, optionally, its on-disk extension — threaded through every
/// sweep of a `figures` run.
///
/// Sweeps whose cells differ only in timing-side configuration
/// (predictor, core, filter mode) share one trace per emulation key,
/// and Figures 1, 6, 7 and 8 revisit the *same* keys: the first cell to
/// reach a key captures (or loads) its trace, and every later cell — on
/// any [`run_cells`] worker, in any sweep — replays the `Arc`-shared
/// copy. Each key is captured by exactly one worker, and racing workers
/// wait on that key's slot rather than re-emulating. The context counts
/// what actually happened ([`captures`](EngineContext::captures),
/// [`disk_loads`](EngineContext::disk_loads)) so a run can show each
/// emulation key was emulated **exactly once**. The key type is
/// caller-chosen (any `Eq + Hash`); sweeps typically use
/// `(BenchmarkId, seed, pbs)` tuples.
///
/// # Trace directory
///
/// With a trace directory ([`EngineContext::with_trace_dir`]) the pool
/// extends across *processes*:
/// [`get_or_capture`](EngineContext::get_or_capture) first tries
/// [`DynTrace::load_file`] under the key's caller-supplied content
/// hash, and persists fresh captures. Every failure falls back to
/// capture — persistence can save a re-emulation, never change a
/// result — but the store *self-heals* along the way instead of
/// silently looping: transient I/O errors retry with capped backoff, a
/// stale file (intact, wrong format version or key) is counted
/// ([`stale_rejected`](EngineContext::stale_rejected)) and
/// overwritten, a corrupt file is **quarantined** — atomically renamed
/// to `*.quarantined`, counted, never re-read — and a fatal storage
/// error (ENOSPC, read-only directory) disables persistence for the
/// remainder of the run with a single warning. Opening a persistent
/// context also sweeps orphaned writer temp files from the directory
/// ([`sweep_stale_temps`]), so crashed earlier runs cannot leak disk
/// forever.
///
/// # Memory budget
///
/// Unbounded by default: every pooled trace stays until the context is
/// dropped. With a budget ([`EngineContext::with_robustness`]) the pool
/// keeps its heap bytes at or under the budget: whenever an insert
/// pushes it over, it drops its least recently used entries, tapes
/// included. With a trace directory a victim's file is first written if
/// it is absent, and the drop is a **demotion** — the key's next use is
/// a disk load. Without a directory, or if that write fails, the drop
/// is an **eviction** — the key's next use re-captures.
///
/// The most recently touched entry is never dropped, so a budget
/// smaller than one trace degrades to "keep exactly the entry in use".
/// The budget bounds what the *pool retains*; `Arc`s already handed to
/// running cells keep their traces alive until those cells finish, as
/// they must. Which entries get dropped can depend on thread
/// scheduling — what every cell *computes* never does, because a
/// reloaded or re-captured trace is byte-identical to the pooled one
/// (the persistence round-trip property).
/// [`peak_bytes`](EngineContext::peak_bytes) reports the high-water
/// mark of pooled bytes sampled after each insert's budget enforcement.
///
/// # Prediction tapes
///
/// Beside each trace the pool keeps the [`PredTape`]s of the predictor
/// passes run over it ([`EngineContext::taped`]): a later pass under the
/// same predictor and filter mode reads the tape instead of running the
/// predictor again. Tapes count against the budget like the trace they
/// belong to and are dropped with it. They live in memory only: a disk
/// load starts with none, and they are recorded again on first use.
#[derive(Debug)]
pub struct EngineContext<K> {
    /// One slot per key. The outer lock is held only for slot lookup;
    /// the capture runs under the *slot's* lock, so workers racing on
    /// the same key wait for the one in-flight capture instead of
    /// re-emulating (same-key cells are adjacent in sweep grids, making
    /// that race the common case at `--jobs > 1`), while captures for
    /// different keys proceed in parallel. Lock order is always outer →
    /// slot → persistence breaker; budget enforcement and the drain
    /// flush snapshot the slot list and release the outer lock before
    /// touching any slot.
    slots: Mutex<HashMap<K, TraceSlot>>,
    /// Pooled-byte ceiling; `None` = unbounded.
    budget: Option<usize>,
    /// LRU clock: monotonically increasing touch stamps.
    clock: AtomicU64,
    hits: AtomicUsize,
    demotions: AtomicUsize,
    evictions: AtomicUsize,
    peak_bytes: AtomicUsize,
    tape_reads: AtomicUsize,
    tapes_recorded: AtomicUsize,
    trace_dir: Option<PathBuf>,
    captures: AtomicUsize,
    disk_loads: AtomicUsize,
    /// Intact-but-mismatched persisted traces rejected and re-captured
    /// (stale format version or emulation key) — satellite visibility
    /// for what used to be silent re-captures.
    stale_rejected: AtomicUsize,
    /// Corrupt persisted traces renamed aside (`*.quarantined`).
    quarantined: AtomicUsize,
    /// Transient-I/O retries spent on loads and writes.
    io_retries: AtomicUsize,
    /// Persist attempts abandoned after exhausting their retries.
    write_failures: AtomicUsize,
    /// The persistence circuit breaker: when it last tripped while it
    /// is open, `None` while it is closed. A fatal storage error
    /// (ENOSPC, read-only dir) trips it. Without a cooldown
    /// ([`set_persist_cooldown`](EngineContext::set_persist_cooldown))
    /// it stays open for the rest of the run; with one, a half-open
    /// probe retries after the cooldown and success closes it again.
    /// Every trace write holds this lock from its breaker check through
    /// its last attempt, so the first fatal error stops every later
    /// write.
    breaker: Mutex<Option<std::time::Instant>>,
    /// Half-open cooldown in milliseconds; 0 = breaker never retries
    /// (the per-run shutdown semantics batch runs keep).
    persist_cooldown_ms: AtomicU64,
    /// Times the breaker tripped (first trip + every failed probe).
    breaker_trips: AtomicUsize,
}

impl<K: Eq + Hash> Default for EngineContext<K> {
    fn default() -> EngineContext<K> {
        EngineContext::new()
    }
}

impl<K: Eq + Hash> EngineContext<K> {
    /// A context with an empty, unbounded in-memory pool and no disk
    /// persistence.
    pub fn new() -> EngineContext<K> {
        EngineContext::with_robustness(None, None)
    }

    /// A context whose pool is backed by trace files under `dir`
    /// (created on first write if missing).
    pub fn with_trace_dir(dir: impl Into<PathBuf>) -> EngineContext<K> {
        EngineContext::with_robustness(Some(dir.into()), None)
    }

    /// The fully general constructor: an optional trace directory and
    /// an optional pool memory budget in bytes (see the type docs).
    /// Opening with a directory sweeps its stale writer temp files
    /// first.
    pub fn with_robustness(
        trace_dir: Option<PathBuf>,
        mem_budget: Option<usize>,
    ) -> EngineContext<K> {
        if let Some(dir) = trace_dir.as_deref() {
            sweep_stale_temps(dir);
            sweep_old_quarantined(dir);
        }
        EngineContext {
            slots: Mutex::new(HashMap::new()),
            budget: mem_budget,
            clock: AtomicU64::new(0),
            hits: AtomicUsize::new(0),
            demotions: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            tape_reads: AtomicUsize::new(0),
            tapes_recorded: AtomicUsize::new(0),
            trace_dir,
            captures: AtomicUsize::new(0),
            disk_loads: AtomicUsize::new(0),
            stale_rejected: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            io_retries: AtomicUsize::new(0),
            write_failures: AtomicUsize::new(0),
            breaker: Mutex::new(None),
            persist_cooldown_ms: AtomicU64::new(0),
            breaker_trips: AtomicUsize::new(0),
        }
    }

    /// Gives the persistence circuit breaker a half-open cooldown: once
    /// tripped by a fatal storage error, persistence is retried after
    /// `cooldown` (one probe; success closes the breaker, failure
    /// re-trips it and restarts the clock). Batch runs keep the default
    /// — tripped means off for the rest of the run — but a long-lived
    /// service wants the store back when the disk recovers.
    pub fn set_persist_cooldown(&self, cooldown: std::time::Duration) {
        self.persist_cooldown_ms
            .store(cooldown.as_millis() as u64, Ordering::Relaxed);
    }

    /// Whether this context persists traces to disk.
    pub fn persistent(&self) -> bool {
        self.trace_dir.is_some()
    }

    fn touch(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Every slot, snapshotted so the outer lock is released before any
    /// slot is locked.
    fn slot_list(&self) -> Vec<TraceSlot> {
        lock_ignore_poison(&self.slots)
            .values()
            .map(Arc::clone)
            .collect()
    }

    /// The trace file path for a content hash under `dir`.
    fn trace_path(dir: &Path, content_hash: u64) -> PathBuf {
        dir.join(format!("trace-{content_hash:016x}.bin"))
    }

    /// Writes `trace` to its file under `dir`, creating `dir` first: the
    /// one write behind a capture's persist, a demotion and the drain
    /// flush, each under the breaker lock. `attempt` salts the persist
    /// failpoints, so a retry re-rolls them.
    fn write_trace(
        dir: &Path,
        trace: &DynTrace,
        content_hash: u64,
        attempt: u64,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        trace.write_file_attempt(&Self::trace_path(dir, content_hash), content_hash, attempt)
    }

    /// The trace for `key`: the pooled one, or else loaded from the
    /// trace directory (when configured and valid) or captured with
    /// `capture` — for a missing **or previously evicted** key, so a
    /// persistent context re-serves evicted keys from disk rather than
    /// re-emulating. `content_hash` must identify everything that
    /// shapes the captured stream (see
    /// [`SimConfig::emu_key_fingerprint`](probranch_pipeline::SimConfig::emu_key_fingerprint)
    /// and the sweep's workload identity); `config` supplies the
    /// emulation key a loaded trace replays under.
    ///
    /// # Errors
    ///
    /// Propagates `capture`'s error; the slot stays empty, so a later
    /// caller retries.
    pub fn get_or_capture<E>(
        &self,
        key: K,
        content_hash: u64,
        config: &SimConfig,
        capture: impl FnOnce() -> Result<DynTrace, E>,
    ) -> Result<Arc<DynTrace>, E> {
        let slot = Arc::clone(lock_ignore_poison(&self.slots).entry(key).or_default());
        let trace = {
            let mut guard = lock_ignore_poison(&slot);
            if let Some(entry) = guard.as_mut() {
                entry.stamp = self.touch();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.trace));
            }
            let trace = Arc::new(self.load_or_capture_unpooled(content_hash, config, capture)?);
            *guard = Some(Entry {
                trace: Arc::clone(&trace),
                tapes: Vec::new(),
                bytes: trace.bytes(),
                stamp: self.touch(),
                content_hash,
            });
            trace
        };
        self.enforce_budget();
        Ok(trace)
    }

    /// [`get_or_capture`](EngineContext::get_or_capture) without the
    /// in-memory pool: loads from the trace directory (when configured
    /// and valid) or captures — persisting a fresh capture — and hands
    /// the trace to the caller to drop when done. For one-shot
    /// consumers whose key no other sweep will revisit (Figure 9's
    /// per-seed pairs), where pooling a never-evicted multi-megabyte
    /// trace would buy nothing but peak memory. Capture/disk-load
    /// accounting is shared with the pooled path.
    ///
    /// Unlike the pooled path there is no per-key lock: callers racing
    /// on the same hash may capture twice (and atomically overwrite
    /// each other's identical file) — wasteful, never wrong.
    ///
    /// # Errors
    ///
    /// Propagates `capture`'s error.
    pub fn load_or_capture_unpooled<E>(
        &self,
        content_hash: u64,
        config: &SimConfig,
        capture: impl FnOnce() -> Result<DynTrace, E>,
    ) -> Result<DynTrace, E> {
        if let Some(dir) = &self.trace_dir {
            if let Some(trace) = self.healing_load(dir, content_hash, config) {
                self.disk_loads.fetch_add(1, Ordering::Relaxed);
                return Ok(trace);
            }
        }
        let trace = capture()?;
        self.captures.fetch_add(1, Ordering::Relaxed);
        if let Some(dir) = &self.trace_dir {
            self.persist_trace(dir, &trace, content_hash);
        }
        Ok(trace)
    }

    /// Brings the pooled bytes back under the budget — dropping the
    /// coldest entry, never the most recently touched one, as a demotion
    /// or an eviction — and samples the peak. Slots locked by in-flight
    /// captures are skipped — their bytes are accounted at *their*
    /// insert's enforcement.
    fn enforce_budget(&self) {
        let slots = self.slot_list();
        loop {
            // Snapshot pass: pooled total, the protected newest stamp,
            // and the coldest entry.
            let mut total = 0usize;
            let mut newest = None::<u64>;
            let mut coldest = None::<(u64, usize)>;
            for (i, slot) in slots.iter().enumerate() {
                let guard = match slot.try_lock() {
                    Ok(guard) => guard,
                    Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => continue,
                };
                let Some(e) = guard.as_ref() else { continue };
                total += e.bytes;
                if newest.is_none_or(|n| e.stamp > n) {
                    newest = Some(e.stamp);
                }
                if coldest.is_none_or(|(s, _)| e.stamp < s) {
                    coldest = Some((e.stamp, i));
                }
            }
            let victim = match coldest {
                Some((s, i)) if self.budget.is_some_and(|b| total > b) && Some(s) != newest => i,
                // Under budget, or only the in-use entry is left: the
                // budget cannot be met without breaking the pool's
                // contract.
                _ => {
                    self.peak_bytes.fetch_max(total, Ordering::Relaxed);
                    return;
                }
            };
            let mut guard = lock_ignore_poison(&slots[victim]);
            let Some(e) = guard.as_ref() else { continue };
            let on_disk = self.trace_dir.as_deref().is_some_and(|dir| {
                self.write_if_absent(dir, &e.trace, e.content_hash)
                    .is_some()
            });
            *guard = None;
            if on_disk {
                self.demotions.fetch_add(1, Ordering::Relaxed);
            } else {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Writes `trace`'s file under `dir` unless it is there already:
    /// `Some(true)` when it wrote it, `Some(false)` when the file was
    /// present, `None` when it is missing because the breaker is open
    /// or the write failed. One attempt, no retry: the caller can always
    /// fall back to dropping or keeping the trace in memory.
    fn write_if_absent(&self, dir: &Path, trace: &DynTrace, content_hash: u64) -> Option<bool> {
        let breaker = lock_ignore_poison(&self.breaker);
        if Self::trace_path(dir, content_hash).exists() {
            return Some(false);
        }
        if breaker.is_some() {
            return None;
        }
        Self::write_trace(dir, trace, content_hash, 0).ok()?;
        Some(true)
    }

    /// Transient-I/O retry budget for one load or persist (attempts
    /// beyond the first), with capped exponential backoff.
    const IO_RETRIES: u64 = 3;

    fn backoff(attempt: u64) {
        std::thread::sleep(std::time::Duration::from_millis(1 << attempt.min(4)));
    }

    /// The self-healing load: retries transient I/O errors with capped
    /// backoff, counts and overwrites stale files, quarantines corrupt
    /// ones. Returns `None` whenever the caller should fall back to
    /// capture — after which the path is clear (the bad file is gone or
    /// overwritable), so re-capture heals the store.
    fn healing_load(&self, dir: &Path, content_hash: u64, config: &SimConfig) -> Option<DynTrace> {
        let path = Self::trace_path(dir, content_hash);
        let mut attempt = 0u64;
        loop {
            match DynTrace::load_file(&path, content_hash, config, attempt) {
                TraceLoad::Loaded(trace) => return Some(*trace),
                TraceLoad::Missing => return None,
                TraceLoad::Stale => {
                    self.stale_rejected.fetch_add(1, Ordering::Relaxed);
                    // Intact file, wrong format/key: the fresh capture
                    // simply overwrites it.
                    return None;
                }
                TraceLoad::Corrupt => {
                    self.quarantine(&path, content_hash);
                    return None;
                }
                TraceLoad::Io(e) => {
                    if attempt >= Self::IO_RETRIES {
                        eprintln!(
                            "warning: trace {content_hash:016x} unreadable after {} attempts ({e}); re-capturing",
                            attempt + 1
                        );
                        return None;
                    }
                    self.io_retries.fetch_add(1, Ordering::Relaxed);
                    Self::backoff(attempt);
                    attempt += 1;
                }
            }
        }
    }

    /// Moves a corrupt persisted trace aside — an atomic rename to
    /// `<name>.quarantined`, which no load path ever matches again —
    /// so the evidence survives for inspection and the store never
    /// pays for the same corrupt file twice.
    fn quarantine(&self, path: &Path, content_hash: u64) {
        let mut dest = path.as_os_str().to_owned();
        dest.push(".quarantined");
        match std::fs::rename(path, Path::new(&dest)) {
            Ok(()) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: quarantined corrupt trace {content_hash:016x} (kept as {})",
                    Path::new(&dest).display()
                );
            }
            Err(e) => {
                // Racing contexts may quarantine concurrently; only the
                // rename winner counts. Anything else: warn and fall
                // back to capture — the overwrite still heals the path.
                if path.exists() {
                    eprintln!(
                        "warning: could not quarantine corrupt trace {content_hash:016x}: {e}"
                    );
                }
            }
        }
    }

    /// Persists a fresh capture, retrying transient errors and tripping
    /// the persistence circuit breaker (with one warning) on fatal
    /// storage errors — a full or read-only disk costs warm starts,
    /// never results. With a half-open cooldown configured
    /// ([`set_persist_cooldown`](EngineContext::set_persist_cooldown)),
    /// the first persist after the cooldown probes the store again.
    fn persist_trace(&self, dir: &Path, trace: &DynTrace, content_hash: u64) {
        let mut breaker = lock_ignore_poison(&self.breaker);
        let half_open_probe = match *breaker {
            None => false,
            Some(tripped) => {
                let cooldown = self.persist_cooldown_ms.load(Ordering::Relaxed);
                if cooldown == 0 || tripped.elapsed() < std::time::Duration::from_millis(cooldown) {
                    return;
                }
                true
            }
        };
        for attempt in 0..=Self::IO_RETRIES {
            let e = match Self::write_trace(dir, trace, content_hash, attempt) {
                Ok(()) => {
                    if half_open_probe {
                        *breaker = None;
                        eprintln!(
                            "warning: trace persistence breaker closed; store is healthy again"
                        );
                    }
                    return;
                }
                Err(e) => e,
            };
            if Self::fatal_storage_error(&e) {
                self.trip_breaker(&mut breaker, &e);
                return;
            }
            if attempt == Self::IO_RETRIES {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
                eprintln!("warning: could not persist trace {content_hash:016x}: {e}");
                if half_open_probe {
                    // A failed probe re-opens the breaker and restarts
                    // its clock — no probe storm against a sick disk.
                    self.trip_breaker(&mut breaker, &e);
                }
                return;
            }
            self.io_retries.fetch_add(1, Ordering::Relaxed);
            Self::backoff(attempt);
        }
    }

    /// Opens (or re-opens) the persistence breaker, restarting the
    /// half-open clock; warns on the initial trip only.
    fn trip_breaker(&self, breaker: &mut Option<std::time::Instant>, e: &std::io::Error) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        if breaker.replace(std::time::Instant::now()).is_some() {
            return;
        }
        let cooldown = self.persist_cooldown_ms.load(Ordering::Relaxed);
        if cooldown == 0 {
            eprintln!(
                "warning: trace persistence disabled for the rest of the run ({e}); \
                 results are unaffected"
            );
        } else {
            eprintln!(
                "warning: trace persistence breaker tripped ({e}); retrying in {cooldown}ms; \
                 results are unaffected"
            );
        }
    }

    /// Whether a persist error means the directory is unusable for the
    /// rest of the run (retrying or trying other keys cannot help).
    fn fatal_storage_error(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            std::io::ErrorKind::StorageFull
                | std::io::ErrorKind::PermissionDenied
                | std::io::ErrorKind::ReadOnlyFilesystem
        ) || matches!(e.raw_os_error(), Some(28 | 30)) // ENOSPC, EROFS
    }

    /// The trace already pooled for `key`, if any — never captures and
    /// never touches the disk, but does refresh the entry's LRU stamp
    /// (a peek is a use).
    pub fn peek(&self, key: &K) -> Option<Arc<DynTrace>> {
        let slot = Arc::clone(lock_ignore_poison(&self.slots).get(key)?);
        let mut guard = lock_ignore_poison(&slot);
        guard.as_mut().map(|e| {
            e.stamp = self.touch();
            Arc::clone(&e.trace)
        })
    }

    /// Runs one predictor pass over `key`'s pooled trace through its
    /// prediction tape for `tape_key`. `pass` receives the tape an
    /// earlier pass recorded, if the entry holds one, and returns its
    /// result with the tape it recorded, if it ran the predictor; that
    /// tape is stored beside the trace, charged to the budget. A pass
    /// that fails or panics stores nothing, and a tape recorded after
    /// its entry was evicted is dropped — the key's next capture is
    /// byte-identical, so its tapes are simply recorded again.
    ///
    /// Looking a tape up refreshes the entry's LRU stamp but is not a
    /// [`store_hits`](EngineContext::store_hits) event.
    ///
    /// # Errors
    ///
    /// Propagates `pass`'s error.
    pub fn taped<R, E>(
        &self,
        key: &K,
        tape_key: TapeKey,
        pass: impl FnOnce(Option<&PredTape>) -> Result<(R, Option<PredTape>), E>,
    ) -> Result<R, E> {
        let slot = lock_ignore_poison(&self.slots).get(key).map(Arc::clone);
        let tape = slot.as_ref().and_then(|slot| {
            let mut guard = lock_ignore_poison(slot);
            let e = guard.as_mut()?;
            let tape = e
                .tapes
                .iter()
                .find(|t| t.key() == tape_key)
                .map(Arc::clone)?;
            e.stamp = self.touch();
            Some(tape)
        });
        if tape.is_some() {
            self.tape_reads.fetch_add(1, Ordering::Relaxed);
        }
        let (result, recorded) = pass(tape.as_deref())?;
        if let (Some(recorded), Some(slot)) = (recorded, slot) {
            let stored = {
                let mut guard = lock_ignore_poison(&slot);
                match guard.as_mut() {
                    Some(e) if e.tapes.iter().all(|t| t.key() != tape_key) => {
                        e.tapes.push(Arc::new(recorded));
                        e.bytes = e.footprint();
                        e.stamp = self.touch();
                        true
                    }
                    _ => false,
                }
            };
            if stored {
                self.tapes_recorded.fetch_add(1, Ordering::Relaxed);
                self.enforce_budget();
            }
        }
        Ok(result)
    }

    /// Writes every pooled trace that has no file yet (write-if-absent,
    /// like demotion) — the drain step a service
    /// takes before exit, so traces captured while persistence was down
    /// still reach the store once it recovers. A no-op while the
    /// breaker is open. Returns the number of files written; entries
    /// stay pooled and untouched.
    pub fn flush_to_disk(&self) -> usize {
        let Some(dir) = &self.trace_dir else { return 0 };
        let mut written = 0usize;
        for slot in self.slot_list() {
            if let Some(e) = lock_ignore_poison(&slot).as_ref() {
                let wrote = self.write_if_absent(dir, &e.trace, e.content_hash);
                written += usize::from(wrote == Some(true));
            }
        }
        written
    }

    /// Passes over pooled traces served from a stored prediction tape.
    pub fn tape_reads(&self) -> usize {
        self.tape_reads.load(Ordering::Relaxed)
    }

    /// Prediction tapes recorded and stored beside pooled traces.
    pub fn tapes_recorded(&self) -> usize {
        self.tapes_recorded.load(Ordering::Relaxed)
    }

    /// Emulations actually performed through this context.
    pub fn captures(&self) -> usize {
        self.captures.load(Ordering::Relaxed)
    }

    /// Traces served from the trace directory instead of captured.
    pub fn disk_loads(&self) -> usize {
        self.disk_loads.load(Ordering::Relaxed)
    }

    /// Distinct emulation keys currently pooled.
    pub fn keys(&self) -> usize {
        lock_ignore_poison(&self.slots)
            .values()
            .filter(|s| lock_ignore_poison(s).is_some())
            .count()
    }

    /// Total heap bytes held by the pooled traces and their tapes (see
    /// [`DynTrace::bytes`]).
    pub fn bytes(&self) -> usize {
        lock_ignore_poison(&self.slots)
            .values()
            .filter_map(|s| lock_ignore_poison(s).as_ref().map(|e| e.bytes))
            .sum()
    }

    /// Pool hits: gets served from an already-pooled trace.
    pub fn store_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Pooled traces dropped under the memory budget with their file
    /// on disk, so the key's next use is a disk load.
    pub fn demotions(&self) -> usize {
        self.demotions.load(Ordering::Relaxed)
    }

    /// Pooled traces dropped under the memory budget with no file to
    /// load them from, so the key's next use re-captures.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// High-water mark of pooled bytes, sampled after each insert's
    /// budget enforcement. At most the budget whenever the budget
    /// admits at least the single most recent trace.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Times the persistence breaker tripped (first fatal storage
    /// error plus every failed half-open probe).
    pub fn breaker_trips(&self) -> usize {
        self.breaker_trips.load(Ordering::Relaxed)
    }

    /// Intact persisted traces rejected for a stale format version or
    /// emulation key and transparently re-captured.
    pub fn stale_rejected(&self) -> usize {
        self.stale_rejected.load(Ordering::Relaxed)
    }

    /// Corrupt persisted traces quarantined (renamed to
    /// `*.quarantined`, never re-read).
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Transient-I/O retries spent on trace loads and persists.
    pub fn io_retries(&self) -> usize {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// Persist attempts abandoned after exhausting their retry budget.
    pub fn write_failures(&self) -> usize {
        self.write_failures.load(Ordering::Relaxed)
    }

    /// Whether a fatal storage error shut persistence off for the
    /// remainder of the run.
    pub fn persistence_disabled(&self) -> bool {
        lock_ignore_poison(&self.breaker).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_cell_index_order() {
        let cells: Vec<u64> = (0..100).collect();
        for jobs in [Jobs::serial(), Jobs::new(3), Jobs::new(16)] {
            let out = run_cells(&cells, jobs, |&c| c * 10);
            assert_eq!(out, (0..100).map(|c| c * 10).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn parallel_equals_serial_under_uneven_load() {
        // Deliberately skewed per-cell cost so workers finish out of
        // order; the merged output must not care.
        let cells: Vec<u64> = (0..64).collect();
        let work = |&c: &u64| {
            let mut acc = c;
            for _ in 0..(c % 7) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (c, acc)
        };
        assert_eq!(
            run_cells(&cells, Jobs::serial(), work),
            run_cells(&cells, Jobs::new(8), work)
        );
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let out = run_cells(&[1u32, 2], Jobs::new(64), |&c| c + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_grid_yields_empty_results() {
        let out = run_cells(&[] as &[u8], Jobs::new(4), |_| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_clamps_and_parses() {
        assert_eq!(Jobs::new(0).get(), 1);
        assert_eq!(Jobs::serial().get(), 1);
        assert!(Jobs::available().get() >= 1);
        assert_eq!(Jobs::new(5).to_string(), "5");
    }

    #[test]
    fn the_callers_fault_plan_reaches_every_worker() {
        use probranch_pipeline::{DynTrace, SimConfig};
        use probranch_workloads::{BenchmarkId as B, Scale};

        // `capture.block` rolls once per capture, so a plan armed on the
        // caller counts every capture its four workers make.
        let cfg = SimConfig::default();
        let programs: Vec<_> = (0..8)
            .map(|s| B::Pi.build(Scale::Smoke, workload_seed(B::Pi, s)).program())
            .collect();
        let _plan = faults::PlanScope::enter(
            faults::FaultPlan::seeded(1).arm(faults::Site::CaptureBlock, 1.0),
        );
        run_cells(&programs, Jobs::new(4), |program| {
            DynTrace::capture(program, &cfg).expect("capture")
        });
        assert_eq!(faults::hits(), vec![(faults::Site::CaptureBlock, 8)]);
    }

    #[test]
    fn workload_seed_ignores_machine_config() {
        use probranch_pipeline::PredictorChoice as P;
        use probranch_workloads::BenchmarkId as B;
        let base = Cell::new(B::Pi, P::Tournament, false, 3);
        let pbs = Cell::new(B::Pi, P::TageScL, true, 3);
        // Same workload instance under every machine configuration…
        assert_eq!(base.workload_seed(), pbs.workload_seed());
        // …but the full identity hash still tells the cells apart.
        assert_ne!(base.stable_hash(), pbs.stable_hash());
        // Different benchmark or seed index ⇒ different stream.
        assert_ne!(
            base.workload_seed(),
            Cell::new(B::Bandit, P::Tournament, false, 3).workload_seed()
        );
        assert_ne!(
            base.workload_seed(),
            Cell::new(B::Pi, P::Tournament, false, 4).workload_seed()
        );
    }

    #[test]
    fn trace_cache_captures_once_and_is_shared_across_threads() {
        use probranch_pipeline::{DynTrace, SimConfig, Simulation};
        use probranch_workloads::{BenchmarkId as B, Scale};

        let ctx: EngineContext<(B, u64, bool)> = EngineContext::new();
        let program = B::Pi.build(Scale::Smoke, workload_seed(B::Pi, 0)).program();
        let cfg = SimConfig::default();
        // Eight cells over two keys, claimed by four workers sharing the
        // pool; every cell replays the same Arc-shared trace.
        let cells: Vec<u64> = (0..8).collect();
        let reports = run_cells(&cells, Jobs::new(4), |&c| {
            let key = (B::Pi, c % 2, false);
            let trace = ctx
                .get_or_capture(key, cfg.emu_key_fingerprint(), &cfg, || {
                    DynTrace::capture(&program, &cfg)
                })
                .expect("capture");
            Simulation::default().replay(&trace, &cfg).expect("replay")
        });
        assert!(ctx.keys() <= 2 && ctx.keys() > 0);
        assert!(ctx.bytes() > 0);
        assert_eq!(ctx.captures(), ctx.keys(), "one capture per key");
        for r in &reports[1..] {
            assert_eq!(r, &reports[0], "shared-trace replays must agree");
        }
    }

    #[test]
    fn engine_context_pools_across_sweeps_and_counts_captures() {
        use probranch_pipeline::{DynTrace, SimConfig, Simulation};
        use probranch_workloads::{BenchmarkId as B, Scale};

        let ctx: EngineContext<(B, u64, bool)> = EngineContext::new();
        let program = B::Pi.build(Scale::Smoke, workload_seed(B::Pi, 0)).program();
        let cfg = SimConfig::default();
        let hash = cfg.emu_key_fingerprint();
        let key = (B::Pi, 0u64, false);
        assert!(ctx.peek(&key).is_none());
        // Two "sweeps" over the same key across worker threads: one
        // capture total, every cell replaying the shared trace.
        for _sweep in 0..2 {
            let reports = run_cells(&[0u64, 1, 2, 3], Jobs::new(4), |_| {
                let trace = ctx
                    .get_or_capture(key, hash, &cfg, || DynTrace::capture(&program, &cfg))
                    .expect("capture");
                Simulation::default().replay(&trace, &cfg).expect("replay")
            });
            for r in &reports[1..] {
                assert_eq!(r, &reports[0]);
            }
        }
        assert_eq!(ctx.captures(), 1, "one emulation for eight cells");
        assert_eq!(ctx.disk_loads(), 0);
        assert_eq!(ctx.keys(), 1);
        assert!(ctx.peek(&key).is_some());
        assert!(ctx.bytes() > 0);
    }

    #[test]
    fn engine_context_trace_dir_round_trips_and_survives_corruption() {
        use probranch_pipeline::{DynTrace, SimConfig, Simulation};
        use probranch_workloads::{BenchmarkId as B, Scale};

        let dir = std::env::temp_dir().join(format!("probranch-ctx-traces-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let program = B::Pi.build(Scale::Smoke, workload_seed(B::Pi, 0)).program();
        let cfg = SimConfig::default();
        let hash = cfg.emu_key_fingerprint();
        let key = (B::Pi, 0u64, false);
        let run = |ctx: &EngineContext<(B, u64, bool)>| {
            let trace = ctx
                .get_or_capture(key, hash, &cfg, || DynTrace::capture(&program, &cfg))
                .expect("capture");
            Simulation::default().replay(&trace, &cfg).expect("replay")
        };

        // Cold: captures and persists.
        let cold_ctx = EngineContext::with_trace_dir(&dir);
        assert!(cold_ctx.persistent());
        let cold = run(&cold_ctx);
        assert_eq!((cold_ctx.captures(), cold_ctx.disk_loads()), (1, 0));

        // Warm: a fresh context loads from disk, zero emulations, and
        // the replay is byte-identical.
        let warm_ctx = EngineContext::with_trace_dir(&dir);
        let warm = run(&warm_ctx);
        assert_eq!((warm_ctx.captures(), warm_ctx.disk_loads()), (0, 1));
        assert_eq!(warm, cold);

        // Corrupt the file: the next context falls back to capture and
        // rewrites it.
        let file = std::fs::read_dir(&dir)
            .expect("trace dir")
            .next()
            .expect("one trace file")
            .expect("dir entry")
            .path();
        let mut bytes = std::fs::read(&file).expect("trace bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&file, &bytes).expect("corrupt");
        let healed_ctx = EngineContext::with_trace_dir(&dir);
        let healed = run(&healed_ctx);
        assert_eq!((healed_ctx.captures(), healed_ctx.disk_loads()), (1, 0));
        assert_eq!(healed, cold);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistence_breaker_half_opens_and_drain_flushes_missed_writes() {
        use probranch_pipeline::{DynTrace, SimConfig};
        use probranch_workloads::{BenchmarkId as B, Scale};

        let dir = std::env::temp_dir().join(format!("probranch-breaker-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = SimConfig::default();
        let base = cfg.emu_key_fingerprint();
        let capture = |ctx: &EngineContext<(B, u64, bool)>, seed: u64| {
            let program = B::Pi
                .build(Scale::Smoke, workload_seed(B::Pi, seed))
                .program();
            ctx.get_or_capture((B::Pi, seed, false), base ^ seed, &cfg, || {
                DynTrace::capture(&program, &cfg)
            })
            .expect("capture");
        };

        // ENOSPC on every write (until the budget runs out) trips the
        // breaker on the first persist.
        let full_disk = faults::PlanScope::enter(
            faults::FaultPlan::seeded(7).arm(faults::Site::PersistEnospc, 1.0),
        );
        let ctx: EngineContext<(B, u64, bool)> = EngineContext::with_trace_dir(&dir);
        capture(&ctx, 0);
        assert!(ctx.persistence_disabled(), "fatal storage error trips");
        assert_eq!(ctx.breaker_trips(), 1);
        // Without a cooldown the breaker stays open: captures are
        // pooled but nothing reaches disk, and drain flushes nothing.
        capture(&ctx, 1);
        assert!(ctx.persistence_disabled());
        assert_eq!(ctx.flush_to_disk(), 0, "no flush through an open breaker");
        let on_disk = || {
            std::fs::read_dir(&dir).map_or(0, |d| {
                d.flatten()
                    .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".bin")))
                    .count()
            })
        };
        assert_eq!(on_disk(), 0);

        // Heal the disk and give the breaker a cooldown: the next
        // persist is a half-open probe, success closes the breaker.
        drop(full_disk);
        ctx.set_persist_cooldown(std::time::Duration::from_millis(1));
        std::thread::sleep(std::time::Duration::from_millis(5));
        capture(&ctx, 2);
        assert!(!ctx.persistence_disabled(), "successful probe closes");
        assert_eq!(on_disk(), 1, "the probe's own trace persisted");
        // Drain: the traces captured while the breaker was open reach
        // the store now.
        assert_eq!(ctx.flush_to_disk(), 2);
        assert_eq!(on_disk(), 3);
        assert_eq!(ctx.flush_to_disk(), 0, "flush is idempotent");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bounded_pool_evicts_but_never_changes_results() {
        use probranch_pipeline::{DynTrace, SimConfig, Simulation};
        use probranch_workloads::{BenchmarkId as B, Scale};

        let cfg = SimConfig::default();
        let hash = cfg.emu_key_fingerprint();
        let seeds: Vec<u64> = (0..4).collect();
        let programs: Vec<_> = seeds
            .iter()
            .map(|&s| B::Pi.build(Scale::Smoke, workload_seed(B::Pi, s)).program())
            .collect();
        // Budget: room for one-and-a-half traces, so pooling four keys
        // must evict (no trace directory ⇒ nothing to demote to).
        let one = DynTrace::capture(&programs[0], &cfg).unwrap().bytes();
        let budget = one * 3 / 2;
        let run = |ctx: &EngineContext<(B, u64, bool)>| {
            // Two passes over every key: the second revisits keys the
            // budget evicted, forcing re-captures.
            let cells: Vec<u64> = seeds.iter().chain(seeds.iter()).copied().collect();
            run_cells(&cells, Jobs::serial(), |&s| {
                let trace = ctx
                    .get_or_capture((B::Pi, s, false), hash, &cfg, || {
                        DynTrace::capture(&programs[s as usize], &cfg)
                    })
                    .expect("capture");
                Simulation::default().replay(&trace, &cfg).expect("replay")
            })
        };
        let unbounded: EngineContext<(B, u64, bool)> = EngineContext::new();
        let bounded: EngineContext<(B, u64, bool)> =
            EngineContext::with_robustness(None, Some(budget));
        assert_eq!(
            run(&bounded),
            run(&unbounded),
            "eviction must not change results"
        );
        assert_eq!(unbounded.captures(), 4, "unbounded pools each key once");
        assert!(
            bounded.evictions() > 0,
            "a 1.5-trace budget over 4 keys must evict"
        );
        assert!(
            bounded.captures() > 4,
            "revisiting evicted keys re-captures"
        );
        assert!(
            bounded.peak_bytes() <= budget,
            "peak pooled bytes {} exceeded the budget {}",
            bounded.peak_bytes(),
            budget
        );
        assert!(unbounded.peak_bytes() > budget);
        assert_eq!(bounded.demotions(), 0, "nowhere to demote without a dir");
    }

    #[test]
    fn bounded_pool_with_trace_dir_demotes_to_disk_and_never_recaptures() {
        use probranch_pipeline::{DynTrace, SimConfig, Simulation};
        use probranch_workloads::{BenchmarkId as B, Scale};

        let dir =
            std::env::temp_dir().join(format!("probranch-demote-traces-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = SimConfig::default();
        let seeds: Vec<u64> = (0..3).collect();
        let programs: Vec<_> = seeds
            .iter()
            .map(|&s| B::Pi.build(Scale::Smoke, workload_seed(B::Pi, s)).program())
            .collect();
        // Per-key content hashes: each seed builds a different program.
        let hash = |s: u64| SplitMix64::mix_fold(&[cfg.emu_key_fingerprint(), s]);
        let one = DynTrace::capture(&programs[0], &cfg).unwrap().bytes();
        let budget = one * 3 / 2;
        let run = |ctx: &EngineContext<(B, u64, bool)>| {
            let cells: Vec<u64> = seeds.iter().chain(seeds.iter()).copied().collect();
            run_cells(&cells, Jobs::serial(), |&s| {
                let trace = ctx
                    .get_or_capture((B::Pi, s, false), hash(s), &cfg, || {
                        DynTrace::capture(&programs[s as usize], &cfg)
                    })
                    .expect("capture");
                Simulation::default().replay(&trace, &cfg).expect("replay")
            })
        };
        let unbounded: EngineContext<(B, u64, bool)> = EngineContext::new();
        let bounded: EngineContext<(B, u64, bool)> =
            EngineContext::with_robustness(Some(dir.clone()), Some(budget));
        assert_eq!(
            run(&bounded),
            run(&unbounded),
            "demotion must not change results"
        );
        assert!(
            bounded.demotions() > 0,
            "a 1.5-trace budget over 3 keys with a dir must demote"
        );
        assert!(
            bounded.peak_bytes() <= budget,
            "peak pooled bytes {} exceeded the budget {}",
            bounded.peak_bytes(),
            budget
        );
        // A demoted key comes back from its file: each key is captured
        // once, on first use, and never again.
        assert_eq!(bounded.captures(), 3, "a demoted key must not re-capture");
        assert!(bounded.disk_loads() > 0, "demoted keys reload from disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_persistence_breaker_stops_every_write_after_the_first_fatal_one() {
        use probranch_pipeline::{DynTrace, SimConfig};
        use probranch_workloads::{BenchmarkId as B, Scale};

        // Eight keys persisted by four workers at once under a disk that
        // is always full: the first write trips the breaker, and no
        // other write starts, so the fault fires exactly once.
        let cfg = SimConfig::default();
        let traces: Vec<DynTrace> = (0..8)
            .map(|s| {
                let program = B::Pi.build(Scale::Smoke, workload_seed(B::Pi, s)).program();
                DynTrace::capture(&program, &cfg).expect("capture")
            })
            .collect();
        let keys: Vec<u64> = (0..8).collect();
        for round in 0..5 {
            let _plan = faults::PlanScope::enter(
                faults::FaultPlan::seeded(5).arm(faults::Site::PersistEnospc, 1.0),
            );
            let dir = std::env::temp_dir().join(format!(
                "probranch-breaker-race-{}-{round}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let ctx: EngineContext<u64> = EngineContext::with_trace_dir(&dir);
            run_cells(&keys, Jobs::new(4), |&k| {
                ctx.get_or_capture(k, cfg.emu_key_fingerprint() ^ k, &cfg, || {
                    Ok::<_, ()>(traces[k as usize].clone())
                })
                .expect("capture");
            });
            assert_eq!(ctx.captures(), 8);
            assert_eq!(
                faults::hits(),
                vec![(faults::Site::PersistEnospc, 1)],
                "round {round}"
            );
            assert_eq!(ctx.breaker_trips(), 1, "round {round}");
            assert!(ctx.persistence_disabled());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn tapes_are_pooled_counted_and_evicted_with_their_trace() {
        use probranch_pipeline::{DynTrace, SimConfig, Simulation, TapeKey};
        use probranch_workloads::{BenchmarkId as B, Scale};

        let cfg = SimConfig::default();
        let hash = cfg.emu_key_fingerprint();
        let programs: Vec<_> = (0..2)
            .map(|s| B::Pi.build(Scale::Smoke, workload_seed(B::Pi, s)).program())
            .collect();
        let capture = |ctx: &EngineContext<u64>, s: u64| {
            ctx.get_or_capture(s, hash ^ s, &cfg, || {
                DynTrace::capture(&programs[s as usize], &cfg)
            })
            .expect("capture")
        };
        let pass = |ctx: &EngineContext<u64>, s: u64, trace: &DynTrace| {
            ctx.taped(&s, TapeKey::of(&cfg), |tape| {
                Simulation::default().replay_taped(trace, &cfg, tape)
            })
            .expect("replay")
        };

        let ctx: EngineContext<u64> = EngineContext::new();
        let trace = capture(&ctx, 0);
        let untaped = ctx.bytes();
        let first = pass(&ctx, 0, &trace);
        let (_, tape) = Simulation::default()
            .replay_taped(&trace, &cfg, None)
            .expect("replay");
        let tape_bytes = tape.expect("recorded").bytes();
        assert_eq!(
            ctx.bytes(),
            untaped + tape_bytes,
            "a stored tape is pooled bytes"
        );
        assert_eq!(ctx.peak_bytes(), untaped + tape_bytes);
        assert_eq!((ctx.tapes_recorded(), ctx.tape_reads()), (1, 0));
        assert_eq!(
            pass(&ctx, 0, &trace),
            first,
            "a tape-fed replay is the same"
        );
        assert_eq!((ctx.tapes_recorded(), ctx.tape_reads()), (1, 1));
        assert_eq!(ctx.store_hits(), 0, "tape reads are not store hits");

        // A budget that holds one trace: capturing the second key evicts
        // the first together with its tape, and a pass over the evicted
        // key stores nothing.
        let bounded: EngineContext<u64> = EngineContext::with_robustness(None, Some(untaped));
        let trace = capture(&bounded, 0);
        assert_eq!(pass(&bounded, 0, &trace), first);
        let _second = capture(&bounded, 1);
        assert_eq!(bounded.evictions(), 1);
        assert_eq!(pass(&bounded, 0, &trace), first);
        assert_eq!((bounded.tapes_recorded(), bounded.tape_reads()), (1, 0));
        assert_eq!(bounded.keys(), 1);
    }

    #[test]
    fn a_failed_pass_stores_no_tape() {
        use probranch_pipeline::cancel::{CancelScope, CancelToken};
        use probranch_pipeline::{DynTrace, EmuError, EngineKind, SimConfig, Simulation, TapeKey};
        use probranch_workloads::{BenchmarkId as B, Scale};

        let cfg = SimConfig::default();
        let program = B::Bandit
            .build(Scale::Smoke, workload_seed(B::Bandit, 0))
            .program();
        let ctx: EngineContext<u64> = EngineContext::new();
        let trace = ctx
            .get_or_capture(0, cfg.emu_key_fingerprint(), &cfg, || {
                DynTrace::capture(&program, &cfg)
            })
            .expect("capture");
        let pass = || {
            ctx.taped(&0, TapeKey::of(&cfg), |tape| {
                Simulation::default().replay_taped(&trace, &cfg, tape)
            })
        };
        {
            let token = CancelToken::new();
            token.cancel("stop");
            let _scope = CancelScope::enter(token);
            assert_eq!(
                pass(),
                Err(EmuError::Cancelled {
                    reason: "stop".into()
                })
            );
        }
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.taped(&0, TapeKey::of(&cfg), |_| -> Result<((), _), EmuError> {
                panic!("faulted pass")
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(ctx.tapes_recorded(), 0, "a failed pass publishes no tape");
        let bytes = ctx.bytes();

        // A clean rerun records the tape, and the pass after it reads
        // it: both equal the reference engine.
        let reference = Simulation::new(EngineKind::Reference)
            .run(&program, &cfg)
            .expect("reference");
        assert_eq!(pass(), Ok(reference.clone()));
        assert_eq!(pass(), Ok(reference));
        assert_eq!((ctx.tapes_recorded(), ctx.tape_reads()), (1, 1));
        assert!(ctx.bytes() > bytes);
    }

    #[test]
    fn stable_hash_is_reproducible() {
        use probranch_pipeline::PredictorChoice as P;
        use probranch_workloads::BenchmarkId as B;
        let c = Cell::new(B::Photon, P::TageScL, true, 6);
        assert_eq!(c.stable_hash(), c.stable_hash());
        assert_eq!(c.workload_seed(), c.workload_seed());
    }
}
