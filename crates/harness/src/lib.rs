//! # probranch-harness
//!
//! The deterministic parallel experiment engine behind the `figures`
//! binary and the Criterion benches.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use probranch_pipeline::{
    sweep_old_quarantined, sweep_stale_temps, DynTrace, PredictorChoice, SimConfig, TraceLoad,
};
use probranch_rng::SplitMix64;
use probranch_workloads::BenchmarkId;

mod supervise;

/// Locks a mutex, recovering from poisoning: every value guarded by
/// the harness's internal locks is written whole (a cache slot goes
/// from `None` to a complete entry, a result slot from `None` to a
/// finished result), so a panic that poisoned a lock can never have
/// left a half-updated value behind — and supervised retries must be
/// able to reuse the slot a failed attempt touched.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use supervise::{
    install_quiet_panic_hook, run_cells_supervised, Attempt, CellOutcome, StrictViolation,
    SupervisedError, SupervisedRun, Supervision,
};

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
/// matter how many workers ran or how they interleaved. A panic inside
/// `run` propagates after all workers have stopped.
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

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = run(&cells[i]);
                *lock_ignore_poison(&slots[i]) = Some(result);
            });
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

/// How a pooled trace can be *demoted* to — and re-served from — its
/// persisted file: everything [`DynTrace::write_file`] /
/// [`DynTrace::read_file`] need. Attached per entry by
/// [`TraceCache::get_or_capture_with`] when the owning context has a
/// trace directory.
#[derive(Debug, Clone)]
pub struct TraceDiskInfo {
    path: std::path::PathBuf,
    content_hash: u64,
    config: SimConfig,
}

impl TraceDiskInfo {
    /// Disk identity for a pooled trace: its file path, the content
    /// hash the file is keyed by, and the emulation key a load replays
    /// under.
    pub fn new(path: std::path::PathBuf, content_hash: u64, config: SimConfig) -> TraceDiskInfo {
        TraceDiskInfo {
            path,
            content_hash,
            config,
        }
    }
}

/// One pooled trace plus its budget-accounting metadata.
#[derive(Debug)]
struct Entry {
    trace: Arc<DynTrace>,
    /// `trace.bytes()` at insert/demotion time — what this entry
    /// charges against the pool budget.
    bytes: usize,
    /// LRU clock value at last touch.
    stamp: u64,
    /// Disk identity for demotion, cleared after a failed attempt so a
    /// broken file/directory is not retried forever.
    disk: Option<TraceDiskInfo>,
    /// Whether the trace's record streams are already mmap-backed
    /// (nothing left to demote; eviction is the only further step).
    mapped: bool,
}

/// A cache slot: empty until its key's one capture completes (or after
/// its entry was evicted under memory pressure).
type TraceSlot = Arc<Mutex<Option<Entry>>>;

/// A worker-shared, optionally *bounded* cache of captured
/// [`DynTrace`]s, keyed by emulation key.
///
/// Sweeps whose cells differ only in timing-side configuration
/// (predictor, core, filter mode) share one trace per emulation key:
/// the first cell to reach a key captures, every later cell replays the
/// `Arc`-shared trace. The cache is safe to share across [`run_cells`]
/// worker threads — and scheduling-independent: each key is captured by
/// exactly one worker (a deterministic function of the key), and racing
/// workers wait on that key's slot rather than re-emulating.
///
/// The key type is caller-chosen (any `Eq + Hash`); sweeps typically
/// use `(BenchmarkId, seed, pbs)` tuples.
///
/// # Memory budget
///
/// Unbounded by default ([`TraceCache::new`]): every captured trace
/// (~6 bytes per dynamic instruction) stays pooled until the cache is
/// dropped. With a budget ([`TraceCache::with_budget`]) the cache keeps
/// its pooled heap bytes at or under the budget by least-recently-used
/// **demotion, then eviction** whenever an insert pushes it over:
///
/// 1. the coldest entry with a disk identity
///    ([`TraceDiskInfo`]) is *demoted* — persisted if its file is
///    absent, then re-served as a zero-copy mmap-backed load whose
///    pooled footprint is just the timing table and derived request
///    streams (the record streams belong to the OS page cache);
/// 2. once nothing is left to demote, the coldest entry is *evicted*
///    outright — its key re-captures (or disk-loads) on next use.
///
/// The most recently touched entry is never demoted or evicted, so a
/// budget smaller than one trace degrades to "keep exactly the entry in
/// use". The budget bounds what the *pool retains*; `Arc`s already
/// handed to running cells keep their traces alive until those cells
/// finish, as they must. Which entries get demoted can depend on thread
/// scheduling — what every cell *computes* never does, because a
/// demoted or re-captured trace is byte-identical to the pooled one
/// (the persistence round-trip property).
///
/// [`TraceCache::peak_bytes`] reports the high-water mark of pooled
/// bytes sampled after each insert's budget enforcement.
#[derive(Debug, Default)]
pub struct TraceCache<K> {
    /// One slot per key. The outer lock is held only for slot lookup;
    /// the capture runs under the *slot's* lock, so workers racing on
    /// the same key wait for the one in-flight capture instead of
    /// re-emulating (same-key cells are adjacent in sweep grids, making
    /// that race the common case at `--jobs > 1`), while captures for
    /// different keys proceed in parallel. Lock order is always outer →
    /// slot; budget enforcement snapshots the slot list and releases
    /// the outer lock before touching any slot.
    slots: Mutex<HashMap<K, TraceSlot>>,
    /// Pooled-byte ceiling; `None` = unbounded.
    budget: Option<usize>,
    /// LRU clock: monotonically increasing touch stamps.
    clock: std::sync::atomic::AtomicU64,
    hits: AtomicUsize,
    demotions: AtomicUsize,
    evictions: AtomicUsize,
    peak_bytes: AtomicUsize,
}

impl<K: Eq + Hash> TraceCache<K> {
    /// An empty, unbounded cache.
    pub fn new() -> TraceCache<K> {
        TraceCache::with_budget(None)
    }

    /// An empty cache keeping at most `budget` pooled heap bytes
    /// (`None` = unbounded).
    pub fn with_budget(budget: Option<usize>) -> TraceCache<K> {
        TraceCache {
            slots: Mutex::new(HashMap::new()),
            budget,
            clock: std::sync::atomic::AtomicU64::new(0),
            hits: AtomicUsize::new(0),
            demotions: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
        }
    }

    fn touch(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The trace for `key`, capturing it with `capture` on first use.
    ///
    /// # Errors
    ///
    /// Propagates `capture`'s error; the slot stays empty, so a later
    /// caller retries the capture.
    pub fn get_or_capture<E>(
        &self,
        key: K,
        capture: impl FnOnce() -> Result<DynTrace, E>,
    ) -> Result<Arc<DynTrace>, E> {
        self.get_or_capture_with(key, None, capture)
    }

    /// [`get_or_capture`](TraceCache::get_or_capture) with a disk
    /// identity attached to the entry, making it *demotable* under a
    /// memory budget (see the type docs). `capture` runs for a missing
    /// **or previously evicted** key — a persistent context's closure
    /// re-serves evicted keys from disk rather than re-emulating.
    ///
    /// # Errors
    ///
    /// Propagates `capture`'s error; the slot stays empty, so a later
    /// caller retries.
    pub fn get_or_capture_with<E>(
        &self,
        key: K,
        disk: Option<TraceDiskInfo>,
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
            let trace = Arc::new(capture()?);
            let mapped = trace.mapped_chunks() > 0;
            *guard = Some(Entry {
                trace: Arc::clone(&trace),
                bytes: trace.bytes(),
                stamp: self.touch(),
                disk,
                mapped,
            });
            trace
        };
        self.enforce_budget();
        Ok(trace)
    }

    /// Brings the pooled bytes back under the budget (demote coldest,
    /// then evict coldest — never the most recently touched entry) and
    /// samples the peak. Slots locked by in-flight captures are skipped
    /// — their bytes are accounted at *their* insert's enforcement.
    fn enforce_budget(&self) {
        let slots: Vec<TraceSlot> = lock_ignore_poison(&self.slots)
            .values()
            .map(Arc::clone)
            .collect();
        loop {
            // Snapshot pass: pooled total, the protected newest stamp,
            // and the coldest demotion/eviction candidates.
            let mut total = 0usize;
            let mut newest = None::<u64>;
            let mut coldest_demotable = None::<(u64, usize)>;
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
                if !e.mapped
                    && e.disk.is_some()
                    && coldest_demotable.is_none_or(|(s, _)| e.stamp < s)
                {
                    coldest_demotable = Some((e.stamp, i));
                }
            }
            let over = self.budget.is_some_and(|b| total > b);
            if !over {
                self.peak_bytes.fetch_max(total, Ordering::Relaxed);
                return;
            }
            let victim = match (coldest_demotable, coldest) {
                (Some((s, i)), _) if Some(s) != newest => (i, true),
                (_, Some((s, i))) if Some(s) != newest => (i, false),
                // Only the in-use entry is left; the budget cannot be
                // met without breaking the pool's contract.
                _ => {
                    self.peak_bytes.fetch_max(total, Ordering::Relaxed);
                    return;
                }
            };
            let (i, demote) = victim;
            let mut guard = lock_ignore_poison(&slots[i]);
            match guard.as_mut() {
                Some(e) if demote => {
                    if Self::demote(e) {
                        self.demotions.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Broken file or directory: stop retrying; the
                        // entry stays and becomes a plain eviction
                        // candidate.
                        e.disk = None;
                    }
                }
                Some(_) => {
                    *guard = None;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => {}
            }
        }
    }

    /// Swaps an owned entry for its mmap-backed load: persists the
    /// trace if its file is absent (write-if-absent — a warm store
    /// already has the bytes), re-reads it zero-copy, and drops the
    /// owned record streams. Returns whether the swap happened; the
    /// entry is untouched on failure.
    fn demote(e: &mut Entry) -> bool {
        let Some(disk) = &e.disk else { return false };
        if !disk.path.exists() {
            let written = disk
                .path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| e.trace.write_file(&disk.path, disk.content_hash));
            if written.is_err() {
                return false;
            }
        }
        let Some(mapped) = DynTrace::read_file(&disk.path, disk.content_hash, &disk.config) else {
            return false;
        };
        e.trace = Arc::new(mapped);
        e.bytes = e.trace.bytes();
        e.mapped = true;
        true
    }

    /// The trace already pooled for `key`, if any — never captures, but
    /// does refresh the entry's LRU stamp (a peek is a use).
    pub fn peek(&self, key: &K) -> Option<Arc<DynTrace>> {
        let slot = Arc::clone(lock_ignore_poison(&self.slots).get(key)?);
        let mut guard = lock_ignore_poison(&slot);
        guard.as_mut().map(|e| {
            e.stamp = self.touch();
            Arc::clone(&e.trace)
        })
    }

    /// Number of pooled traces.
    pub fn len(&self) -> usize {
        lock_ignore_poison(&self.slots)
            .values()
            .filter(|s| lock_ignore_poison(s).is_some())
            .count()
    }

    /// Whether the cache holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap bytes held by the pooled traces (mmap-backed record
    /// streams count 0 — see [`DynTrace::bytes`]).
    pub fn bytes(&self) -> usize {
        lock_ignore_poison(&self.slots)
            .values()
            .filter_map(|s| lock_ignore_poison(s).as_ref().map(|e| e.bytes))
            .sum()
    }

    /// Pool hits: gets served from an already-pooled entry.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries demoted to their mmap-backed form under budget pressure.
    pub fn demotions(&self) -> usize {
        self.demotions.load(Ordering::Relaxed)
    }

    /// Writes every pooled entry that has a disk identity but no file
    /// yet (write-if-absent, like demotion) — the drain step a service
    /// takes before exit, so traces captured while persistence was
    /// down still reach the store once it recovers. Returns the number
    /// of files written; entries stay pooled and untouched.
    pub fn flush_to_disk(&self) -> usize {
        let slots: Vec<TraceSlot> = lock_ignore_poison(&self.slots)
            .values()
            .map(Arc::clone)
            .collect();
        let mut written = 0usize;
        for slot in &slots {
            let guard = lock_ignore_poison(slot);
            let Some(e) = guard.as_ref() else { continue };
            let Some(disk) = &e.disk else { continue };
            if disk.path.exists() {
                continue;
            }
            let ok = disk
                .path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| e.trace.write_file(&disk.path, disk.content_hash));
            written += usize::from(ok.is_ok());
        }
        written
    }

    /// Entries evicted outright under budget pressure.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// High-water mark of pooled bytes, sampled after each insert's
    /// budget enforcement. At most the budget whenever the budget
    /// admits at least the single most recent trace.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }
}

/// The engine-wide simulation context: one process-wide trace pool —
/// and, optionally, its on-disk extension — threaded through every
/// sweep of a `figures` run.
///
/// PR 4 scoped one [`TraceCache`] per sweep, so Figures 6, 7 and 8 —
/// which run the *identical* `(workload, seed, PBS)` cell grid — each
/// re-captured every key. An `EngineContext` hoists the cache to the
/// whole run: the first sweep to reach a key captures (or loads) its
/// trace, every later sweep replays the `Arc`-shared copy, and the
/// context counts what actually happened ([`captures`]
/// (EngineContext::captures), [`disk_loads`](EngineContext::disk_loads))
/// so a run can show each emulation key was emulated **exactly once**.
///
/// With a trace directory ([`EngineContext::with_trace_dir`]) the pool
/// extends across *processes*: [`get_or_capture`]
/// (EngineContext::get_or_capture) first tries
/// [`DynTrace::load_file`] under the key's caller-supplied content
/// hash, and persists fresh captures with
/// [`DynTrace::write_file_attempt`]. Every failure falls back to
/// capture — persistence can save a re-emulation, never change a
/// result — but the store *self-heals* along the way instead of
/// silently looping: transient I/O errors retry with capped backoff, a
/// stale file (intact, wrong format version or key) is counted
/// ([`stale_rejected`](EngineContext::stale_rejected)) and
/// overwritten, a corrupt file is **quarantined** — atomically renamed
/// to `*.quarantined`, counted, never re-read — and a fatal storage
/// error (ENOSPC, read-only directory) disables persistence for the
/// remainder of the run with a single warning. Under
/// [`with_robustness`](EngineContext::with_robustness)'s strict mode
/// each of those degradations raises a [`StrictViolation`] instead.
/// Opening a persistent context also sweeps orphaned writer temp files
/// from the directory ([`sweep_stale_temps`]), so crashed earlier runs
/// cannot leak disk forever.
///
/// With a pool memory budget ([`EngineContext::with_options`]) the
/// in-memory half is bounded: cold traces are demoted to their mmap-
/// backed persisted form (when a trace directory is configured) or
/// evicted outright — see [`TraceCache`]. An evicted key's next use
/// re-serves it from disk, or re-captures when there is no directory;
/// either way the results are byte-identical to an unbounded run.
#[derive(Debug)]
pub struct EngineContext<K> {
    cache: TraceCache<K>,
    trace_dir: Option<std::path::PathBuf>,
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
    /// Set while the persistence circuit breaker is open: a fatal
    /// storage error (ENOSPC, read-only dir) tripped it. Without a
    /// cooldown ([`set_persist_cooldown`]
    /// (EngineContext::set_persist_cooldown)) it stays open for the
    /// rest of the run; with one, a half-open probe retries after the
    /// cooldown and success closes the breaker again.
    persist_disabled: AtomicBool,
    /// When the breaker last tripped (half-open timing).
    breaker_tripped_at: Mutex<Option<std::time::Instant>>,
    /// Half-open cooldown in milliseconds; 0 = breaker never retries
    /// (the per-run shutdown semantics batch runs keep).
    persist_cooldown_ms: std::sync::atomic::AtomicU64,
    /// Times the breaker tripped (first trip + every failed probe).
    breaker_trips: AtomicUsize,
    /// `--strict-traces`: every degradation path becomes a hard
    /// [`StrictViolation`] instead of a heal-and-continue.
    strict: bool,
    temp_sweeps: usize,
    quarantine_sweeps: usize,
}

impl<K: Eq + Hash> Default for EngineContext<K> {
    fn default() -> EngineContext<K> {
        EngineContext::new()
    }
}

impl<K: Eq + Hash> EngineContext<K> {
    /// A context with an empty in-memory pool and no disk persistence.
    pub fn new() -> EngineContext<K> {
        EngineContext::with_options(None, None)
    }

    /// A context whose pool is backed by trace files under `dir`
    /// (created on first write if missing).
    pub fn with_trace_dir(dir: impl Into<std::path::PathBuf>) -> EngineContext<K> {
        EngineContext::with_options(Some(dir.into()), None)
    }

    /// The fully general constructor: an optional trace directory and
    /// an optional pool memory budget in bytes. Opening with a
    /// directory sweeps its stale writer temp files first.
    pub fn with_options(
        trace_dir: Option<std::path::PathBuf>,
        mem_budget: Option<usize>,
    ) -> EngineContext<K> {
        EngineContext::with_robustness(trace_dir, mem_budget, false)
    }

    /// [`with_options`](EngineContext::with_options) plus the
    /// robustness policy: with `strict` set, every self-healing path
    /// (stale rejection, quarantine, persistence shutdown) raises a
    /// [`StrictViolation`] instead of degrading gracefully.
    pub fn with_robustness(
        trace_dir: Option<std::path::PathBuf>,
        mem_budget: Option<usize>,
        strict: bool,
    ) -> EngineContext<K> {
        let temp_sweeps = trace_dir.as_deref().map_or(0, sweep_stale_temps);
        let quarantine_sweeps = trace_dir.as_deref().map_or(0, sweep_old_quarantined);
        EngineContext {
            cache: TraceCache::with_budget(mem_budget),
            trace_dir,
            captures: AtomicUsize::new(0),
            disk_loads: AtomicUsize::new(0),
            stale_rejected: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            io_retries: AtomicUsize::new(0),
            write_failures: AtomicUsize::new(0),
            persist_disabled: AtomicBool::new(false),
            breaker_tripped_at: Mutex::new(None),
            persist_cooldown_ms: std::sync::atomic::AtomicU64::new(0),
            breaker_trips: AtomicUsize::new(0),
            strict,
            temp_sweeps,
            quarantine_sweeps,
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

    /// The trace file path for a content hash under `dir`.
    fn trace_path(dir: &std::path::Path, content_hash: u64) -> std::path::PathBuf {
        dir.join(format!("trace-{content_hash:016x}.bin"))
    }

    /// The trace for `key`, loading it from the trace directory (when
    /// configured and valid) or capturing it with `capture` on first
    /// use. `content_hash` must identify everything that shapes the
    /// captured stream (see
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
        config: &probranch_pipeline::SimConfig,
        capture: impl FnOnce() -> Result<DynTrace, E>,
    ) -> Result<Arc<DynTrace>, E> {
        // With a trace directory the pooled entry carries its disk
        // identity, making it demotable under a memory budget.
        let disk = self.trace_dir.as_ref().map(|dir| {
            TraceDiskInfo::new(
                Self::trace_path(dir, content_hash),
                content_hash,
                config.clone(),
            )
        });
        self.cache.get_or_capture_with(key, disk, || {
            self.load_or_capture_unpooled(content_hash, config, capture)
        })
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
        config: &probranch_pipeline::SimConfig,
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
    fn healing_load(
        &self,
        dir: &std::path::Path,
        content_hash: u64,
        config: &probranch_pipeline::SimConfig,
    ) -> Option<DynTrace> {
        let path = Self::trace_path(dir, content_hash);
        let mut attempt = 0u64;
        loop {
            match DynTrace::load_file(&path, content_hash, config, attempt) {
                TraceLoad::Loaded(trace) => return Some(trace),
                TraceLoad::Missing => return None,
                TraceLoad::Stale => {
                    self.stale_rejected.fetch_add(1, Ordering::Relaxed);
                    if self.strict {
                        std::panic::panic_any(StrictViolation(format!(
                            "stale persisted trace {content_hash:016x} would be re-captured"
                        )));
                    }
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
                        if self.strict {
                            std::panic::panic_any(StrictViolation(format!(
                                "persisted trace {content_hash:016x} unreadable after {} attempts: {e}",
                                attempt + 1
                            )));
                        }
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
    /// pays for the same corrupt file twice. In strict mode the file
    /// is left in place and the run fails instead.
    fn quarantine(&self, path: &std::path::Path, content_hash: u64) {
        if self.strict {
            std::panic::panic_any(StrictViolation(format!(
                "corrupt persisted trace {content_hash:016x} at {}",
                path.display()
            )));
        }
        let mut dest = path.as_os_str().to_owned();
        dest.push(".quarantined");
        match std::fs::rename(path, std::path::Path::new(&dest)) {
            Ok(()) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: quarantined corrupt trace {content_hash:016x} (kept as {})",
                    std::path::Path::new(&dest).display()
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
    fn persist_trace(&self, dir: &std::path::Path, trace: &DynTrace, content_hash: u64) {
        let mut half_open_probe = false;
        if self.persist_disabled.load(Ordering::Acquire) {
            if !self.breaker_half_open() {
                return;
            }
            half_open_probe = true;
        }
        let path = Self::trace_path(dir, content_hash);
        for attempt in 0..=Self::IO_RETRIES {
            let write = std::fs::create_dir_all(dir)
                .and_then(|()| trace.write_file_attempt(&path, content_hash, attempt));
            let e = match write {
                Ok(()) => {
                    if half_open_probe {
                        self.close_breaker();
                    }
                    return;
                }
                Err(e) => e,
            };
            if Self::fatal_storage_error(&e) {
                if self.strict {
                    std::panic::panic_any(StrictViolation(format!(
                        "persistence disabled by fatal storage error: {e}"
                    )));
                }
                self.trip_breaker(&e);
                return;
            }
            if attempt == Self::IO_RETRIES {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
                if self.strict {
                    std::panic::panic_any(StrictViolation(format!(
                        "could not persist trace {content_hash:016x} after {} attempts: {e}",
                        attempt + 1
                    )));
                }
                eprintln!("warning: could not persist trace {content_hash:016x}: {e}");
                if half_open_probe {
                    // A failed probe re-opens the breaker and restarts
                    // its clock — no probe storm against a sick disk.
                    self.trip_breaker(&e);
                }
                return;
            }
            self.io_retries.fetch_add(1, Ordering::Relaxed);
            Self::backoff(attempt);
        }
    }

    /// Opens (or re-opens) the persistence breaker, restarting the
    /// half-open clock; warns on the initial trip only.
    fn trip_breaker(&self, e: &std::io::Error) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        *lock_ignore_poison(&self.breaker_tripped_at) = Some(std::time::Instant::now());
        if !self.persist_disabled.swap(true, Ordering::AcqRel) {
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
    }

    /// Whether an open breaker should admit a half-open probe now.
    /// Claims the probe by resetting the trip time, so concurrent
    /// persists don't all probe at once.
    fn breaker_half_open(&self) -> bool {
        let cooldown = self.persist_cooldown_ms.load(Ordering::Relaxed);
        if cooldown == 0 {
            return false;
        }
        let mut tripped = lock_ignore_poison(&self.breaker_tripped_at);
        match *tripped {
            Some(t) if t.elapsed() >= std::time::Duration::from_millis(cooldown) => {
                *tripped = Some(std::time::Instant::now());
                true
            }
            _ => false,
        }
    }

    /// Closes the breaker after a successful half-open probe.
    fn close_breaker(&self) {
        if self.persist_disabled.swap(false, Ordering::AcqRel) {
            *lock_ignore_poison(&self.breaker_tripped_at) = None;
            eprintln!("warning: trace persistence breaker closed; store is healthy again");
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
    /// never touches the disk.
    pub fn peek(&self, key: &K) -> Option<Arc<DynTrace>> {
        self.cache.peek(key)
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
        self.cache.len()
    }

    /// Total heap bytes held by the pooled traces.
    pub fn bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Pool hits: gets served from an already-pooled trace.
    pub fn store_hits(&self) -> usize {
        self.cache.hits()
    }

    /// Pooled traces demoted to their mmap-backed persisted form under
    /// the memory budget.
    pub fn demotions(&self) -> usize {
        self.cache.demotions()
    }

    /// Pooled traces evicted outright under the memory budget.
    pub fn evictions(&self) -> usize {
        self.cache.evictions()
    }

    /// High-water mark of pooled bytes (see
    /// [`TraceCache::peak_bytes`]).
    pub fn peak_bytes(&self) -> usize {
        self.cache.peak_bytes()
    }

    /// Stale writer temp files reaped when the context opened its
    /// trace directory.
    pub fn temp_sweeps(&self) -> usize {
        self.temp_sweeps
    }

    /// Expired quarantined traces reaped when the context opened its
    /// trace directory (see
    /// [`sweep_old_quarantined`](probranch_pipeline::sweep_old_quarantined)).
    pub fn quarantine_sweeps(&self) -> usize {
        self.quarantine_sweeps
    }

    /// Times the persistence breaker tripped (first fatal storage
    /// error plus every failed half-open probe).
    pub fn breaker_trips(&self) -> usize {
        self.breaker_trips.load(Ordering::Relaxed)
    }

    /// Writes every pooled trace that has a disk identity but no file
    /// yet (see [`TraceCache::flush_to_disk`]) — the drain step before
    /// a service exits. A no-op while the breaker is open. Returns the
    /// number of files written.
    pub fn flush_to_disk(&self) -> usize {
        if self.persist_disabled.load(Ordering::Acquire) {
            return 0;
        }
        self.cache.flush_to_disk()
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
        self.persist_disabled.load(Ordering::Acquire)
    }

    /// Whether this context runs under `--strict-traces`.
    pub fn strict(&self) -> bool {
        self.strict
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

        let cache: TraceCache<(B, u64, bool)> = TraceCache::new();
        let program = B::Pi.build(Scale::Smoke, workload_seed(B::Pi, 0)).program();
        // Eight cells over two keys, claimed by four workers sharing the
        // cache; every cell replays the same Arc-shared trace.
        let cells: Vec<u64> = (0..8).collect();
        let reports = run_cells(&cells, Jobs::new(4), |&c| {
            let key = (B::Pi, c % 2, false);
            let trace = cache
                .get_or_capture(key, || DynTrace::capture(&program, &SimConfig::default()))
                .expect("capture");
            Simulation::default()
                .replay(&trace, &SimConfig::default())
                .expect("replay")
        });
        assert!(cache.len() <= 2 && !cache.is_empty());
        assert!(cache.bytes() > 0);
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
        use probranch_faults as faults;
        use probranch_pipeline::{DynTrace, SimConfig, Simulation};
        use probranch_workloads::{BenchmarkId as B, Scale};

        // Fault plans are process-wide: hold the fault lock, disarmed, so
        // a sibling test's persistence faults never reach these writes.
        let _quiesce = faults::ScopedPlan::install(faults::FaultPlan::default());
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
        use probranch_faults as faults;
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
        let _scope = faults::ScopedPlan::install(
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
        faults::install(faults::FaultPlan::default());
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
            EngineContext::with_options(None, Some(budget));
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
    fn bounded_pool_with_trace_dir_demotes_to_mapped_form() {
        use probranch_faults as faults;
        use probranch_pipeline::{DynTrace, SimConfig, Simulation};
        use probranch_workloads::{BenchmarkId as B, Scale};

        // Demotion persists traces: hold the fault lock, disarmed (see
        // `engine_context_trace_dir_round_trips_and_survives_corruption`).
        let _quiesce = faults::ScopedPlan::install(faults::FaultPlan::default());
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
            EngineContext::with_options(Some(dir.clone()), Some(budget));
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
        // Demoted keys stay pooled, re-served through the file map with
        // their owned record streams dropped.
        let mapped_keys = seeds
            .iter()
            .filter_map(|&s| bounded.peek(&(B::Pi, s, false)))
            .filter(|t| t.mapped_chunks() == t.chunk_count() && t.chunk_count() > 0)
            .count();
        assert!(mapped_keys > 0, "at least one key must be serving mapped");
        std::fs::remove_dir_all(&dir).ok();
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
