//! On-disk persistence for captured [`DynTrace`]s.
//!
//! A persisted trace lets repeated `figures` invocations (and CI) skip
//! functional emulation entirely: the SoA chunk streams, the per-pc
//! timing metadata and the architectural results are written once per
//! emulation key and re-loaded byte-identically. Files are keyed and
//! validated by a caller-supplied **content hash** of everything that
//! shapes the captured stream — workload identity, seed derivation,
//! PBS/emulator configuration, ISA version (see
//! [`SimConfig::emu_key_fingerprint`]) — plus a whole-file digest, a
//! format magic and a format version. *Any* validation failure —
//! missing file, truncation, bit rot, a stale format or a stale content
//! hash — makes [`DynTrace::read_file`] return `None`, and the caller
//! falls back to a fresh capture: a bad file can cost a re-emulation,
//! never a wrong result.
//!
//! The format is a flat little-endian byte stream (no external
//! dependencies), written atomically via a temp file + rename (then a
//! best-effort parent-directory fsync, so the *publication* survives a
//! crash, not just the data) — a crashed or concurrent writer can never
//! leave a half-written file under the final name. Writers that die
//! between temp-file creation and the rename do leave orphaned
//! `*.tmp.<pid>.<n>` files; [`sweep_stale_temps`] reaps those when the
//! trace store opens.
//!
//! # Format v5 and loads
//!
//! Beside the timing table, a file stores the program's flow table:
//! each pc's control-op kind and static target. A chunk is stored as
//! its record, branch, load and stall counts, its entry state (the pc
//! of its first record and the return stack under it), then its branch
//! bytes, load latencies, stall record indices and stall cycles: 1 byte
//! per control record, 1 per load and 5 per fetch stall, and no pc and
//! nothing per record (README "File format (v5)" has the whole layout
//! and why). [`DynTrace::load_file`] is the one reader: it reads the
//! whole file into memory and decodes every stream into owned buffers,
//! so a loaded trace shares nothing with the file and a file changed
//! or truncated after the load cannot affect it. Validation is a
//! single pass: the whole-file digest, then what the chunk walk relies
//! on — every flow-table target lies inside the table; a chunk holds at
//! most [`TRACE_CHUNK_RECORDS`] records; it enters where the previous
//! chunk's records end (the first at pc 0 with an empty return stack);
//! and the run derivation the walk runs ([`FlowTable::derive`])
//! succeeds on it under the configuration's call depth: its runs tile
//! the record count inside the table, every branch byte fits the
//! control op it lands on, and no `ret` finds the stack empty. The load
//! count is then the number of load pcs the derived runs cover, and the
//! stalls sit at strictly increasing record indices below the record
//! count with nonzero cycles. A count read from the file never reserves
//! more memory than the bytes left could hold.

use std::io::Write;
use std::path::Path;

use probranch_core::PbsStats;
use probranch_faults as faults;
use probranch_rng::SplitMix64;

use crate::decode::InstTiming;
use crate::sim::SimConfig;
use crate::trace::{
    DynTrace, FlowKind, FlowState, FlowTable, RunVisitor, TraceChunk, TraceFunctional,
    TRACE_CHUNK_RECORDS,
};

/// File magic: identifies a probranch trace file.
const MAGIC: &[u8; 8] = b"PBTRACE\0";

/// Version of the on-disk layout. Bump on any layout change; readers
/// reject other versions (falling back to capture). v2 was v1's byte
/// layout, re-versioned when the memory-mapped reader landed; v3 stores
/// run start pcs in place of a pc per record; v4 drops the two latency
/// bytes per record for one latency per load and a sparse list of
/// fetch stalls; v5 drops the run starts and lengths for a flow table
/// and each chunk's entry state.
pub const TRACE_FILE_VERSION: u32 = 5;

/// A chunk's fixed header: its record, branch, load and stall counts
/// (u64 each), its entry pc (u32) and its return-stack depth (u64) —
/// all an empty chunk entered with an empty stack encodes.
const CHUNK_HEADER_BYTES: usize = 8 + 8 + 8 + 8 + 4 + 8;

/// A pc's encoded timing entry (4 use slots, use count, 2 def slots,
/// def count, latency class) and flow entry (kind, target).
const PC_BYTES: usize = 9 + 5;

/// Word-folding digest over a byte stream (SplitMix64-mixed FNV-style
/// accumulation): not cryptographic, but any truncation or flipped bit
/// changes it with overwhelming probability.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = SplitMix64::mix(h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    // The zero-padded tail word folds in unconditionally, even when the
    // length is a word multiple.
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    SplitMix64::mix(h ^ u64::from_le_bytes(tail))
}

// ---- writer ---------------------------------------------------------------

/// A little-endian encoder into the one buffer a trace file is written
/// from.
struct Enc(Vec<u8>);

impl Enc {
    fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn u32s(&mut self, v: &[u32]) {
        for &x in v {
            self.u32(x);
        }
    }
    fn u64s(&mut self, v: &[u64]) {
        for &x in v {
            self.u64(x);
        }
    }
}

// ---- reader ---------------------------------------------------------------

/// A bounds-checked cursor over the file bytes; every accessor returns
/// `None` past the end, which bubbles up as "fall back to capture".
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    /// A count field that must also be plausible for the remaining
    /// bytes, taking `min_elem_bytes` as each element's *minimum*
    /// encoded size — for variable-size elements (output ports, chunks)
    /// pass the smallest legal encoding, never 1, so a corrupt count
    /// cannot pre-allocate more entries than the file could possibly
    /// hold before the digest check would catch it.
    fn len(&mut self, min_elem_bytes: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        if n.checked_mul(min_elem_bytes.max(1))? > self.left() {
            return None;
        }
        Some(n)
    }
    /// Bytes not yet read.
    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// An empty vector for `n` elements counted by [`Dec::len`],
    /// reserving room for no more of them than the bytes left could
    /// hold at `T`'s in-memory size. A count is bounded by its elements'
    /// *encoded* size, which can be far smaller than their size in
    /// memory (a chunk's header against a [`TraceChunk`], an output
    /// port's against its vector), so a crafted count must not reserve
    /// more than the file's own length; pushes past the reservation grow
    /// the vector as usual.
    fn vec_for<T>(&self, n: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.left() / std::mem::size_of::<T>().max(1)))
    }
    fn u64s(&mut self, n: usize) -> Option<Vec<u64>> {
        let raw = self.take(n.checked_mul(8)?)?;
        Some(
            raw.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect(),
        )
    }
    /// A chunk's u32 stream of `n` little-endian values.
    fn u32_stream(&mut self, n: usize) -> Option<Vec<u32>> {
        let raw = self.take(n.checked_mul(4)?)?;
        Some(
            raw.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect(),
        )
    }
}

impl DynTrace {
    /// The file's bytes: the serialized trace, then the digest of
    /// everything before it.
    fn encode(&self, content_hash: u64) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        e.bytes(MAGIC);
        e.u32(TRACE_FILE_VERSION);
        e.u64(content_hash);
        e.u64(self.functional.instructions);
        e.u64(self.timings.len() as u64);
        for t in self.timings.iter() {
            e.bytes(&t.uses);
            e.u8(t.n_uses);
            e.bytes(&t.defs);
            e.u8(t.n_defs);
            e.u8(t.class);
        }
        for (kind, target) in self.flow.ops() {
            e.u8(kind.code());
            e.u32(target);
        }
        e.u64(self.functional.outputs.len() as u64);
        for (port, values) in &self.functional.outputs {
            e.u16(*port);
            e.u64(values.len() as u64);
            e.u64s(values);
        }
        e.u64(self.functional.prob_consumed.len() as u64);
        e.u64s(&self.functional.prob_consumed);
        match &self.functional.pbs {
            None => e.u8(0),
            Some(s) => {
                e.u8(1);
                e.u64s(&[
                    s.directed,
                    s.bootstrap,
                    s.bypassed,
                    s.allocations,
                    s.const_val_demotions,
                    s.evictions,
                    s.context_flushes,
                ]);
            }
        }
        e.u64(self.chunks.len() as u64);
        for c in &self.chunks {
            e.u64(c.len() as u64);
            e.u64(c.branch_count() as u64);
            e.u64(c.dlats.len() as u64);
            e.u64(c.stalls.len() as u64);
            e.u32(c.entry_pc);
            e.u64(c.entry_stack.len() as u64);
            e.u32s(&c.entry_stack);
            e.bytes(&c.branches);
            e.bytes(&c.dlats);
            e.u32s(&c.stall_at);
            e.bytes(&c.stalls);
        }
        let d = digest(&e.0);
        e.u64(d);
        e.0
    }

    /// Writes the trace to `path` atomically (temp file + rename), so a
    /// crash or a concurrent writer can never leave a torn file under
    /// the final name. After a successful rename the parent directory
    /// is fsynced (best-effort) so the publication itself — not just
    /// the file's data — survives a crash; without it a power loss
    /// shortly after return could silently roll the directory back to
    /// "no trace", costing a re-capture on the next cold start.
    ///
    /// The trace is encoded into one buffer, digest included, and
    /// written with one `write_all`, as the reader reads a file whole.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating, writing or renaming the temp file.
    pub fn write_file(&self, path: &Path, content_hash: u64) -> std::io::Result<()> {
        self.write_file_attempt(path, content_hash, 0)
    }

    /// [`write_file`](DynTrace::write_file) with an explicit retry
    /// ordinal, folded into every failpoint salt so a retrying store
    /// re-rolls its fault schedule per attempt — under an injected
    /// transient-error plan the first attempt can fail while the retry
    /// deterministically succeeds, reproducibly across runs.
    ///
    /// # Errors
    ///
    /// As [`write_file`](DynTrace::write_file); additionally any
    /// injected fault on the `persist.*` sites of the installed
    /// [fault plan](probranch_faults::FaultPlan). A failed attempt
    /// never leaves a file under the final name, and best-effort
    /// removes its temp.
    pub fn write_file_attempt(
        &self,
        path: &Path,
        content_hash: u64,
        attempt: u64,
    ) -> std::io::Result<()> {
        let salt = [content_hash, attempt];
        if faults::injected(faults::Site::PersistEnospc, &salt) {
            return Err(faults::io_error(faults::Site::PersistEnospc));
        }
        if faults::injected(faults::Site::PersistWrite, &salt) {
            return Err(faults::io_error(faults::Site::PersistWrite));
        }
        // The temp name must be unique per *writer*, not just per
        // process: concurrent same-process writers of one key would
        // otherwise share a temp file and could publish a torn (digest-
        // failing) trace.
        static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let buf = self.encode(content_hash);
        // The short-write failpoint dies halfway through the buffer,
        // leaving a torn temp — which must never publish.
        let short = faults::injected(faults::Site::PersistShort, &salt);
        let write_body = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            if short {
                f.write_all(&buf[..buf.len() / 2])?;
                return Err(faults::io_error(faults::Site::PersistShort));
            }
            f.write_all(&buf)?;
            if faults::injected(faults::Site::PersistFsync, &salt) {
                return Err(faults::io_error(faults::Site::PersistFsync));
            }
            f.sync_all()
        };
        if let Err(e) = write_body() {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        if faults::injected(faults::Site::PersistRename, &salt) {
            let _ = std::fs::remove_file(&tmp);
            return Err(faults::io_error(faults::Site::PersistRename));
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // Durability of the *rename*: sync the directory entry.
        // Best-effort — some filesystems reject directory fsync, and a
        // failure here only risks a re-capture after a crash, never a
        // wrong result.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    /// Loads a trace previously persisted with
    /// [`write_file`](DynTrace::write_file), returning `None` — never a
    /// wrong trace — unless the file exists, parses, carries the
    /// expected format version *and* `content_hash`, passes the
    /// whole-file digest, and is structurally consistent. `config`
    /// supplies the emulation key the returned trace replays under (the
    /// content hash asserts it matches what was captured).
    pub fn read_file(path: &Path, content_hash: u64, config: &SimConfig) -> Option<DynTrace> {
        match Self::load_file(path, content_hash, config, 0) {
            TraceLoad::Loaded(t) => Some(*t),
            _ => None,
        }
    }

    /// [`read_file`](DynTrace::read_file) with the failure *classified*
    /// — the self-healing store's entry point. The distinctions drive
    /// different recoveries: [`TraceLoad::Io`] is worth retrying,
    /// [`TraceLoad::Stale`] is a valid file for another format/key
    /// (overwrite it), [`TraceLoad::Corrupt`] failed the digest or
    /// structural validation and should be quarantined so it is never
    /// read again, and [`TraceLoad::Missing`] is an ordinary cold
    /// start. `attempt` is the caller's retry ordinal, folded into the
    /// salt of the `trace.load` failpoint (which fails the file read), so
    /// injected transient errors re-roll per attempt.
    ///
    /// The file is read whole into memory and validated in one pass; the
    /// returned trace owns every stream it decoded.
    pub fn load_file(
        path: &Path,
        content_hash: u64,
        config: &SimConfig,
        attempt: u64,
    ) -> TraceLoad {
        if faults::injected(faults::Site::TraceLoad, &[content_hash, attempt]) {
            return TraceLoad::Io(faults::io_error(faults::Site::TraceLoad));
        }
        match std::fs::read(path) {
            Ok(bytes) => Self::classify(&bytes, content_hash, config),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => TraceLoad::Missing,
            Err(e) => TraceLoad::Io(e),
        }
    }

    /// Decodes a file's `bytes`, keeping the rejection reason: a file
    /// whose digest *passes* but whose format version or content hash
    /// mismatches is [`TraceLoad::Stale`] — intact, just written for
    /// another format or emulation key; anything that fails the digest,
    /// the magic, or structural validation is [`TraceLoad::Corrupt`].
    /// The order matters: the digest runs first, so a bit flip *inside*
    /// the version or hash fields still classifies as corruption, never
    /// as staleness.
    fn classify(bytes: &[u8], content_hash: u64, config: &SimConfig) -> TraceLoad {
        let Some(trailer_at) = bytes.len().checked_sub(8) else {
            return TraceLoad::Corrupt;
        };
        if trailer_at < MAGIC.len() {
            return TraceLoad::Corrupt;
        }
        let (body, tail) = bytes.split_at(trailer_at);
        let tail: [u8; 8] = tail.try_into().expect("8-byte trailer");
        if u64::from_le_bytes(tail) != digest(body) {
            return TraceLoad::Corrupt;
        }
        let mut d = Dec { buf: body, pos: 0 };
        match d.take(MAGIC.len()) {
            Some(magic) if magic == MAGIC => {}
            _ => return TraceLoad::Corrupt,
        }
        match (d.u32(), d.u64()) {
            (Some(version), Some(hash)) => {
                if version != TRACE_FILE_VERSION || hash != content_hash {
                    return TraceLoad::Stale;
                }
            }
            _ => return TraceLoad::Corrupt,
        }
        match Self::decode_body(&mut d, config) {
            Some(trace) => TraceLoad::Loaded(Box::new(trace)),
            None => TraceLoad::Corrupt,
        }
    }

    /// The post-header decode: everything after magic/version/hash.
    fn decode_body(d: &mut Dec<'_>, config: &SimConfig) -> Option<DynTrace> {
        let body = d.buf;
        let instructions = d.u64()?;
        let n_timings = d.len(PC_BYTES)?;
        let mut timings = d.vec_for(n_timings);
        for _ in 0..n_timings {
            let raw = d.take(9)?;
            timings.push(InstTiming {
                uses: raw[..4].try_into().expect("4 use slots"),
                n_uses: raw[4],
                defs: raw[5..7].try_into().expect("2 def slots"),
                n_defs: raw[7],
                class: raw[8],
            });
        }
        let mut flow = d.vec_for(n_timings);
        for _ in 0..n_timings {
            flow.push((FlowKind::from_code(d.u8()?)?, d.u32()?));
        }
        let flow = FlowTable::from_ops(&flow)?;
        let n_ports = d.len(10)?;
        let mut outputs = d.vec_for(n_ports);
        for _ in 0..n_ports {
            let port = d.u16()?;
            let n = d.len(8)?;
            outputs.push((port, d.u64s(n)?));
        }
        let n_prob = d.len(8)?;
        let prob_consumed = d.u64s(n_prob)?;
        let pbs = match d.u8()? {
            0 => None,
            1 => {
                let v = d.u64s(7)?;
                Some(PbsStats {
                    directed: v[0],
                    bootstrap: v[1],
                    bypassed: v[2],
                    allocations: v[3],
                    const_val_demotions: v[4],
                    evictions: v[5],
                    context_flushes: v[6],
                })
            }
            _ => return None,
        };
        // The load pcs below each pc, for the load-count check: the
        // loads a span covers are a difference of two entries.
        let loads_below: Vec<u64> = std::iter::once(0)
            .chain(timings.iter().scan(0, |n, t: &InstTiming| {
                *n += u64::from(t.is_load());
                Some(*n)
            }))
            .collect();
        let max_depth = config.emu.max_call_depth;
        let n_chunks = d.len(CHUNK_HEADER_BYTES)?;
        let mut chunks = d.vec_for(n_chunks);
        let mut total = 0u64;
        // Where the previous chunk's records end: the program's start
        // before the first chunk.
        let mut exit = FlowState::default();
        for _ in 0..n_chunks {
            // A record costs no file bytes, so the bytes left cannot
            // bound the record count: no writer exceeds the chunk size.
            let len = u32::try_from(d.u64()?)
                .ok()
                .filter(|&n| n as usize <= TRACE_CHUNK_RECORDS)?;
            // Each branch costs its byte, each load its latency, each
            // stall its index and cycles, each return address 4 bytes.
            let n_branches = d.len(1)?;
            let n_loads = d.len(1)?;
            let n_stalls = d.len(5)?;
            let entry_pc = d.u32()?;
            let depth = d.len(4)?;
            let chunk = TraceChunk {
                len,
                entry_pc,
                entry_stack: d.u32_stream(depth)?,
                branches: d.take(n_branches)?.to_vec(),
                dlats: d.take(n_loads)?.to_vec(),
                stall_at: d.u32_stream(n_stalls)?,
                stalls: d.take(n_stalls)?.to_vec(),
            };
            // Structural consistency, the invariants the chunk walk
            // relies on: the chunk enters where the previous one ended;
            // its records derive from the flow table (their runs tile
            // the record count inside the table, every branch byte fits
            // its op, the return stack never underflows or outgrows the
            // call depth); the runs cover exactly one load pc per load
            // latency; and the stalls sit at strictly increasing record
            // indices below the record count, with nonzero cycles.
            if !chunk.enters_at(&exit) {
                return None;
            }
            let mut loads = LoadCount {
                loads_below: &loads_below,
                timings: &timings,
                loads: 0,
            };
            exit = flow.derive(&chunk, max_depth, &mut loads)?;
            let mut next_stall = 0u64;
            let stalls_ordered = chunk.stall_at.iter().all(|&at| {
                let after = u64::from(at) >= next_stall;
                next_stall = u64::from(at) + 1;
                after
            }) && next_stall <= u64::from(len);
            let stalls_nonzero = chunk.stalls.iter().all(|&c| c != 0);
            if loads.loads != n_loads as u64 || !stalls_ordered || !stalls_nonzero {
                return None;
            }
            total += u64::from(len);
            chunks.push(chunk);
        }
        if d.pos != body.len() || total != instructions {
            return None;
        }
        Some(DynTrace {
            timings: timings.into_boxed_slice(),
            flow,
            chunks,
            functional: TraceFunctional {
                instructions,
                outputs,
                prob_consumed,
                pbs,
            },
            pbs: config.pbs.clone(),
            emu: config.emu.clone(),
        })
    }
}

/// The loader's run visitor: counts the load pcs a chunk's derived
/// records cover, which must equal its load latencies.
struct LoadCount<'a> {
    /// The load pcs below each pc, and below the table's end.
    loads_below: &'a [u64],
    timings: &'a [InstTiming],
    loads: u64,
}

impl RunVisitor for LoadCount<'_> {
    fn span(&mut self, pc: u32, n: u32) {
        let (start, end) = (pc as usize, pc as usize + n as usize);
        self.loads += self.loads_below[end] - self.loads_below[start];
    }

    fn branch(&mut self, pc: u32, _: u8) {
        self.loads += u64::from(self.timings[pc as usize].is_load());
    }
}

/// The classified outcome of loading a persisted trace — see
/// [`DynTrace::load_file`]. Each variant maps to a different recovery
/// in the self-healing store.
#[derive(Debug)]
pub enum TraceLoad {
    /// The file validated end to end; here is the trace.
    Loaded(Box<DynTrace>),
    /// No file under that path — an ordinary cold start; capture.
    Missing,
    /// The file is intact (digest passes) but was written for another
    /// format version or emulation key. Overwriting it is safe; the
    /// store counts these as `stale_rejected` re-captures.
    Stale,
    /// The file fails the digest, magic or structural validation —
    /// truncation, bit rot, a torn write. Retrying cannot help and
    /// overwriting hides the evidence: the store quarantines it.
    Corrupt,
    /// Reading the file failed for a reason other than absence —
    /// possibly transient; worth a bounded retry.
    Io(std::io::Error),
}

/// Reaps orphaned `*.tmp.<pid>.<n>` files in a trace directory —
/// leftovers of writers killed between temp-file creation and the
/// publishing rename, which nothing would otherwise ever delete.
/// Returns the number of files removed.
///
/// A temp file is *stale* when its embedded writer pid is not this
/// process (our own in-flight writers are never touched) and its
/// writer can no longer publish it. On Linux that is probed directly:
/// the pid no longer exists (`/proc/<pid>`). Other platforms have no
/// portable liveness probe, so a foreign temp is reaped only once it
/// is older than [`STALE_TEMP_AGE`] — a recent temp may belong to a
/// live writer mid-encode, and deleting it out from under them would
/// turn their publish into a spurious failure. (A dead writer's orphan
/// then lingers up to the age threshold, which costs bytes, not
/// correctness.) Published `trace-*.bin` files are never candidates.
pub fn sweep_stale_temps(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut reaped = 0usize;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(temp_writer_pid) else {
            continue;
        };
        if pid == std::process::id() || temp_in_use(&entry, pid) {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            reaped += 1;
        }
    }
    reaped
}

/// Quarantined corrupt traces older than this are reaped on store
/// open — long enough to diagnose a corruption incident, short enough
/// that the evidence never accumulates forever.
pub const QUARANTINE_MAX_AGE: std::time::Duration =
    std::time::Duration::from_secs(7 * 24 * 60 * 60);

/// At most this many quarantined files survive a sweep regardless of
/// age (the newest are kept): a pathologically flapping store cannot
/// fill the directory within the age window.
pub const QUARANTINE_KEEP: usize = 16;

/// Reaps old `*.quarantined` files in a trace directory — corrupt
/// traces [`quarantine`d](TraceLoad::Corrupt) aside as evidence, which
/// nothing would otherwise ever delete. Mirrors [`sweep_stale_temps`]:
/// called once on store open, returns the number of files removed.
///
/// A quarantined file is reaped once it is older than
/// [`QUARANTINE_MAX_AGE`]; independent of age, only the
/// [`QUARANTINE_KEEP`] newest files survive. A modification time in
/// the future (clock skew) reads as brand new, never as expired.
pub fn sweep_old_quarantined(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let now = std::time::SystemTime::now();
    let mut reaped = 0usize;
    let mut kept: Vec<(std::time::SystemTime, std::path::PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        if !name.to_str().is_some_and(|n| n.ends_with(".quarantined")) {
            continue;
        }
        // An unreadable mtime is treated as current: kept by age, but
        // still subject to the count bound below.
        let modified = entry.metadata().and_then(|m| m.modified()).unwrap_or(now);
        let expired = now
            .duration_since(modified)
            .is_ok_and(|age| age >= QUARANTINE_MAX_AGE);
        if expired {
            reaped += usize::from(std::fs::remove_file(entry.path()).is_ok());
        } else {
            kept.push((modified, entry.path()));
        }
    }
    if kept.len() > QUARANTINE_KEEP {
        // Oldest first; everything beyond the newest KEEP goes.
        kept.sort_by_key(|&(modified, _)| modified);
        for (_, path) in &kept[..kept.len() - QUARANTINE_KEEP] {
            reaped += usize::from(std::fs::remove_file(path).is_ok());
        }
    }
    reaped
}

/// On platforms without a pid-liveness probe, foreign temps younger
/// than this are presumed to have a live writer and survive the sweep.
#[cfg(any(not(target_os = "linux"), test))]
const STALE_TEMP_AGE: std::time::Duration = std::time::Duration::from_secs(60 * 60);

/// Age-based staleness for foreign temps where liveness cannot be
/// probed: stale once `now - modified >= STALE_TEMP_AGE`. A `modified`
/// in the future (clock skew) reads as in-use, never as stale.
#[cfg(any(not(target_os = "linux"), test))]
fn is_stale_by_age(modified: std::time::SystemTime, now: std::time::SystemTime) -> bool {
    now.duration_since(modified)
        .is_ok_and(|age| age >= STALE_TEMP_AGE)
}

/// Whether a foreign writer's temp may still be published by its
/// owner. Linux probes the writer pid; elsewhere recency stands in for
/// liveness (an undatable temp is conservatively kept).
#[cfg(target_os = "linux")]
fn temp_in_use(_entry: &std::fs::DirEntry, pid: u32) -> bool {
    writer_alive(pid)
}

#[cfg(not(target_os = "linux"))]
fn temp_in_use(entry: &std::fs::DirEntry, _pid: u32) -> bool {
    match entry.metadata().and_then(|m| m.modified()) {
        Ok(modified) => !is_stale_by_age(modified, std::time::SystemTime::now()),
        Err(_) => true,
    }
}

/// The writer pid of a `*.tmp.<pid>.<n>` temp name, `None` for
/// anything else (published traces, unrelated files).
fn temp_writer_pid(name: &str) -> Option<u32> {
    let mut rev = name.rsplit('.');
    let seq = rev.next()?;
    let pid = rev.next()?;
    if rev.next()? != "tmp" {
        return None;
    }
    seq.parse::<u64>().ok()?;
    pid.parse::<u32>().ok()
}

/// Whether the process that owned a temp file still exists
/// (Linux-only: `/proc` is not portable even across unixes).
#[cfg(target_os = "linux")]
fn writer_alive(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{PredictorChoice, Simulation};
    use probranch_isa::{CmpOp, ProgramBuilder, Reg};

    fn workload(iters: i64) -> probranch_isa::Program {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        let join = b.label("join");
        b.li(Reg::R1, 0x243F6A8885A308D3u64 as i64);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 0);
        b.li(Reg::R4, (u64::MAX / 3) as i64);
        b.li(Reg::R6, 0x2545F4914F6CDD1Du64 as i64);
        b.li(Reg::R9, 256);
        b.bind(top);
        b.shr(Reg::R5, Reg::R1, 12).xor(Reg::R1, Reg::R1, Reg::R5);
        b.shl(Reg::R5, Reg::R1, 25).xor(Reg::R1, Reg::R1, Reg::R5);
        b.mul(Reg::R7, Reg::R1, Reg::R6);
        b.st(Reg::R7, Reg::R9, 0).ld(Reg::R8, Reg::R9, 0);
        b.sltu(Reg::R8, Reg::R7, Reg::R4);
        b.prob_cmp(CmpOp::Eq, Reg::R8, 1);
        b.prob_jmp(None, join);
        b.add(Reg::R3, Reg::R3, 1);
        b.bind(join);
        b.add(Reg::R2, Reg::R2, 1);
        b.br(CmpOp::Lt, Reg::R2, iters, top);
        b.out(Reg::R3, 0);
        b.halt();
        b.build().unwrap()
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("probranch-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn quarantine_sweep_is_age_and_count_bounded() {
        let dir = tempdir("quarantine-sweep");
        let seed = |name: &str, age: std::time::Duration| {
            let path = dir.join(name);
            std::fs::write(&path, b"corrupt evidence").unwrap();
            std::fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(std::time::SystemTime::now() - age)
                .unwrap();
            path
        };
        // Two expired files, one fresh one, and one non-quarantine
        // bystander older than the age bound.
        let old_a = seed("trace-aaaa.bin.quarantined", QUARANTINE_MAX_AGE * 2);
        let old_b = seed(
            "trace-bbbb.bin.quarantined",
            QUARANTINE_MAX_AGE + std::time::Duration::from_secs(60),
        );
        let fresh = seed(
            "trace-cccc.bin.quarantined",
            std::time::Duration::from_secs(60),
        );
        let bystander = seed("trace-dddd.bin", QUARANTINE_MAX_AGE * 2);
        assert_eq!(sweep_old_quarantined(&dir), 2);
        assert!(!old_a.exists() && !old_b.exists());
        assert!(fresh.exists(), "recent quarantine files are evidence");
        assert!(bystander.exists(), "published traces are never touched");

        // Count bound: even brand-new files beyond the newest KEEP go.
        for i in 0..(QUARANTINE_KEEP + 5) {
            // Distinct mtimes so "newest" is well defined.
            seed(
                &format!("trace-{i:04x}.bin.quarantined"),
                std::time::Duration::from_secs(120 + i as u64),
            );
        }
        let total = QUARANTINE_KEEP + 5 + 1; // + the fresh survivor above
        assert_eq!(sweep_old_quarantined(&dir), total - QUARANTINE_KEEP);
        let left = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.ends_with(".quarantined"))
            })
            .count();
        assert_eq!(left, QUARANTINE_KEEP);
        assert!(fresh.exists(), "the newest files survive the count bound");
        // An empty/absent directory is a no-op.
        assert_eq!(sweep_old_quarantined(&dir.join("absent")), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_file_round_trips_byte_identically() {
        let cfg = SimConfig::default().with_pbs();
        let trace = DynTrace::capture(&workload(3000), &cfg).unwrap();
        let hash = cfg.emu_key_fingerprint();
        let dir = tempdir("roundtrip");
        let path = dir.join("trace.bin");
        trace.write_file(&path, hash).expect("write");
        let back = DynTrace::read_file(&path, hash, &cfg).expect("load");
        assert_eq!(back, trace, "persisted trace must round-trip exactly");
        // And the replay through the loaded trace is byte-identical.
        let timing_cfg = cfg.clone().predictor(PredictorChoice::Tournament);
        let replay = |t: &DynTrace| Simulation::default().replay(t, &timing_cfg);
        assert_eq!(replay(&back), replay(&trace));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_loaded_trace_outlives_its_file_being_truncated() {
        // A load owns every stream it decoded, so truncating the file in
        // place afterwards leaves the loaded trace replaying exactly like
        // the capture (a reader serving streams from the file's pages
        // would fault on them here).
        let cfg = SimConfig::default().with_pbs();
        let trace = DynTrace::capture(&workload(3000), &cfg).unwrap();
        let hash = cfg.emu_key_fingerprint();
        let dir = tempdir("truncated");
        let path = dir.join("trace.bin");
        trace.write_file(&path, hash).expect("write");
        let loaded = DynTrace::read_file(&path, hash, &cfg).expect("load");
        std::fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(0))
            .expect("truncate in place");
        let timing_cfg = cfg.clone().predictor(PredictorChoice::Tournament);
        let replay = |t: &DynTrace| Simulation::default().replay(t, &timing_cfg);
        assert_eq!(replay(&loaded), replay(&trace));
        assert_eq!(loaded, trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_or_corrupt_files_are_rejected_not_misread() {
        let cfg = SimConfig::default();
        let trace = DynTrace::capture(&workload(500), &cfg).unwrap();
        let hash = cfg.emu_key_fingerprint();
        let dir = tempdir("corrupt");
        let path = dir.join("trace.bin");
        trace.write_file(&path, hash).expect("write");

        // Wrong content hash (a stale file for a different key).
        assert!(DynTrace::read_file(&path, hash ^ 1, &cfg).is_none());
        // Missing file.
        assert!(DynTrace::read_file(&dir.join("absent.bin"), hash, &cfg).is_none());

        let pristine = std::fs::read(&path).unwrap();
        // Truncations at every region boundary-ish size.
        for cut in [0, 7, 16, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(
                DynTrace::read_file(&path, hash, &cfg).is_none(),
                "truncated at {cut}"
            );
        }
        // Single flipped bits across the file (magic, header, streams,
        // digest).
        for pos in [0, 9, 13, 21, pristine.len() / 3, pristine.len() - 3] {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                DynTrace::read_file(&path, hash, &cfg).is_none(),
                "bit flip at {pos}"
            );
        }
        // A different format version (v1 to v4 files in particular:
        // retired when the mapped reader, the run starts, the sparse
        // latencies and the flow table landed).
        let mut bad = pristine.clone();
        bad[8] = bad[8].wrapping_add(1);
        std::fs::write(&path, &bad).unwrap();
        assert!(DynTrace::read_file(&path, hash, &cfg).is_none());
        for old in [1, 2, 3, 4] {
            let mut stale = pristine.clone();
            stale[8] = old;
            std::fs::write(&path, &stale).unwrap();
            assert!(DynTrace::read_file(&path, hash, &cfg).is_none());
        }

        // The pristine bytes still load.
        std::fs::write(&path, &pristine).unwrap();
        assert_eq!(DynTrace::read_file(&path, hash, &cfg).unwrap(), trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_separates_emulation_keys_only() {
        let base = SimConfig::default();
        let pbs = SimConfig::default().with_pbs();
        assert_ne!(base.emu_key_fingerprint(), pbs.emu_key_fingerprint());
        // Timing-side fields must not affect the fingerprint…
        let mut timing_only = base.clone().predictor(PredictorChoice::Tournament);
        timing_only.filter_prob_from_predictor = true;
        timing_only.collect_branch_trace = true;
        assert_eq!(
            base.emu_key_fingerprint(),
            timing_only.emu_key_fingerprint()
        );
        // …while every key field does.
        let mut budget = base.clone();
        budget.max_insts += 1;
        assert_ne!(base.emu_key_fingerprint(), budget.emu_key_fingerprint());
        let mut mem = base.clone();
        mem.emu.mem_words *= 2;
        assert_ne!(base.emu_key_fingerprint(), mem.emu_key_fingerprint());
    }

    #[test]
    fn stale_writer_temps_are_swept_but_live_files_survive() {
        let cfg = SimConfig::default();
        let trace = DynTrace::capture(&workload(200), &cfg).unwrap();
        let hash = cfg.emu_key_fingerprint();
        let dir = tempdir("sweep");
        let live = dir.join("trace-0000000000000abc.bin");
        trace.write_file(&live, hash).expect("write");
        // Orphans from two dead writers (no live process ever gets pid
        // u32::MAX - k: Linux pids are capped far below), plus one from
        // "our own" in-flight writer and one unrelated file.
        let dead_a = dir.join("trace-0000000000000abc.tmp.4294967294.0");
        let dead_b = dir.join("trace-00000000000000ff.tmp.4294967293.17");
        let ours = dir.join(format!(
            "trace-0000000000000abc.tmp.{}.99",
            std::process::id()
        ));
        let unrelated = dir.join("notes.txt");
        for p in [&dead_a, &dead_b, &ours, &unrelated] {
            std::fs::write(p, b"half-written junk").unwrap();
        }
        assert_eq!(sweep_stale_temps(&dir), 2, "exactly the dead-writer temps");
        assert!(!dead_a.exists() && !dead_b.exists());
        assert!(ours.exists(), "own in-flight temps must survive");
        assert!(unrelated.exists(), "non-temp files must survive");
        assert!(live.exists());
        // The published trace still loads after the sweep.
        assert_eq!(DynTrace::read_file(&live, hash, &cfg).unwrap(), trace);
        // Sweeping an absent directory is a no-op, not an error.
        assert_eq!(sweep_stale_temps(&dir.join("absent")), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_failures_classify_stale_vs_corrupt() {
        let cfg = SimConfig::default();
        let trace = DynTrace::capture(&workload(500), &cfg).unwrap();
        let hash = cfg.emu_key_fingerprint();
        let dir = tempdir("classify");
        let path = dir.join("trace.bin");
        trace.write_file(&path, hash).expect("write");
        let pristine = std::fs::read(&path).unwrap();

        assert!(matches!(
            DynTrace::load_file(&path, hash, &cfg, 0),
            TraceLoad::Loaded(_)
        ));
        assert!(matches!(
            DynTrace::load_file(&dir.join("absent.bin"), hash, &cfg, 0),
            TraceLoad::Missing
        ));
        // An intact file for another emulation key is stale, not corrupt.
        assert!(matches!(
            DynTrace::load_file(&path, hash ^ 1, &cfg, 0),
            TraceLoad::Stale
        ));
        // An intact file of another format version is stale — but only
        // when re-digested; a raw version flip breaks the digest and
        // must read as corruption (the field can't be trusted).
        let mut flipped = pristine.clone();
        flipped[8] = 1;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            DynTrace::load_file(&path, hash, &cfg, 0),
            TraceLoad::Corrupt
        ));
        let body_end = flipped.len() - 8;
        let d = digest(&flipped[..body_end]);
        flipped[body_end..].copy_from_slice(&d.to_le_bytes());
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            DynTrace::load_file(&path, hash, &cfg, 0),
            TraceLoad::Stale
        ));
        // Truncations and empty files are corrupt.
        for cut in [0, 7, 16, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(
                matches!(
                    DynTrace::load_file(&path, hash, &cfg, 0),
                    TraceLoad::Corrupt
                ),
                "truncation at {cut} must classify corrupt"
            );
        }
        // Arbitrary junk is corrupt.
        std::fs::write(&path, b"definitely not a trace file, ever").unwrap();
        assert!(matches!(
            DynTrace::load_file(&path, hash, &cfg, 0),
            TraceLoad::Corrupt
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn age_based_staleness_is_conservative() {
        use std::time::{Duration, SystemTime};
        let now = SystemTime::now();
        let fresh = now - Duration::from_secs(30);
        let old = now - (STALE_TEMP_AGE + Duration::from_secs(1));
        let boundary = now - STALE_TEMP_AGE;
        let future = now + Duration::from_secs(300);
        assert!(!is_stale_by_age(fresh, now), "recent temps must survive");
        assert!(is_stale_by_age(old, now));
        assert!(is_stale_by_age(boundary, now), "threshold is inclusive");
        assert!(
            !is_stale_by_age(future, now),
            "clock skew must read as in-use, never stale"
        );
    }

    #[test]
    fn decoder_reservations_fit_in_the_bytes_left() {
        // A count bounded at its elements' encoded size — 44 bytes per
        // chunk, 10 per output port — reserves no more elements than the
        // bytes left could hold at their in-memory size.
        let file = vec![0u8; 4096];
        let d = Dec {
            buf: &file,
            pos: 96,
        };
        let left = file.len() - 96;
        let chunks: Vec<TraceChunk> = d.vec_for(left / CHUNK_HEADER_BYTES);
        assert!(std::mem::size_of::<TraceChunk>() > CHUNK_HEADER_BYTES);
        assert!(chunks.capacity() * std::mem::size_of::<TraceChunk>() <= left);
        let ports: Vec<(u16, Vec<u64>)> = d.vec_for(left / 10);
        assert!(ports.capacity() * std::mem::size_of::<(u16, Vec<u64>)>() <= left);
        // A count the bytes can hold is reserved in full.
        let timings: Vec<InstTiming> = d.vec_for(left / 9);
        assert_eq!(timings.capacity(), left / 9);
        // A crafted file claiming that many chunks is rejected after the
        // header, with the reservation capped the same way.
        let cfg = SimConfig::default();
        let trace = DynTrace::capture(&workload(50), &cfg).unwrap();
        let dir = tempdir("reserve");
        let path = dir.join("trace.bin");
        trace.write_file(&path, 1).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let body = bytes.len() - 8;
        // The chunk count sits right before the first chunk header.
        let first_chunk = body - trace.chunks().iter().map(encoded_chunk_len).sum::<usize>();
        let count_at = first_chunk - 8;
        assert_eq!(
            u64::from_le_bytes(bytes[count_at..first_chunk].try_into().unwrap()),
            trace.chunk_count() as u64
        );
        let claimed = ((body - first_chunk) / CHUNK_HEADER_BYTES) as u64;
        bytes[count_at..first_chunk].copy_from_slice(&claimed.to_le_bytes());
        let d = digest(&bytes[..body]);
        bytes[body..].copy_from_slice(&d.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DynTrace::load_file(&path, 1, &cfg, 0),
            TraceLoad::Corrupt
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_chunk_claims_at_most_trace_chunk_records() {
        // One straight-line chunk over a table of plain ops: the reader
        // takes a chunk of `TRACE_CHUNK_RECORDS` records, and rejects one
        // record more, which no capture writes.
        let cfg = SimConfig::default();
        let dir = tempdir("chunk-bound");
        let path = dir.join("trace.bin");
        for (records, loads) in [
            (TRACE_CHUNK_RECORDS, true),
            (TRACE_CHUNK_RECORDS + 1, false),
        ] {
            let mut chunk = TraceChunk::default();
            chunk.begin_fill(0, &[]).emit_straight(records as u32);
            let plain = InstTiming::of(&probranch_isa::Inst::Nop);
            let trace = DynTrace {
                timings: vec![plain; records].into_boxed_slice(),
                flow: FlowTable::from_ops(&vec![(FlowKind::None, 0); records]).unwrap(),
                chunks: vec![chunk],
                functional: TraceFunctional {
                    instructions: records as u64,
                    outputs: Vec::new(),
                    prob_consumed: Vec::new(),
                    pbs: None,
                },
                pbs: None,
                emu: cfg.emu.clone(),
            };
            trace.write_file(&path, 1).unwrap();
            assert_eq!(DynTrace::read_file(&path, 1, &cfg).is_some(), loads);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The encoded size of one chunk.
    fn encoded_chunk_len(c: &TraceChunk) -> usize {
        CHUNK_HEADER_BYTES
            + 4 * c.entry_stack.len()
            + c.branch_count()
            + c.dlats.len()
            + 5 * c.stalls.len()
    }

    /// A trace of a program of `ops.len()` `nop`-timed pcs with the
    /// control flow `ops`, holding one chunk per `(entry pc, entry
    /// stack, branch bytes, records)` and no loads or stalls, written
    /// as is — the writer checks nothing.
    fn hand_trace(ops: &[(FlowKind, u32)], chunks: &[(u32, &[u32], &[u8], u32)]) -> DynTrace {
        let chunks: Vec<TraceChunk> = chunks
            .iter()
            .map(|&(entry_pc, stack, bytes, len)| TraceChunk {
                len,
                entry_pc,
                entry_stack: stack.to_vec(),
                branches: bytes.to_vec(),
                ..TraceChunk::default()
            })
            .collect();
        DynTrace {
            timings: vec![InstTiming::of(&probranch_isa::Inst::Nop); ops.len()].into_boxed_slice(),
            flow: FlowTable::from_ops(ops).unwrap(),
            functional: TraceFunctional {
                instructions: chunks.iter().map(|c| c.len() as u64).sum(),
                outputs: Vec::new(),
                prob_consumed: Vec::new(),
                pbs: None,
            },
            chunks,
            pbs: None,
            emu: crate::EmuConfig::default(),
        }
    }

    #[test]
    fn the_loader_accepts_only_chunks_that_derive_from_the_flow_table() {
        use crate::machine::{BranchEvent, BranchEventKind};
        let byte = |kind| {
            crate::trace::encode_branch(Some(BranchEvent {
                taken: true,
                kind,
                is_prob: false,
            }))
        };
        let (jmp, call, ret) = (
            byte(BranchEventKind::Unconditional),
            byte(BranchEventKind::Call),
            byte(BranchEventKind::Ret),
        );
        let dir = tempdir("derive");
        let path = dir.join("trace.bin");
        // Writes `trace`, applies `patch` to the file and reseals its
        // digest, and loads it under a call depth of `depth`.
        let loads = |trace: &DynTrace, depth: usize, patch: &dyn Fn(&mut [u8])| {
            trace.write_file(&path, 1).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            patch(&mut bytes);
            let body = bytes.len() - 8;
            let d = digest(&bytes[..body]);
            bytes[body..].copy_from_slice(&d.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let mut cfg = SimConfig::default();
            cfg.emu.max_call_depth = depth;
            matches!(DynTrace::load_file(&path, 1, &cfg, 0), TraceLoad::Loaded(_))
        };
        let as_is = |_: &mut [u8]| {};
        let derives = |ops: &[(FlowKind, u32)], chunks: &[(u32, &[u32], &[u8], u32)]| {
            loads(&hand_trace(ops, chunks), 1, &as_is)
        };
        // `call 2; halt; ret`: the call pushes 1 and the return pops it,
        // then the halt — three records, entered at pc 0 with an empty
        // stack; cut after the call, the second chunk enters at pc 2
        // over the return address.
        let calls = [(FlowKind::Call, 2), (FlowKind::None, 0), (FlowKind::Ret, 0)];
        let whole = hand_trace(&calls, &[(0, &[], &[call, ret], 3)]);
        let cut = |entry_pc, stack: &[u32], bytes: &[u8]| {
            hand_trace(&calls, &[(0, &[], &[call], 1), (entry_pc, stack, bytes, 1)])
        };
        assert!(loads(&whole, 1, &as_is));
        assert!(loads(&cut(2, &[1], &[ret]), 1, &as_is));
        // The call outgrows a call depth of 0.
        assert!(!loads(&whole, 0, &as_is));
        // A second chunk that does not enter where the first ended, at
        // another pc or over another return address, though it derives.
        assert!(!loads(&cut(1, &[1], &[]), 1, &as_is));
        assert!(!loads(&cut(2, &[0], &[ret]), 1, &as_is));
        // A first chunk that does not enter at the program's start.
        assert!(!derives(&calls, &[(1, &[], &[], 1)]));
        // The call's byte made a jump's; then the return finds the
        // stack empty when the call is made a jump too.
        assert!(!derives(&calls, &[(0, &[], &[jmp, ret], 3)]));
        let jumps = [(FlowKind::Jmp, 2), (FlowKind::None, 0), (FlowKind::Ret, 0)];
        assert!(!derives(&jumps, &[(0, &[], &[jmp, ret], 2)]));
        // Branch bytes left over, or run out.
        assert!(!derives(&calls, &[(0, &[], &[call, ret, ret], 3)]));
        assert!(!derives(&calls, &[(0, &[], &[call], 3)]));
        // A run past the table's end.
        let plain = [(FlowKind::None, 0); 2];
        assert!(derives(&plain, &[(0, &[], &[], 2)]));
        assert!(!derives(&plain, &[(0, &[], &[], 3)]));
        // A load the runs cover needs its latency, and only it.
        let mut loading = hand_trace(&plain, &[(0, &[], &[], 2)]);
        loading.timings[1] = InstTiming::of(&probranch_isa::Inst::Load {
            dst: probranch_isa::Reg::R1,
            base: probranch_isa::Reg::R2,
            offset: 0,
        });
        assert!(!loads(&loading, 1, &as_is));
        loading.chunks[0].dlats = vec![5];
        assert!(loads(&loading, 1, &as_is));
        loading.chunks[0].dlats = vec![5, 5];
        assert!(!loads(&loading, 1, &as_is));
        // The flow table: a target outside the table, a target on a
        // `ret`, and a kind code that names none. The call is the one
        // record, so nothing but the table check rejects them.
        let called = hand_trace(&calls, &[(0, &[], &[call], 1)]);
        assert!(loads(&called, 1, &as_is));
        let flow_at = |pc: usize| MAGIC.len() + 4 + 8 + 8 + 8 + 9 * calls.len() + 5 * pc;
        let target = |pc: usize, to: u32| {
            move |f: &mut [u8]| {
                f[flow_at(pc) + 1..flow_at(pc) + 5].copy_from_slice(&to.to_le_bytes())
            }
        };
        assert!(!loads(&called, 1, &target(0, 3)));
        assert!(!loads(&called, 1, &target(2, 1)));
        assert!(!loads(&called, 1, &|f: &mut [u8]| f[flow_at(1)] = 6));
        std::fs::remove_dir_all(&dir).ok();
    }
}
