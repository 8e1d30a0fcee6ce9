//! Durable redo-log commit mode (`TxConfig::durable`).
//!
//! Every commit appends one framed record — the transaction's
//! *shared* write set plus the coalesced final contents of its surviving
//! allocations — to a per-worker append-only log on a simulated disk
//! ([`SimDisk`]). Captured writes (stack, in-transaction heap blocks,
//! nursery) are never logged per word: the paper's capture argument says
//! they are invisible to other transactions until commit, so the only
//! durable fact about them is the block's final contents, which one
//! coalesced range per surviving block records. Stack scratch dies with
//! the transaction and is not logged at all.
//!
//! The module also carries the other three quarters of the durability
//! story: a checkpointer that compacts logs into a heap snapshot
//! ([`StmRuntime::checkpoint_now`](crate::StmRuntime::checkpoint_now)),
//! stopping the world with the contention manager's serialization token,
//! a crash-recovery path ([`recover`]) that replays snapshot + logs into
//! a fresh runtime, and the fault-injection seam ([`FaultPlan`]) the
//! kill-and-recover oracle (`tests/crash_oracle.rs`) drives.
//!
//! ## Log format
//!
//! Every on-disk object is a *frame*: `[len: u32 LE][crc32: u32 LE]`
//! followed by `len` payload bytes, with the CRC taken over the payload.
//! A log file is a sequence of frames; a record payload is
//!
//! ```text
//! seq u64 | wv u64 | frontier u64 | logical_total u64
//! n_puts u32 | n_ranges u32
//! (addr u64, val u64) * n_puts
//! (start u64, words u32, content u64 * words) * n_ranges
//! ```
//!
//! `seq` numbers are per-log and contiguous; recovery treats a CRC
//! mismatch, a truncated frame, or a sequence gap as the torn tail of the
//! log and drops everything from that point on — never anything before it.
//!
//! ## Ordering invariant
//!
//! A record's `wv` is its commit timestamp (the clock its commit loaded
//! plus 2). The append happens *before* the commit publishes its orec
//! locks, so any transaction that observed the writes flushes strictly
//! after them (the disk serializes appends) — the set of records on disk
//! at a crash is dependency-closed, and replay sorted by `wv`
//! reconstructs exactly the committed prefix. Equal `wv`s come from
//! commits that loaded the same clock: their write sets are disjoint (a
//! transaction that read another's writes extended past its version
//! first), and a record that logs recycled space lies above its freer's,
//! which advanced the clock past its own `wv` before the space came back.
//! So their mutual order is irrelevant.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use txmem::{Addr, MemConfig};

use crate::config::TxConfig;
use crate::runtime::StmRuntime;

/// CRC-32 (IEEE) slicing-by-8 tables, built at compile time: `[0]` is the
/// classic bytewise table, `[k][b]` the CRC of byte `b` followed by `k`
/// zero bytes — so eight table reads retire eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let p = t[k - 1][i];
            t[k][i] = (p >> 8) ^ t[0][(p & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE) of `bytes`: whole 16-byte blocks of an input of 64 bytes
/// or more by carry-less multiplication where the CPU has it
/// ([`clmul`]), everything else by the slicing-by-8 tables. Both kernels
/// compute the same function; the frame format depends on nothing else.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let (c, tail) = clmul::update(0xFFFF_FFFF, bytes);
    crc32_sliced(c, tail) ^ 0xFFFF_FFFF
}

/// Advance the (pre-inverted) CRC state `c` over `bytes` with the
/// slicing-by-8 tables.
fn crc32_sliced(mut c: u32, bytes: &[u8]) -> u32 {
    const T: &[[u32; 256]; 8] = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        c = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][ch[4] as usize]
            ^ T[2][ch[5] as usize]
            ^ T[1][ch[6] as usize]
            ^ T[0][ch[7] as usize];
    }
    for &b in chunks.remainder() {
        c = T[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 by carry-less multiplication (x86-64 `PCLMULQDQ`): the folding
/// scheme of Intel's "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction" (Gopal et al., 2009) with the bit-reflected
/// IEEE constants the Linux (`crc32-pclmul_asm.S`) and zlib kernels use.
/// Four 128-bit accumulators fold 64 input bytes per step, are folded
/// into one, and a Barrett reduction takes the last 64 bits to 32.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// `x^(4·128+32) mod P` and `x^(4·128−32) mod P`, each shifted up 32,
    /// bit-reflected and shifted left one: fold an accumulator forward
    /// over four blocks.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// The same over one block (`x^(128+32)`, `x^(128−32)`).
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// The same for `x^64`: folds the last 64 bits into 32 plus a carry.
    const K5: i64 = 0x1_63cd_6124;
    /// The reflected polynomial `P'` and Barrett constant `µ' = ⌊x^64 / P⌋'`.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Advance the (pre-inverted) CRC state `crc` over the longest prefix
    /// of `bytes` made of whole 16-byte blocks, if `bytes` is at least 64
    /// bytes long and the CPU has `pclmulqdq` and `sse4.1`; returns the
    /// new state and the bytes left for the table kernel.
    pub(super) fn update(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        if bytes.len() < 64
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return (crc, bytes);
        }
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: both target features `fold` is compiled for were just
        // detected on this CPU.
        (unsafe { fold(crc, body) }, tail)
    }

    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("a 16-byte block");
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x` carried forward by the distance `k` encodes (low half times
    /// `k`'s low constant, high half times its high one), plus `y`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(x: __m128i, k: __m128i, y: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), y)
    }

    /// The CRC state after `bytes`, whose length must be a multiple of
    /// 16 and at least 64 (`update` guarantees both; any other length
    /// panics or drops bytes, it never reads out of bounds).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
        let mut x = [0, 16, 32, 48].map(|o| load(&bytes[o..o + 16]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k = _mm_set_epi64x(K2, K1);
        let mut lines = bytes[64..].chunks_exact(64);
        for line in &mut lines {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = fold_into(*xi, k, load(&line[16 * i..16 * i + 16]));
            }
        }
        let k = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(x[0], k, x[1]);
        acc = fold_into(acc, k, x[2]);
        acc = fold_into(acc, k, x[3]);
        for block in lines.remainder().chunks_exact(16) {
            acc = fold_into(acc, k, load(block));
        }
        // 128 → 64 bits: the low half times K4 into the high half (this
        // also appends the 32 zero bits the CRC definition asks for).
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x01>(k, acc),
            _mm_srli_si128::<8>(acc),
        );
        // 64 → 32 bits (plus a carry the reduction absorbs).
        let mask32 = _mm_set_epi32(0, 0, 0, -1);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, mask32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett reduction: q = ⌊acc·µ'⌋ (low 32 bits), crc = acc ⊕ q·P'.
        let pm = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, mask32), pm);
        let r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, mask32), pm);
        _mm_extract_epi32::<1>(_mm_xor_si128(r, acc)) as u32
    }
}

/// Other targets: no carry-less kernel, the tables do all of it.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) fn update(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        (crc, bytes)
    }
}

/// Name of worker `tid`'s redo-log file on the [`SimDisk`] (exposed so the
/// torn-tail tests can mutilate the right file).
pub fn log_file_name(tid: usize) -> String {
    format!("log-{tid}")
}

fn snap_file_name(generation: u64) -> String {
    format!("snap-{generation}")
}

const MANIFEST: &str = "MANIFEST";

/// Where in the durability pipeline a scheduled simulated crash
/// ([`FaultPlan`]) fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPhase {
    /// Die immediately before a log append: the record(s) being flushed
    /// are lost entirely.
    PreFlush,
    /// Die in the middle of a log append: only a prefix of the appended
    /// bytes lands (a torn tail for recovery to detect and drop).
    TornFlush,
    /// Die immediately after a log append: the record is durable but
    /// nothing later is.
    PostFlush,
    /// Die inside a checkpoint, after the new snapshot file is written but
    /// before the manifest points at it. The old snapshot plus the full
    /// logs must still recover.
    MidSnapshot,
    /// Die inside a checkpoint, after the manifest is updated but before
    /// the logs are truncated. The now-stale log records (all `wv ≤`
    /// snapshot clock) must be skipped by recovery, not re-applied.
    PreTruncate,
}

/// A scheduled simulated kill for fault-injection tests: die at the
/// `at`-th occurrence (0-based) of `phase`. Flush phases count log
/// appends; checkpoint phases count checkpoints. After the kill every
/// disk mutation silently becomes a no-op ([`SimDisk::is_killed`] lets
/// the workload harness notice and stop).
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// The durability phase the kill targets.
    pub phase: FaultPhase,
    /// Which occurrence of the phase dies (0-based).
    pub at: u64,
    /// For [`FaultPhase::TornFlush`]: how many bytes of the torn append
    /// land before the kill (clamped to the append's length).
    pub torn_keep: u32,
}

/// Index of the redo log a file name denotes (`"log-N"` → `N`).
fn log_index(name: &str) -> Option<usize> {
    name.strip_prefix("log-")?.parse().ok()
}

/// Everything behind the disk lock.
#[derive(Default)]
struct DiskState {
    /// Redo logs by worker tid (`"log-N"` is `logs[N]`; absent = empty):
    /// the append path indexes, it never hashes a name.
    logs: Vec<Vec<u8>>,
    /// Every other file (manifest, snapshots) by name.
    named: HashMap<String, Vec<u8>>,
    /// The armed fault plan: an append consults it under the lock it holds.
    plan: Option<FaultPlan>,
}

impl DiskState {
    fn file(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        match log_index(name) {
            Some(i) => self.logs.get_mut(i),
            None => self.named.get_mut(name),
        }
    }
}

/// The simulated persistent medium behind a durable runtime: a set of
/// append-only redo logs plus named files, shared by workers,
/// checkpointer, and — after a simulated kill — the recovery path. All
/// mutations are serialized by one lock; a kill ([`FaultPlan`])
/// atomically turns every later mutation into a no-op, which models a
/// machine that stops mid-pipeline without unwinding anything.
pub struct SimDisk {
    state: Mutex<DiskState>,
    dead: AtomicBool,
    /// Written only under the `state` lock (load + store, no RMW).
    appends: AtomicU64,
}

impl SimDisk {
    /// A fresh, empty, live disk.
    pub fn new() -> Arc<SimDisk> {
        Arc::new(SimDisk {
            state: Mutex::default(),
            dead: AtomicBool::new(false),
            appends: AtomicU64::new(0),
        })
    }

    /// Arm a one-shot fault plan. Replaces any previously armed plan.
    pub fn arm(&self, plan: FaultPlan) {
        self.state.lock().unwrap().plan = Some(plan);
    }

    /// Has a fault plan fired? The workload harness polls this to stop
    /// issuing transactions after the simulated machine died.
    pub fn is_killed(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Bring the disk back to life (recovery does this): mutations work
    /// again, and any armed plan is cleared.
    pub fn revive(&self) {
        self.state.lock().unwrap().plan = None;
        self.dead.store(false, Ordering::Release);
    }

    fn kill(&self) {
        self.dead.store(true, Ordering::Release);
    }

    /// Append `bytes` to redo log `log` (the worker's tid), honoring an
    /// armed flush-phase fault plan. Returns false if the disk was (or just
    /// became) dead and the bytes did not fully land.
    pub(crate) fn append_log(&self, log: usize, bytes: &[u8]) -> bool {
        let mut st = self.state.lock().unwrap();
        if self.is_killed() {
            return false;
        }
        let idx = self.appends.load(Ordering::Relaxed);
        self.appends.store(idx + 1, Ordering::Release);
        let (keep, dies) = match st.plan.filter(|p| p.at == idx) {
            Some(p) if p.phase == FaultPhase::PreFlush => (0, true),
            Some(p) if p.phase == FaultPhase::TornFlush => {
                ((p.torn_keep as usize).min(bytes.len()), true)
            }
            // PostFlush: the record landed, then the machine died.
            Some(p) if p.phase == FaultPhase::PostFlush => (bytes.len(), true),
            // No plan, or a checkpoint-phase plan: not this path's fault.
            _ => (bytes.len(), false),
        };
        if log >= st.logs.len() {
            st.logs.resize_with(log + 1, Vec::new);
        }
        st.logs[log].extend_from_slice(&bytes[..keep]);
        if dies {
            self.kill();
        }
        !dies
    }

    /// Atomically replace the named (non-log) file `name`'s contents
    /// (shadow-paging model: whole files are written out of place and
    /// swapped in one step).
    pub(crate) fn write_file(&self, name: &str, bytes: &[u8]) {
        let mut st = self.state.lock().unwrap();
        if !self.is_killed() {
            st.named.insert(name.to_string(), bytes.to_vec());
        }
    }

    pub(crate) fn read_file(&self, name: &str) -> Option<Vec<u8>> {
        self.state.lock().unwrap().file(name).cloned()
    }

    /// Delete the named (non-log) file `name`.
    pub(crate) fn remove(&self, name: &str) {
        let mut st = self.state.lock().unwrap();
        if !self.is_killed() {
            st.named.remove(name);
        }
    }

    /// Empty every redo log under one lock. A log keeps its memory, so the
    /// appends after a checkpoint write to pages already mapped.
    pub(crate) fn clear_logs(&self) {
        let mut st = self.state.lock().unwrap();
        if !self.is_killed() {
            st.logs.iter_mut().for_each(Vec::clear);
        }
    }

    /// Fire a checkpoint-phase fault if the armed plan targets occurrence
    /// `idx` of `phase`.
    pub(crate) fn checkpoint_fault(&self, phase: FaultPhase, idx: u64) {
        let plan = self.state.lock().unwrap().plan;
        if matches!(plan, Some(p) if p.phase == phase && p.at == idx) {
            self.kill();
        }
    }

    /// Current length of `name` in bytes (0 if absent). Test seam for the
    /// torn-tail sweep.
    pub fn file_len(&self, name: &str) -> usize {
        self.state.lock().unwrap().file(name).map_or(0, |f| f.len())
    }

    /// Truncate `name` to `len` bytes, ignoring the dead flag — this is
    /// the *test harness* mutilating the medium to model a torn write,
    /// not the runtime writing through it.
    pub fn truncate_file(&self, name: &str, len: usize) {
        if let Some(f) = self.state.lock().unwrap().file(name) {
            f.truncate(len);
        }
    }

    /// Flip one byte of `name` (test seam: models media corruption of the
    /// final record for the torn-tail sweep).
    pub fn corrupt_byte(&self, name: &str, offset: usize) {
        let mut st = self.state.lock().unwrap();
        if let Some(b) = st.file(name).and_then(|f| f.get_mut(offset)) {
            *b ^= 0xA5;
        }
    }

    /// Total bytes across all redo-log files (the background
    /// checkpointer's compaction trigger).
    pub fn log_bytes(&self) -> u64 {
        let st = self.state.lock().unwrap();
        st.logs.iter().map(|l| l.len() as u64).sum()
    }

    /// Number of appends performed so far (flush-phase fault plans index
    /// into this sequence).
    pub fn append_count(&self) -> u64 {
        self.appends.load(Ordering::Acquire)
    }
}

/// Shared durable-mode state hanging off a runtime: the disk and per-tid
/// counters that must survive worker respawns (log sequence numbers,
/// cumulative logical commits). A checkpoint stops the world with the
/// runtime's serialization token, not with anything here.
pub(crate) struct DurableState {
    pub(crate) disk: Arc<SimDisk>,
    /// Per-tid next record sequence number.
    seqs: Box<[AtomicU64]>,
    /// Per-tid cumulative logical commits recorded durably.
    logicals: Box<[AtomicU64]>,
    /// Checkpoints performed (checkpoint-phase fault plans index this).
    ckpts: AtomicU64,
}

impl DurableState {
    pub(crate) fn new(disk: Arc<SimDisk>, max_threads: usize) -> DurableState {
        DurableState {
            disk,
            seqs: (0..max_threads).map(|_| AtomicU64::new(0)).collect(),
            logicals: (0..max_threads).map(|_| AtomicU64::new(0)).collect(),
            ckpts: AtomicU64::new(0),
        }
    }

    /// Take tid's next record sequence number. Only the owning worker
    /// writes a `seqs`/`logicals` slot between recoveries, so load + store
    /// suffices. A checkpoint reads `logicals` under the token, where only
    /// a commit that logs nothing can still count (either value recovers).
    pub(crate) fn next_seq(&self, tid: usize) -> u64 {
        let seq = self.seqs[tid].load(Ordering::Relaxed);
        self.seqs[tid].store(seq + 1, Ordering::Release);
        seq
    }

    /// Count one more commit on tid's cumulative logical-commit counter,
    /// returning the new total (stamped into the record being prepared).
    pub(crate) fn add_logical(&self, tid: usize) -> u64 {
        let total = self.logicals[tid].load(Ordering::Relaxed) + 1;
        self.logicals[tid].store(total, Ordering::Release);
        total
    }
}

// ---------------------------------------------------------------------------
// Frame / record codec
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bytes of the `[len][crc]` frame header.
const FRAME_HDR: usize = 8;

/// Stamp length and checksum into the reserved header of the frame
/// occupying `frame` — shared by [`frame`] and [`RecordEncoder::finish`].
fn seal_frame(frame: &mut [u8]) {
    let (hdr, payload) = frame.split_at_mut(FRAME_HDR);
    let len = u32::try_from(payload.len())
        .expect("frame payload exceeds the format's u32 length field (4 GiB - 1)");
    hdr[..4].copy_from_slice(&len.to_le_bytes());
    hdr[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Wrap a payload in the `[len][crc][payload]` frame.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HDR + payload.len());
    out.extend_from_slice(&[0; FRAME_HDR]);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

/// Bounds-checked little-endian reader; any overrun means a torn frame.
struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ()> {
        let end = self.off.checked_add(n).ok_or(())?;
        let b = self.bytes.get(self.off..end).ok_or(())?;
        self.off = end;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ()> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ()> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// The four words every record payload opens with:
/// `[seq, wv, frontier, logical_total]`.
pub(crate) type RecordHead = [u64; 4];

/// Offset of `n_puts | n_ranges` in a record payload.
const REC_NPUTS_OFF: usize = 32;

/// Incremental builder for one framed record, written where it will be
/// flushed from: it borrows the worker's flush buffer, reserves the frame
/// header, appends the payload behind it, and [`RecordEncoder::finish`]
/// patches counts, length and checksum in place.
pub(crate) struct RecordEncoder<'a> {
    buf: &'a mut Vec<u8>,
    n_puts: u32,
    n_ranges: u32,
}

impl<'a> RecordEncoder<'a> {
    /// Open a record in `buf`, replacing whatever it held (the previous
    /// record, already on disk).
    pub(crate) fn new(buf: &'a mut Vec<u8>, head: RecordHead) -> RecordEncoder<'a> {
        buf.clear();
        buf.extend_from_slice(&[0; FRAME_HDR]);
        for v in head {
            put_u64(buf, v);
        }
        put_u64(buf, 0); // n_puts | n_ranges, patched in finish()
        RecordEncoder {
            buf,
            n_puts: 0,
            n_ranges: 0,
        }
    }

    /// One shared-write address and its committed value. Must precede all
    /// ranges (the decoder reads puts first).
    pub(crate) fn put(&mut self, addr: u64, val: u64) {
        debug_assert_eq!(self.n_ranges, 0, "puts must precede ranges");
        put_u64(self.buf, addr);
        put_u64(self.buf, val);
        self.n_puts += 1;
    }

    /// One coalesced content range: `content` is the words at `start`.
    pub(crate) fn range(&mut self, start: u64, content: &[u64]) {
        put_u64(self.buf, start);
        // A count that wrapped here would make a payload `finish` rejects.
        put_u32(self.buf, content.len() as u32);
        let at = self.buf.len();
        self.buf.resize(at + 8 * content.len(), 0);
        for (dst, w) in self.buf[at..].chunks_exact_mut(8).zip(content) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        self.n_ranges += 1;
    }

    /// Patch the counts and seal the frame.
    pub(crate) fn finish(self) {
        let frame = &mut self.buf[..];
        let counts = FRAME_HDR + REC_NPUTS_OFF;
        frame[counts..counts + 4].copy_from_slice(&self.n_puts.to_le_bytes());
        frame[counts + 4..counts + 8].copy_from_slice(&self.n_ranges.to_le_bytes());
        seal_frame(frame);
    }
}

/// One record's shared-write addresses, each once, in first-write order:
/// the put gather's worker-owned scratch. Repeats are caught by an
/// open-addressed seen-set (linear probing, at most half full) sized to
/// the undo log and cleared per record, so the gather is O(n) and
/// allocates only when a transaction writes more words than any earlier
/// one on its worker. Replay does not depend on put order within a record
/// (the addresses are distinct), so the order is free to be the writes'.
#[derive(Default)]
pub(crate) struct PutSet {
    order: Vec<u64>,
    seen: Vec<u64>,
}

/// An empty `PutSet::seen` slot: addresses are word-aligned, so no put
/// has this value.
const NO_ADDR: u64 = u64::MAX;

impl PutSet {
    /// Replace the set's contents with the distinct values `addrs`
    /// yields, in first-occurrence order. `addrs` yields at most `max`
    /// values.
    pub(crate) fn gather(&mut self, max: usize, addrs: impl Iterator<Item = u64>) {
        let slots = (2 * max).next_power_of_two().max(16);
        let (order, seen) = (&mut self.order, &mut self.seen);
        order.clear();
        seen.clear();
        seen.resize(slots, NO_ADDR);
        // Fibonacci hashing: the product's top bits index the table.
        let shift = 64 - slots.trailing_zeros();
        for addr in addrs {
            // Past `max` the table could fill and the probe not end.
            assert!(2 * order.len() < slots, "PutSet::gather over its bound");
            debug_assert_ne!(addr, NO_ADDR);
            let mut i = (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
            loop {
                match seen[i] {
                    NO_ADDR => {
                        seen[i] = addr;
                        order.push(addr);
                        break;
                    }
                    a if a == addr => break,
                    _ => i = (i + 1) & (slots - 1),
                }
            }
        }
    }

    /// The distinct addresses of the last `gather`, in order.
    pub(crate) fn addrs(&self) -> &[u64] {
        &self.order
    }
}

/// Decode one record payload in place, in log order: `put(addr, val)` per
/// shared write, then `range(start, le_words)` per content range — no-op
/// closures validate, storing closures replay. `Err` on a malformed
/// payload (overrun, or trailing garbage inside the frame).
fn decode_record<'a>(
    payload: &'a [u8],
    mut put: impl FnMut(u64, u64),
    mut range: impl FnMut(u64, &'a [u8]),
) -> Result<RecordHead, ()> {
    let mut r = Reader::new(payload);
    let head = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let (n_puts, n_ranges) = (r.u32()?, r.u32()?);
    for _ in 0..n_puts {
        put(r.u64()?, r.u64()?);
    }
    for _ in 0..n_ranges {
        let start = r.u64()?;
        let words = r.u32()? as usize;
        range(start, r.take(words * 8)?);
    }
    if r.off != payload.len() {
        return Err(());
    }
    Ok(head)
}

/// Split the frame starting at `off`: its stored CRC, its payload, and
/// the offset one past it. Bounds only — the caller checks the CRC.
fn split_frame(bytes: &[u8], off: usize) -> Result<(u32, &[u8], usize), ()> {
    let mut r = Reader::new(bytes.get(off..).ok_or(())?);
    let len = r.u32()? as usize;
    let crc = r.u32()?;
    Ok((crc, r.take(len)?, off + FRAME_HDR + len))
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

struct Manifest {
    generation: u64,
    clock: u64,
    frontier: u64,
    logicals: Vec<u64>,
}

fn read_manifest(disk: &SimDisk) -> Option<Manifest> {
    let bytes = disk.read_file(MANIFEST)?;
    let payload = unframe(&bytes).expect("manifest failed frame validation");
    let mut r = Reader::new(payload);
    let generation = r.u64().unwrap();
    let clock = r.u64().unwrap();
    let frontier = r.u64().unwrap();
    let n = r.u32().unwrap();
    let logicals = (0..n).map(|_| r.u64().unwrap()).collect();
    Some(Manifest {
        generation,
        clock,
        frontier,
        logicals,
    })
}

/// Validate a single whole-file frame and return its payload.
fn unframe(bytes: &[u8]) -> Result<&[u8], ()> {
    let (crc, payload, end) = split_frame(bytes, 0)?;
    if end != bytes.len() || crc32(payload) != crc {
        return Err(());
    }
    Ok(payload)
}

/// Stop the world and compact the logs into a fresh heap snapshot.
///
/// Protocol (each step is atomic on the simulated disk, and the two fault
/// points between them are exactly the [`FaultPhase::MidSnapshot`] /
/// [`FaultPhase::PreTruncate`] seams):
///
/// 1. take the serialization token, which drains every transaction that
///    holds a lock or is appending a record and turns new ones away
///    (DESIGN.md §11.3), and keeps any other checkpoint out;
/// 2. advance the clock by 2, then write the whole live heap
///    `[heap_start, frontier)` plus that clock to a *new* snapshot file
///    `snap-(g+1)` (shadow paging: the old snapshot is untouched);
/// 3. atomically point the manifest at the new generation;
/// 4. empty the per-worker logs and delete the old snapshot.
///
/// A crash before step 3 recovers from the old snapshot + full logs; a
/// crash after it recovers from the new snapshot, skipping any not-yet
/// truncated records as stale (`wv ≤` snapshot clock).
pub(crate) fn checkpoint(rt: &StmRuntime) {
    let ds = rt
        .durable
        .as_ref()
        .expect("checkpoint requires a durable runtime");
    let disk = &ds.disk;
    if disk.is_killed() {
        return;
    }
    let _world = rt.cm.checkpoint_token();
    let idx = ds.ckpts.fetch_add(1, Ordering::AcqRel);
    let layout = *rt.mem.layout();
    // A commit publishes at the clock it loaded plus 2, so a drained
    // commit's record may carry the current clock plus 2. Advancing by 2
    // puts the snapshot clock at or above every drained record's `wv`
    // (recovery skips them all), and every later ticket above it.
    let clock = rt.clock.advance_to(rt.clock.read() + 2);
    rt.global_stats.lock().unwrap().clock_advances += 1;
    let frontier = rt.heap.frontier();
    let words = rt
        .mem
        .snapshot_range(Addr(layout.heap_start), frontier - layout.heap_start);
    let mut payload = Vec::with_capacity(24 + words.len() * 8);
    put_u64(&mut payload, clock);
    put_u64(&mut payload, frontier);
    put_u64(&mut payload, words.len() as u64);
    for w in &words {
        put_u64(&mut payload, *w);
    }
    let generation = read_manifest(disk).map_or(0, |m| m.generation + 1);
    disk.write_file(&snap_file_name(generation), &frame(&payload));
    disk.checkpoint_fault(FaultPhase::MidSnapshot, idx);

    let mut mp = Vec::new();
    put_u64(&mut mp, generation);
    put_u64(&mut mp, clock);
    put_u64(&mut mp, frontier);
    put_u32(&mut mp, ds.logicals.len() as u32);
    for l in ds.logicals.iter() {
        put_u64(&mut mp, l.load(Ordering::Acquire));
    }
    disk.write_file(MANIFEST, &frame(&mp));
    disk.checkpoint_fault(FaultPhase::PreTruncate, idx);

    disk.clear_logs();
    if generation > 0 {
        disk.remove(&snap_file_name(generation - 1));
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What [`recover`] found on the disk and rebuilt.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Clock value of the snapshot the recovery started from (0 = none).
    pub snapshot_clock: u64,
    /// Total logical transactions whose effects are in the recovered
    /// heap, summed over workers.
    pub logical_committed: u64,
    /// Log records replayed onto the snapshot.
    pub records_applied: u64,
    /// Valid records skipped because the snapshot already contained them
    /// (`wv ≤` snapshot clock; the pre-truncate crash window).
    pub stale_skipped: u64,
    /// Log files that ended in a torn tail (CRC mismatch, truncated
    /// frame, or sequence gap); the tail was dropped and chopped.
    pub torn_tails: u64,
    /// Restored heap bump frontier.
    pub frontier: u64,
}

/// Rebuild a durable runtime from what survived on `disk`: load the
/// manifest's snapshot (if any), replay every valid log record with
/// `wv >` snapshot clock in `wv` order, restore the heap frontier and the
/// commit clock, and resume the per-worker log sequence numbers so the
/// recovered runtime keeps appending to the same logs.
///
/// `mem_cfg` and `config` must match the crashed runtime's — the log
/// records address the simulated memory by absolute word address.
///
/// The allocator's page state is intentionally *not* reconstructed: every
/// page below the restored frontier is marked `Recovered`, so free space
/// on those pages and the replayed blocks leak (a free of one leaks it),
/// which costs space but never correctness.
pub fn recover(
    mem_cfg: MemConfig,
    config: TxConfig,
    disk: Arc<SimDisk>,
) -> (StmRuntime, RecoveryReport) {
    disk.revive();
    let rt = StmRuntime::new_durable(mem_cfg, config, disk.clone());
    let layout = *rt.mem.layout();
    let ds = rt.durable.as_ref().unwrap();
    let mut report = RecoveryReport::default();
    let mut frontier = layout.heap_start;
    let mut logicals = vec![0u64; layout.max_threads];

    if let Some(m) = read_manifest(&disk) {
        let snap = disk
            .read_file(&snap_file_name(m.generation))
            .expect("manifest points at a missing snapshot");
        let payload = unframe(&snap).expect("snapshot failed frame validation");
        let mut r = Reader::new(payload);
        let clock = r.u64().unwrap();
        let snap_frontier = r.u64().unwrap();
        let n = r.u64().unwrap() as usize;
        let mut words = vec![0u64; n];
        for w in words.iter_mut() {
            *w = r.u64().unwrap();
        }
        // Manifest and snapshot are written by the same checkpoint, so
        // their metadata must agree; a mismatch means disk corruption the
        // frames' CRCs somehow missed.
        assert_eq!(
            (m.clock, m.frontier),
            (clock, snap_frontier),
            "manifest/snapshot metadata mismatch"
        );
        rt.mem.restore_range(Addr(layout.heap_start), &words);
        report.snapshot_clock = clock;
        frontier = frontier.max(snap_frontier);
        for (dst, src) in logicals.iter_mut().zip(m.logicals.iter()) {
            *dst = *src;
        }
    }

    // The logs are borrowed under the disk lock, not copied out: parse each
    // up to its torn tail (if any), chopping the tail so post-recovery
    // appends keep the file parseable, and index — not decode — every
    // valid record.
    let mut state = disk.state.lock().unwrap();
    let mut index: Vec<(u64, usize, usize)> = Vec::new(); // (wv, log, offset)
    for (tid, (bytes, logical)) in state.logs.iter_mut().zip(&mut logicals).enumerate() {
        let mut off = 0usize;
        let mut prev_seq: Option<u64> = None;
        while off < bytes.len() {
            let parsed = split_frame(bytes, off).and_then(|(crc, payload, end)| {
                if crc32(payload) != crc {
                    return Err(());
                }
                Ok((decode_record(payload, |_, _| (), |_, _| ())?, end))
            });
            match parsed {
                Ok(([seq, wv, _, logical_total], end)) if prev_seq.is_none_or(|p| seq == p + 1) => {
                    prev_seq = Some(seq);
                    *logical = (*logical).max(logical_total);
                    index.push((wv, tid, off));
                    off = end;
                }
                _ => {
                    report.torn_tails += 1;
                    bytes.truncate(off);
                    break;
                }
            }
        }
        ds.seqs[tid].store(prev_seq.map_or(0, |s| s + 1), Ordering::Release);
    }

    // Replay in commit order, straight from the validated payloads. Equal
    // wvs (commits that loaded the same clock) have disjoint write sets,
    // and a record that logs recycled space lies above its freer's
    // (DESIGN.md §11.1), so the stable file-order tiebreak is arbitrary
    // but harmless.
    index.sort_by_key(|e| e.0);
    let mut max_wv = 0u64;
    for &(wv, tid, off) in &index {
        if wv <= report.snapshot_clock {
            report.stale_skipped += 1;
            continue;
        }
        let (_, payload, _) = split_frame(&state.logs[tid], off).expect("indexed frame");
        let put = |addr, val| rt.mem.store_private(Addr(addr), val);
        let [_, _, rec_frontier, _] = decode_record(payload, put, |start, content| {
            for (i, w) in content.chunks_exact(8).enumerate() {
                let w = u64::from_le_bytes(w.try_into().unwrap());
                rt.mem.store_private(Addr(start).word(i as u64), w);
            }
        })
        .expect("indexed record");
        frontier = frontier.max(rec_frontier);
        max_wv = wv;
        report.records_applied += 1;
    }
    drop(state);

    rt.heap.restore_frontier(frontier);
    rt.clock.advance_to(report.snapshot_clock.max(max_wv));
    for (tid, l) in logicals.iter().enumerate() {
        ds.logicals[tid].store(*l, Ordering::Release);
        report.logical_committed += *l;
    }
    report.frontier = frontier;
    (rt, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimDisk {
        /// By-name append, as the fault-phase tests spell it.
        fn append(&self, name: &str, bytes: &[u8]) -> bool {
            self.append_log(log_index(name).expect("a log-N name"), bytes)
        }
    }

    /// The bytewise table CRC, kept as the reference both [`crc32`]
    /// kernels are diffed against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let step = |c: u32, &b: &u8| CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        bytes.iter().fold(0xFFFF_FFFF, step) ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors_and_the_bytewise_reference() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Both kernels against the reference: the dispatching `crc32`
        // (carry-less multiply from 64 bytes on CPUs that have it) and the
        // table kernel alone (what every other CPU and every tail runs).
        // Every length through 300, then a stride to 4096, each at 16
        // start offsets.
        let buf: Vec<u8> = (0..4096 + 16u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
            .collect();
        let lens = (0..=300).chain((301..4096).step_by(37)).chain([4096]);
        for len in lens {
            for start in 0..16 {
                let s = &buf[start..start + len];
                let want = crc32_bytewise(s);
                assert_eq!(crc32(s), want, "start {start} len {len}");
                let sliced = crc32_sliced(0xFFFF_FFFF, s) ^ 0xFFFF_FFFF;
                assert_eq!(sliced, want, "table kernel, start {start} len {len}");
            }
        }
    }

    #[test]
    fn frame_roundtrip_and_corruption_detection() {
        let f = frame(b"hello world");
        assert_eq!(unframe(&f).unwrap(), b"hello world");
        for i in 0..f.len() {
            let mut bad = f.clone();
            bad[i] ^= 0x40;
            assert!(unframe(&bad).is_err(), "flip at byte {i} must be caught");
        }
        assert!(unframe(&f[..f.len() - 1]).is_err(), "truncation caught");
    }

    /// Encode the fixed test record `k` into `buf`, and return its frame
    /// built the old way: the payload spelled out as little-endian u32
    /// halves (every u64 here fits its low half), then `[len][crc]`
    /// (bytewise) in front.
    fn encode_fixture(buf: &mut Vec<u8>, k: u32) -> Vec<u8> {
        let k64 = k as u64;
        let mut enc = RecordEncoder::new(buf, [7 + k64, 42 + k64, 0x1000, 13 + k64]);
        enc.put(0x100, 0xdead + k64);
        enc.put(0x108, 0xbeef);
        enc.range(0x200, &[1, 2, 3 + k64]);
        enc.range(0x300, &[]);
        enc.finish();
        #[rustfmt::skip]
        let halves = [
            7 + k, 0, 42 + k, 0, 0x1000, 0, 13 + k, 0, /* n_puts, n_ranges */ 2, 2,
            0x100, 0, 0xdead + k, 0, 0x108, 0, 0xbeef, 0,
            0x200, 0, /* words */ 3, 1, 0, 2, 0, 3 + k, 0, 0x300, 0, /* words */ 0,
        ];
        let payload: Vec<u8> = halves.iter().flat_map(|h| h.to_le_bytes()).collect();
        let mut old = (payload.len() as u32).to_le_bytes().to_vec();
        old.extend_from_slice(&crc32_bytewise(&payload).to_le_bytes());
        old.extend_from_slice(&payload);
        assert_eq!(frame(&payload), old);
        old
    }

    #[test]
    fn in_place_encoder_emits_the_golden_bytes() {
        // Into an empty buffer, then into the same buffer again (the
        // worker reuses it): the bytes are the old two-step framing's.
        let mut buf = Vec::new();
        let first = encode_fixture(&mut buf, 0);
        assert_eq!(buf, first);
        let second = encode_fixture(&mut buf, 5);
        assert_eq!(buf, second);
        // The header the pre-rewrite encoder wrote for this record.
        assert_eq!(&first[..8], [0x78, 0, 0, 0, 0x42, 0xed, 0x63, 0xb3]);

        // Both records, appended to one log, split and decode back to the
        // originals.
        let log = [first, second].concat();
        let mut off = 0;
        for k in [0u64, 5] {
            let (_, payload, end) = split_frame(&log, off).unwrap();
            assert_eq!(unframe(&log[off..end]).unwrap(), payload);
            let (mut puts, mut ranges) = (Vec::new(), Vec::new());
            let put = |a, v| puts.push((a, v));
            let head = decode_record(payload, put, |s, c| ranges.push((s, c.to_vec()))).unwrap();
            assert_eq!(head, [7 + k, 42 + k, 0x1000, 13 + k]);
            assert_eq!(puts, [(0x100, 0xdead + k), (0x108, 0xbeef)]);
            let content: Vec<u8> = [1, 2, 3 + k].iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(ranges, [(0x200, content), (0x300, vec![])]);
            off = end;
        }
        assert_eq!(off, log.len());
    }

    #[test]
    fn disk_append_fault_phases() {
        // PreFlush: nothing lands.
        let d = SimDisk::new();
        d.arm(FaultPlan {
            phase: FaultPhase::PreFlush,
            at: 1,
            torn_keep: 0,
        });
        assert!(d.append("log-0", b"aaaa"));
        assert!(!d.append("log-0", b"bbbb"));
        assert!(d.is_killed());
        assert_eq!(d.read_file("log-0").unwrap(), b"aaaa");
        assert!(!d.append("log-0", b"cccc"), "dead disk stays dead");
        assert_eq!(d.file_len("log-0"), 4);

        // TornFlush: a prefix lands.
        let d = SimDisk::new();
        d.arm(FaultPlan {
            phase: FaultPhase::TornFlush,
            at: 0,
            torn_keep: 2,
        });
        assert!(!d.append("log-0", b"xyzw"));
        assert_eq!(d.read_file("log-0").unwrap(), b"xy");

        // PostFlush: the full append lands, then death.
        let d = SimDisk::new();
        d.arm(FaultPlan {
            phase: FaultPhase::PostFlush,
            at: 0,
            torn_keep: 0,
        });
        assert!(!d.append("log-0", b"pqrs"));
        assert!(d.is_killed());
        assert_eq!(d.read_file("log-0").unwrap(), b"pqrs");

        // Revive clears both the plan and the dead flag.
        d.revive();
        assert!(!d.is_killed());
        assert!(d.append("log-0", b"tu"));
        assert_eq!(d.read_file("log-0").unwrap(), b"pqrstu");
    }

    #[test]
    fn disk_write_file_and_log_bytes() {
        let d = SimDisk::new();
        d.append("log-0", &[0u8; 10]);
        d.append("log-3", &[0u8; 5]);
        d.write_file("MANIFEST", &[0u8; 100]);
        assert_eq!(d.log_bytes(), 15, "manifest is not a log");
        d.corrupt_byte("log-3", 2);
        assert_eq!(d.read_file("log-3").unwrap()[2], 0xA5);
        d.truncate_file("log-3", 1);
        assert_eq!(d.file_len("log-3"), 1);
        d.clear_logs();
        assert_eq!((d.file_len("log-0"), d.file_len("log-3")), (0, 0));
        assert_eq!(
            d.file_len("MANIFEST"),
            100,
            "clearing the logs keeps the rest"
        );
        d.remove("MANIFEST");
        assert!(d.read_file("MANIFEST").is_none());
        assert_eq!(d.append_count(), 2);
    }

    #[test]
    fn a_checkpoint_keeps_the_log_pages_and_later_records_recover() {
        static S: crate::Site = crate::Site::shared("durable.truncate");
        let cfg = TxConfig {
            durable: true,
            ..TxConfig::default()
        };
        let disk = SimDisk::new();
        let rt = StmRuntime::new_durable(MemConfig::small(), cfg, disk.clone());
        let cell = rt.alloc_global(8);
        let capacity = || disk.state.lock().unwrap().logs[0].capacity();
        let mut w = rt.spawn_worker();
        for v in 1..=20 {
            w.txn(|tx| tx.write(&S, cell, v));
        }
        let before = capacity();
        assert!(before > 0);
        rt.checkpoint_now();
        assert_eq!(
            disk.file_len(&log_file_name(0)),
            0,
            "the checkpoint empties the log"
        );
        assert_eq!(capacity(), before, "an emptied log keeps its memory");
        for v in 21..=25 {
            w.txn(|tx| tx.write(&S, cell, v));
        }
        drop(w);
        let (rt2, report) = recover(MemConfig::small(), cfg, disk.clone());
        assert!(report.snapshot_clock > 0, "recovery must use the snapshot");
        assert_eq!((report.records_applied, report.stale_skipped), (5, 0));
        assert_eq!(report.logical_committed, 25);
        assert_eq!(rt2.mem().load_private(cell), 25);
    }

    #[test]
    fn durable_commit_kill_recover_roundtrip() {
        static S: crate::Site = crate::Site::shared("durable.smoke");
        fn cfg() -> crate::TxConfig {
            crate::TxConfig {
                durable: true,
                ..crate::TxConfig::runtime_tree_full()
            }
        }
        let mem_cfg = MemConfig::small();
        let disk = SimDisk::new();
        let rt = StmRuntime::new_durable(mem_cfg, cfg(), disk.clone());
        let cell = rt.alloc_global(8);
        let slot = rt.alloc_global(8);
        let mut w = rt.spawn_worker();
        for i in 1..=10u64 {
            w.txn(|tx| {
                let v = tx.read(&S, cell)?;
                tx.write(&S, cell, v + i)?;
                Ok(())
            });
        }
        // A captured-heavy transaction: the block's writes are elided, yet
        // the published contents must survive the crash via its range
        // record.
        let blk = w.txn(|tx| {
            let b = tx.alloc(64)?;
            for j in 0..8u64 {
                tx.write(&S, b.word(j), 100 + j)?;
            }
            tx.write(&S, slot, b.raw())?;
            Ok(b)
        });
        drop(w);
        let stats = rt.collect_stats();
        assert_eq!(stats.commits, 11);
        assert!(stats.durable_words >= 10 + 9 + 2, "puts + range + header");
        assert!(stats.durable_skipped >= 8, "captured block writes skipped");
        assert_eq!(stats.durable_flushes, 11, "strict mode: one per commit");

        // Power loss with everything already flushed: full recovery.
        disk.arm(FaultPlan {
            phase: FaultPhase::PreFlush,
            at: u64::MAX,
            torn_keep: 0,
        });
        let (rt2, report) = recover(mem_cfg, cfg(), disk);
        assert_eq!(report.logical_committed, 11);
        assert_eq!(report.records_applied, 11);
        assert_eq!(report.torn_tails, 0);
        assert_eq!(rt2.mem().load_private(cell), 55);
        assert_eq!(rt2.mem().load_private(slot), blk.raw());
        for j in 0..8u64 {
            assert_eq!(rt2.mem().load_private(blk.word(j)), 100 + j);
        }
        // The recovered runtime keeps working: new transactions commit and
        // new allocations don't collide with recovered blocks.
        let mut w2 = rt2.spawn_worker();
        let b2 = w2.txn(|tx| {
            let b = tx.alloc(64)?;
            tx.write(&S, b.offset(0), 7)?;
            Ok(b)
        });
        assert!(
            b2.raw() >= blk.raw() + 64 || b2.raw() + 64 <= blk.raw(),
            "fresh allocation {b2:?} collides with recovered {blk:?}"
        );
    }

    #[test]
    fn put_gather_ships_each_shared_word_once_and_blocks_as_ranges() {
        static S: crate::Site = crate::Site::shared("durable.dedup");
        fn cfg() -> TxConfig {
            TxConfig {
                durable: true,
                ..TxConfig::runtime_tree_full()
            }
        }
        let mem_cfg = MemConfig::small();
        let disk = SimDisk::new();
        let rt = StmRuntime::new_durable(mem_cfg, cfg(), disk.clone());
        // Two words of one 64-byte line: one orec, so the second word's
        // write takes no lock of its own. `a` sits above `b`, so
        // first-write order is not address order.
        let line = Addr((rt.alloc_global(128).raw() + 63) & !63);
        let (a, b) = (line.word(1), line);
        let mut w = rt.spawn_worker();
        let blk = w.txn(|tx| {
            for v in [1, 2, 3] {
                tx.write(&S, a, v)?;
            }
            tx.write(&S, b, 9)?;
            let blk = tx.alloc(64)?;
            for j in 0..8 {
                tx.write(&S, blk.word(j), 100 + j)?;
            }
            Ok(blk)
        });
        drop(w);
        assert_eq!(rt.collect_stats().durable_flushes, 1);

        let log = disk.read_file(&log_file_name(0)).unwrap();
        let (_, payload, end) = split_frame(&log, 0).unwrap();
        assert_eq!(end, log.len(), "one commit, one record");
        let (mut puts, mut ranges) = (Vec::new(), Vec::new());
        let put = |addr, val| puts.push((addr, val));
        decode_record(payload, put, |start, c| ranges.push((start, c.to_vec()))).unwrap();
        // Each shared address once, with its final value, in first-write
        // order — three writes of `a` are one put.
        assert_eq!(puts, [(a.raw(), 3), (b.raw(), 9)]);
        // The block ships once, as a range from its header word; none of
        // its words is a put.
        let start = blk.raw() - txmem::HEADER_BYTES;
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].0, start);
        let content: Vec<u64> = ranges[0]
            .1
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(content[1..9], [100, 101, 102, 103, 104, 105, 106, 107]);
        let end = start + 8 * content.len() as u64;
        assert!(puts.iter().all(|&(p, _)| p < start || p >= end));

        let (rt2, report) = recover(mem_cfg, cfg(), disk);
        assert_eq!(report.records_applied, 1);
        assert_eq!(rt2.mem().load_private(a), 3);
        assert_eq!(rt2.mem().load_private(b), 9);
        for j in 0..8 {
            assert_eq!(rt2.mem().load_private(blk.word(j)), 100 + j);
        }
    }

    #[test]
    fn read_only_txn_counts_into_the_next_record() {
        static S: crate::Site = crate::Site::shared("durable.logical");
        let cfg = TxConfig {
            durable: true,
            ..TxConfig::default()
        };
        let disk = SimDisk::new();
        let rt = StmRuntime::new_durable(MemConfig::small(), cfg, disk.clone());
        let cell = rt.alloc_global(8);
        let mut w = rt.spawn_worker();
        w.txn(|tx| tx.write(&S, cell, 1));
        w.txn(|tx| tx.read(&S, cell).map(drop)); // counted, never logged
        w.txn(|tx| tx.write(&S, cell, 2));
        // Both records are on disk before the worker drops: nothing is
        // buffered past its commit.
        assert_eq!(disk.append_count(), 2, "one append per writing commit");
        drop(w);
        let log = disk.read_file("log-0").unwrap();
        let (_, first, mid) = split_frame(&log, 0).unwrap();
        let (_, second, end) = split_frame(&log, mid).unwrap();
        assert_eq!(end, log.len(), "exactly two records");
        let heads = [first, second].map(|p| decode_record(p, |_, _| (), |_, _| ()).unwrap());
        let stamped = heads.map(|[seq, _, _, total]| (seq, total));
        assert_eq!(stamped, [(0, 1), (1, 3)]);
    }

    #[test]
    fn seq_and_logical_counters_are_per_tid() {
        let ds = DurableState::new(SimDisk::new(), 2);
        assert_eq!(ds.next_seq(0), 0);
        assert_eq!(ds.next_seq(0), 1);
        assert_eq!(ds.next_seq(1), 0);
        assert_eq!(ds.add_logical(0), 1);
        assert_eq!(ds.add_logical(0), 2);
        assert_eq!(ds.add_logical(1), 1);
    }
}
