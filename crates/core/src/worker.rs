use std::sync::atomic::AtomicU64;

use capture::{NurseryLog, PrivateLog, RangeTree};
use txmem::{words_to_bytes, Addr, ThreadStack};

use crate::barrier::{CaptureLogs, DispatchTable};
use crate::commit::AttemptGuard;
use crate::config::{CheckScope, Mode, TxConfig};
use crate::durable::PutSet;
use crate::orec::line_index;
use crate::runtime::StmRuntime;
use crate::site::Site;
use crate::stats::{TxStats, TxnDelta};

/// Why a transaction's closure stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// The runtime detected a conflict; the transaction will be rolled back
    /// and retried (after contention-manager backoff).
    Conflict,
    /// Explicit user abort with a code (paper: "user abort in our system");
    /// rolled back and *not* retried.
    User(u64),
}

/// Result type every transactional operation returns; `?` propagates an
/// abort out of the closure to the retry loop.
pub type TxResult<T> = Result<T, Abort>;

#[derive(Clone, Copy)]
pub(crate) struct ReadEntry {
    pub idx: u32,
    pub version: u64,
}

#[derive(Clone, Copy)]
pub(crate) struct LockEntry {
    pub idx: u32,
    pub prev: u64,
}

#[derive(Clone, Copy)]
pub(crate) struct UndoEntry {
    pub addr: Addr,
    pub old: u64,
}

/// Where a transactional allocation's memory and classification live.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AllocHome {
    /// A block from the heap's own allocator — a large run, or a small
    /// block when the heap had no nursery region left to give — recorded
    /// in the active capture policy log; rollback frees it individually.
    Heap,
    /// Nursery bump block covered by the scalar range test; in no log.
    /// Rollback reclaims it wholesale with its region.
    NurseryScalar,
    /// Nursery bump block classified by the active capture policy log:
    /// every bump block when [`TxConfig::nursery`] is off, and, when it is
    /// on, the blocks of a region the nursery switched away from. Its
    /// memory still lives in a nursery region, so rollback must *not* free
    /// it individually.
    NurseryLogged,
}

#[derive(Clone, Copy)]
pub(crate) struct AllocRec {
    pub addr: Addr,
    pub usable: u64,
    pub level: u32,
    pub freed: bool,
    pub home: AllocHome,
}

/// Spawn-time-computed gates for the inline fast paths in
/// [`WorkerCtx::read_word`]/[`WorkerCtx::write_word`]. A flag is set only
/// when the corresponding check is (a) enabled by the runtime-mode scope
/// and (b) exact — i.e. an inline hit is guaranteed to take the very same
/// branch the monomorphized barrier would take, with the same counters.
/// All false under `classify` (every access must reach the classification
/// bookkeeping) and under `reference_dispatch` (the oracle pipeline models
/// per-access dispatch, nothing may shortcut it).
#[derive(Clone, Copy, Default)]
pub(crate) struct FastFlags {
    pub read_stack: bool,
    pub read_heap: bool,
    pub write_stack: bool,
    pub write_heap: bool,
    /// Nursery scalar-range checks (two compares, like the stack check).
    /// Exact by construction: the scalar range only ever holds blocks the
    /// current transaction bump-allocated and has not demoted (a block it
    /// freed dies in place, where nothing else can reach it).
    pub read_nursery: bool,
    pub write_nursery: bool,
}

impl FastFlags {
    fn compute(cfg: &TxConfig) -> FastFlags {
        let scope = match cfg.mode {
            Mode::Runtime { scope, .. } => scope,
            _ => return FastFlags::default(),
        };
        if cfg.classify || cfg.reference_dispatch {
            return FastFlags::default();
        }
        let nursery = cfg.nursery;
        FastFlags {
            read_stack: scope.reads && scope.stack,
            read_heap: scope.reads && scope.heap,
            write_stack: scope.writes && scope.stack,
            write_heap: scope.writes && scope.heap,
            read_nursery: nursery && scope.reads && scope.heap,
            write_nursery: nursery && scope.writes && scope.heap,
        }
    }
}

/// A registered worker thread: owns a simulated stack region, a nursery
/// region, the capture logs, and the (reusable) transaction logs. This is
/// the paper's *transaction descriptor* plus per-thread runtime state.
pub struct WorkerCtx<'rt> {
    pub(crate) rt: &'rt StmRuntime,
    /// Direct reference to the simulated memory (skips the `rt` → `Arc`
    /// pointer chain on every barrier's load/store).
    pub(crate) mem: &'rt txmem::SharedMem,
    /// The runtime's transaction records and their index mask, held
    /// directly for the same reason: a shared access reaches its record
    /// with one shift, one mask and one indexed load
    /// ([`WorkerCtx::orec_of`]). The mask is the slice's length minus one,
    /// kept apart because deriving it per access measured ~0.7 ns slower
    /// on the hot `full barrier (shared)` row.
    pub(crate) orecs: &'rt [AtomicU64],
    orec_mask: u64,
    pub(crate) cfg: TxConfig,
    /// The barrier pipeline's table, resolved once at runtime construction
    /// ([`DispatchTable::select`]): its entries are the generic barrier
    /// bodies instantiated for one pipeline, so all mode/log dispatch
    /// happens through these function pointers, never per access.
    pub(crate) table: &'static DispatchTable,
    /// Capture-check scope, hoisted out of [`Mode::Runtime`] so the
    /// runtime pipelines' barriers read it without touching the mode enum.
    /// Unused (and set to `FULL`) in the other modes.
    pub(crate) scope: CheckScope,
    tid: usize,
    pub(crate) stack: ThreadStack,
    /// Storage for the capture policies a pipeline projects into (only
    /// the spawn-time-selected one is ever populated).
    pub(crate) logs: CaptureLogs,
    /// Precise shadow log for Figure-8 classification (`cfg.classify`).
    pub(crate) classify_log: Option<RangeTree>,
    /// Annotated private memory (paper §3.1.3); persists across txns.
    pub(crate) private_log: PrivateLog,
    /// This worker's transaction statistics (merged into the runtime's
    /// aggregate by [`WorkerCtx::flush_stats`] / on drop).
    pub stats: TxStats,
    /// Hot-path barrier counters of the current transaction, absorbed into
    /// `stats` once per transaction end.
    pub(crate) pending: TxnDelta,

    // --- live transaction state (buffers reused across transactions) ---
    pub(crate) reads: Vec<ReadEntry>,
    pub(crate) locks: Vec<LockEntry>,
    pub(crate) undo: Vec<UndoEntry>,
    pub(crate) allocs: Vec<AllocRec>,
    pub(crate) frees: Vec<Addr>,
    /// A free of a block this transaction did not allocate lost one of the
    /// block's lines (`tx_free`): the free cannot be ordered, so the
    /// transaction must not commit. [`Tx::free`] returns nothing, so the
    /// commit rolls back and retries instead. Only a full rollback clears
    /// it: a partial one leaves it set, and the whole transaction retries.
    pub(crate) free_conflict: bool,
    /// Read-snapshot version: the last clock value this worker observed —
    /// the clock its last commit or full-rollback ticket loaded (never that
    /// ticket's `wv`), its last extension's value, or 0 at spawn. It carries over from one
    /// transaction to the next; begin does not read the clock (`clock.rs`
    /// module docs).
    pub(crate) rv: u64,
    /// Nesting depth; 0 = no transaction active.
    pub(crate) depth: u32,
    /// `start_sp` per nesting level (`sp_marks[d-1]` = sp when depth-d
    /// transaction began). `sp_marks[0]` bounds the whole transaction-local
    /// stack of the paper's Figure 3.
    pub(crate) sp_marks: Vec<u64>,
    /// Cache of `sp_marks[0]` (scalar, so the barrier's stack range check
    /// never indexes the vector). Only meaningful while `depth > 0`.
    pub(crate) sp_outer: u64,
    /// Cache of `sp_marks[depth - 1]`; see `sp_outer`.
    pub(crate) sp_inner: u64,
    /// Inline fast-path gates (see [`FastFlags`]).
    pub(crate) fast: FastFlags,
    /// One-entry capture cache: `[cap_start, cap_start + cap_len)` is a
    /// heap range the active policy proved captured at the *current or a
    /// deeper* nesting level, valid until the next free / level change /
    /// nested-transaction entry / transaction end (those all call
    /// [`WorkerCtx::clear_capture_cache`], which is what upholds the
    /// level invariant without a per-access level compare). `cap_len == 0`
    /// means empty. Populated with the whole block on any current-level
    /// heap hit, only from policies whose `query_run` gives a residency
    /// guarantee (tree, array — never the lossy filter), so an inline hit
    /// is always a hit the policy itself would report.
    pub(crate) cap_start: u64,
    pub(crate) cap_len: u64,
    /// Mirror of the nursery's scalar window `[nur_lo, nur_lo + nur_len)`,
    /// the range the runtime pipelines' classifier tests. The inline
    /// checks use it in the exact shape of the capture cache above: reads
    /// elide when `addr - nur_lo < nur_rlen` (any captured level), writes
    /// when `addr - nur_inner < nur_wlen` (current level only — ancestor
    /// hits need the undo-logged barrier path). Every field stays 0 with
    /// the nursery off, and the two inline lengths whenever the
    /// corresponding [`FastFlags`] gate is off (wrong mode, classify,
    /// reference dispatch, scope), so the checks need no separate flag
    /// test. Refreshed by [`WorkerCtx::refresh_nursery_window`] after every
    /// nursery mutation.
    pub(crate) nur_lo: u64,
    pub(crate) nur_len: u64,
    pub(crate) nur_rlen: u64,
    pub(crate) nur_inner: u64,
    pub(crate) nur_wlen: u64,
    /// The worker's nursery (see `crate::nursery`): the bump region every
    /// small transactional block comes from, whose `[lo, bump)` scalar
    /// range plus per-level watermark give the two-compare captured-heap
    /// check when [`TxConfig::nursery`] is on.
    pub(crate) nur: NurseryLog,
    /// `cfg.nursery`, hoisted: it picks a bump block's home (scalar range
    /// or log).
    pub(crate) nursery_on: bool,
    /// Usable bytes of this transaction's live (not yet freed) nursery
    /// blocks; an abort settles the heap's live-byte telemetry with one
    /// subtraction instead of walking the blocks.
    pub(crate) nursery_live: u64,
    /// Consecutive aborts of the currently-retried transaction.
    pub(crate) attempts: u64,
    /// Previous decorrelated-jitter backoff spin count (the `prev` of
    /// `sleep = rand(base, prev * 3)`); reset with `attempts`.
    pub(crate) backoff_prev: u64,
    /// This worker holds the global serialization token and is running (or
    /// about to run) solo.
    pub(crate) holds_token: bool,
    /// This worker's active flag is raised (`cm_announce`, at the running
    /// transaction's first lock acquisition); `cm_exit` lowers it.
    pub(crate) cm_announced: bool,
    /// Live lock-spin budget for the slow-path barriers: `cfg.spin_tries`
    /// normally, escalated by the contention ladder's karma tier while a
    /// transaction keeps aborting (reset with `attempts`).
    pub(crate) spin_budget: u32,
    /// Wall-clock deadline of the retried transaction's contention-manager
    /// time budget (armed at its second abort; see `stm::contention`):
    /// past it, the ladder serializes regardless of the attempt count.
    pub(crate) cm_deadline: Option<std::time::Instant>,
    /// `cfg.chaos.is_some()`, hoisted so the injection hook is one branch
    /// when disabled.
    pub(crate) chaos_on: bool,
    /// Per-worker deterministic rng stream of the chaos plan.
    pub(crate) chaos_rng: u64,
    /// The current attempt's commit is decided: raised when its first
    /// lock is released at the commit version (`WorkerCtx::publish`), or
    /// on entry to a read-only commit's tail, and lowered at the end of
    /// `WorkerCtx::finish_commit`. While it is up, unwinding abandons the
    /// commit's tail instead of rolling the attempt back.
    pub(crate) committed: bool,
    /// `rt.durable.is_some()`, hoisted for the commit path (the barrier
    /// hot paths never consult it).
    pub(crate) durable_on: bool,
    /// The framed redo record of the latest durable commit, encoded in
    /// place and appended to this worker's log file; reused across commits.
    pub(crate) dur_buf: Vec<u8>,
    /// Scratch for `durable_prepare`'s bulk copy of one content range out
    /// of simulated memory, reused across ranges and commits.
    pub(crate) dur_words: Vec<u64>,
    /// Scratch for `durable_prepare`'s shared-write address set, reused
    /// across commits.
    pub(crate) dur_puts: PutSet,
    /// Scratch for `durable_prepare`'s surviving-allocation ranges
    /// (`(start, words)`), reused across commits.
    pub(crate) dur_ranges: Vec<(u64, u64)>,
    rng: u64,
}

impl<'rt> WorkerCtx<'rt> {
    pub(crate) fn new(rt: &'rt StmRuntime, tid: usize) -> WorkerCtx<'rt> {
        let cfg = rt.config;
        let scope = match cfg.mode {
            Mode::Runtime { scope, .. } => scope,
            _ => CheckScope::FULL, // never consulted outside Runtime mode
        };
        WorkerCtx {
            rt,
            mem: rt.mem(),
            orecs: rt.orecs.records(),
            orec_mask: rt.orecs.len() as u64 - 1,
            cfg,
            table: rt.table,
            scope,
            tid,
            stack: ThreadStack::new(&rt.mem, tid),
            logs: CaptureLogs::new(&cfg),
            classify_log: cfg.classify.then(RangeTree::new),
            private_log: PrivateLog::new(),
            stats: TxStats::default(),
            pending: TxnDelta::default(),
            reads: Vec::with_capacity(256),
            locks: Vec::with_capacity(64),
            undo: Vec::with_capacity(64),
            allocs: Vec::with_capacity(32),
            frees: Vec::with_capacity(32),
            free_conflict: false,
            rv: 0,
            depth: 0,
            sp_marks: Vec::with_capacity(4),
            sp_outer: 0,
            sp_inner: 0,
            fast: FastFlags::compute(&cfg),
            cap_start: 0,
            cap_len: 0,
            nur_lo: 0,
            nur_len: 0,
            nur_rlen: 0,
            nur_inner: 0,
            nur_wlen: 0,
            nur: NurseryLog::new(),
            nursery_on: cfg.nursery,
            nursery_live: 0,
            attempts: 0,
            backoff_prev: 0,
            holds_token: false,
            cm_announced: false,
            spin_budget: cfg.spin_tries,
            cm_deadline: None,
            chaos_on: cfg.chaos.is_some(),
            chaos_rng: cfg.chaos.map_or(1, |p| p.rng_for(tid)),
            committed: false,
            durable_on: rt.durable.is_some(),
            dur_buf: Vec::new(),
            dur_words: Vec::new(),
            dur_puts: PutSet::default(),
            dur_ranges: Vec::new(),
            rng: 0x9E3779B97F4A7C15 ^ (tid as u64 + 1).wrapping_mul(0xA24BAED4963EE407),
        }
    }

    /// The worker's thread id (also selects its stack region).
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The runtime this worker was spawned from.
    #[inline]
    pub fn runtime(&self) -> &'rt StmRuntime {
        self.rt
    }

    /// The record guarding `addr` and its index.
    #[inline(always)]
    pub(crate) fn orec_of(&self, addr: Addr) -> (u32, &'rt AtomicU64) {
        let idx = line_index(addr, self.orec_mask);
        (idx, &self.orecs[idx as usize])
    }

    /// Transactional read of one word.
    ///
    /// Three *inline* exact fast paths run first — the nursery scalar
    /// range, the one-entry capture cache, and the current-level stack
    /// range compare — so the hottest captured accesses never leave the
    /// caller's loop. Everything else is a single indirect call into the
    /// pipeline's barrier instance the dispatch table selected at spawn.
    /// `inline(always)`: with three early-outs the body exceeds the
    /// inliner's default threshold, and falling back to a call costs more
    /// than every fast path combined (measured ~+45% on the captured-hit
    /// microbenchmark).
    #[inline(always)]
    pub(crate) fn read_word(&mut self, site: &'static Site, addr: Addr) -> TxResult<u64> {
        debug_assert!(self.depth > 0, "read barrier outside transaction");
        let a = addr.raw();
        // Nursery, cache, stack: the three regions are disjoint (fallback
        // blocks live outside the nursery's scalar range) and every check
        // is exact, so the order cannot change which counter a hit lands
        // in — only which workload pays one extra compare.
        if a.wrapping_sub(self.nur_lo) < self.nur_rlen {
            self.pending.reads.elided_nursery += 1;
            return Ok(self.mem.load_private(addr));
        }
        if self.fast.read_heap && a.wrapping_sub(self.cap_start) < self.cap_len {
            self.pending.reads.elided_heap += 1;
            return Ok(self.mem.load_private(addr));
        }
        if self.fast.read_stack && a >= self.stack.sp() && a < self.sp_inner {
            self.pending.reads.elided_stack += 1;
            return Ok(self.mem.load_private(addr));
        }
        let read = self.table.read;
        read(self, site, addr)
    }

    /// Transactional write of one word; see [`WorkerCtx::read_word`]. The
    /// inline paths cover only *current-level* captures (plain store);
    /// ancestor-captured writes need an undo entry and take the call.
    #[inline(always)]
    pub(crate) fn write_word(&mut self, site: &'static Site, addr: Addr, val: u64) -> TxResult<()> {
        debug_assert!(self.depth > 0, "write barrier outside transaction");
        let a = addr.raw();
        // Current-level nursery blocks only: `[inner, bump)` (ancestor
        // blocks in `[lo, inner)` need an undo entry and take the call).
        if a.wrapping_sub(self.nur_inner) < self.nur_wlen {
            self.pending.writes.elided_nursery += 1;
            self.mem.store_private(addr, val);
            return Ok(());
        }
        if self.fast.write_heap && a.wrapping_sub(self.cap_start) < self.cap_len {
            self.pending.writes.elided_heap += 1;
            self.mem.store_private(addr, val);
            return Ok(());
        }
        if self.fast.write_stack && a >= self.stack.sp() && a < self.sp_inner {
            self.pending.writes.elided_stack += 1;
            self.mem.store_private(addr, val);
            return Ok(());
        }
        let write = self.table.write;
        write(self, site, addr, val)
    }

    /// Ranged-telemetry bump for one classified run: multi-word runs count
    /// as spans, degenerate one-word runs as fallbacks. Telemetry only —
    /// the per-word `BarrierDelta` counters carry the equivalence contract,
    /// these just record how the words were batched.
    #[inline]
    pub(crate) fn bump_ranged_run(&mut self, words: usize) {
        if words > 1 {
            self.pending.ranged.spans += 1;
        } else {
            self.pending.ranged.fallbacks += 1;
        }
    }

    /// Ranged transactional read of `dst.len()` contiguous words starting
    /// at `addr`.
    ///
    /// Same layering as [`WorkerCtx::read_word`]: inline whole-span checks
    /// against the nursery window, the capture cache, and the current-level
    /// stack range run first (one classification covering the entire span),
    /// and only spans they cannot prove captured take the indirect call
    /// into the pipeline's ranged barrier, which classifies once per
    /// homogeneous run. Counter contract: every path moves the per-word
    /// counters exactly as a loop over [`WorkerCtx::read_word`] would.
    #[inline]
    pub(crate) fn read_range(
        &mut self,
        site: &'static Site,
        addr: Addr,
        dst: &mut [u64],
    ) -> TxResult<()> {
        debug_assert!(self.depth > 0, "read barrier outside transaction");
        if dst.is_empty() {
            return Ok(());
        }
        self.pending.ranged.reads += 1;
        let a = addr.raw();
        let len_b = words_to_bytes(dst.len() as u64);
        // Whole-span window tests prove `len_b` fits the window *before*
        // subtracting it, so they cannot underflow.
        if len_b <= self.nur_rlen && a.wrapping_sub(self.nur_lo) <= self.nur_rlen - len_b {
            self.bump_ranged_run(dst.len());
            self.pending.reads.elided_nursery += dst.len() as u64;
            self.mem.load_range_private(addr, dst);
            return Ok(());
        }
        if self.fast.read_heap
            && len_b <= self.cap_len
            && a.wrapping_sub(self.cap_start) <= self.cap_len - len_b
        {
            self.bump_ranged_run(dst.len());
            self.pending.reads.elided_heap += dst.len() as u64;
            self.mem.load_range_private(addr, dst);
            return Ok(());
        }
        if self.fast.read_stack && a >= self.stack.sp() && len_b <= self.sp_inner.saturating_sub(a)
        {
            self.bump_ranged_run(dst.len());
            self.pending.reads.elided_stack += dst.len() as u64;
            self.mem.load_range_private(addr, dst);
            return Ok(());
        }
        let read_range = self.table.read_range;
        read_range(self, site, addr, dst)
    }

    /// Ranged transactional write; see [`WorkerCtx::read_range`]. The
    /// inline paths cover only *current-level* captures (plain bulk store)
    /// — spans touching ancestor-captured memory take the call so every
    /// such word gets its undo entry.
    #[inline]
    pub(crate) fn write_range(
        &mut self,
        site: &'static Site,
        addr: Addr,
        src: &[u64],
    ) -> TxResult<()> {
        debug_assert!(self.depth > 0, "write barrier outside transaction");
        if src.is_empty() {
            return Ok(());
        }
        self.pending.ranged.writes += 1;
        let a = addr.raw();
        let len_b = words_to_bytes(src.len() as u64);
        if len_b <= self.nur_wlen && a.wrapping_sub(self.nur_inner) <= self.nur_wlen - len_b {
            self.bump_ranged_run(src.len());
            self.pending.writes.elided_nursery += src.len() as u64;
            self.mem.store_range_private(addr, src);
            return Ok(());
        }
        if self.fast.write_heap
            && len_b <= self.cap_len
            && a.wrapping_sub(self.cap_start) <= self.cap_len - len_b
        {
            self.bump_ranged_run(src.len());
            self.pending.writes.elided_heap += src.len() as u64;
            self.mem.store_range_private(addr, src);
            return Ok(());
        }
        if self.fast.write_stack && a >= self.stack.sp() && len_b <= self.sp_inner.saturating_sub(a)
        {
            self.bump_ranged_run(src.len());
            self.pending.writes.elided_stack += src.len() as u64;
            self.mem.store_range_private(addr, src);
            return Ok(());
        }
        let write_range = self.table.write_range;
        write_range(self, site, addr, src)
    }

    /// Forget the inline capture cache; called whenever a block leaves the
    /// captured set or its level relation to the current nesting could
    /// change (free, demote, rollback, nested entry, txn end).
    #[inline]
    pub(crate) fn clear_capture_cache(&mut self) {
        self.cap_start = 0;
        self.cap_len = 0;
    }

    /// Run a transaction to commit, retrying on conflicts under the
    /// contention manager (`stm::contention`: backoff, then karma
    /// patience, then the serialization token). A user abort
    /// escaping to this level is a logic error; use
    /// [`WorkerCtx::txn_result`] for transactions that abort on purpose.
    pub fn txn<T>(&mut self, mut f: impl FnMut(&mut Tx<'_, 'rt>) -> TxResult<T>) -> T {
        match self.txn_inner(&mut f) {
            Ok(v) => v,
            Err(code) => panic!("user abort (code {code}) escaped WorkerCtx::txn"),
        }
    }

    /// Like [`WorkerCtx::txn`] but surfaces user aborts as `Err(code)`.
    pub fn txn_result<T>(
        &mut self,
        mut f: impl FnMut(&mut Tx<'_, 'rt>) -> TxResult<T>,
    ) -> Result<T, u64> {
        self.txn_inner(&mut f)
    }

    fn txn_inner<T>(
        &mut self,
        f: &mut dyn FnMut(&mut Tx<'_, 'rt>) -> TxResult<T>,
    ) -> Result<T, u64> {
        debug_assert_eq!(self.depth, 0, "txn() cannot nest; use Tx::nested");
        let mut w = AttemptGuard(self);
        w.cm_reset();
        let t0 = w.stats.latency_sample_start();
        loop {
            w.begin_top();
            let result = {
                let mut tx = Tx(&mut w);
                f(&mut tx)
            };
            match result {
                Ok(v) => {
                    if w.try_commit() {
                        w.stats.latency_sample_end(t0);
                        w.disarm();
                        return Ok(v);
                    }
                    w.cm_after_abort();
                }
                Err(Abort::Conflict) => {
                    w.rollback_top();
                    w.cm_after_abort();
                }
                Err(Abort::User(code)) => {
                    w.rollback_top();
                    w.stats.aborts -= 1; // counted as user abort instead
                    w.stats.user_aborts += 1;
                    w.disarm();
                    return Err(code);
                }
            }
        }
    }

    #[inline]
    pub(crate) fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    // ------------------------------------------------------------------
    // Non-transactional helpers (setup / verification phases).
    // ------------------------------------------------------------------

    /// Direct load, outside any transaction.
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        debug_assert_eq!(self.depth, 0, "use tx barriers inside a transaction");
        self.mem.load(addr)
    }

    /// Direct store, outside any transaction.
    #[inline]
    pub fn store(&self, addr: Addr, val: u64) {
        debug_assert_eq!(self.depth, 0, "use tx barriers inside a transaction");
        self.mem.store(addr, val);
    }

    /// Direct load decoded as any word-codec type.
    #[inline]
    pub fn load_as<V: crate::TxWord>(&self, addr: Addr) -> V {
        V::from_word(self.load(addr))
    }

    /// Direct store encoded from any word-codec type; see
    /// [`WorkerCtx::load_as`].
    #[inline]
    pub fn store_as<V: crate::TxWord>(&self, addr: Addr, val: V) {
        self.store(addr, val.to_word())
    }

    /// Non-transactional allocation (never enters any capture log).
    pub fn alloc_raw(&mut self, size: u64) -> Addr {
        self.rt.alloc_or_panic(size, "")
    }

    /// Non-transactional free.
    pub fn free_raw(&mut self, addr: Addr) {
        self.stats.nursery_bytes_recycled += self.rt.heap.free(addr);
    }

    /// Push a stack frame outside a transaction (live-in data).
    pub fn stack_push(&mut self, words: usize) -> Addr {
        self.stack.push(words)
    }

    /// Pop a frame pushed with [`WorkerCtx::stack_push`].
    pub fn stack_pop(&mut self, words: usize) {
        self.stack.pop(words)
    }

    /// Paper Fig. 7: annotate a block as private (thread-local/read-only).
    pub fn add_private_memory_block(&mut self, addr: Addr, size: u64) {
        self.private_log.add_private_memory_block(addr.raw(), size);
    }

    /// Paper Fig. 7: remove a private-block annotation.
    pub fn remove_private_memory_block(&mut self, addr: Addr, size: u64) {
        self.private_log
            .remove_private_memory_block(addr.raw(), size);
    }

    /// Flush this worker's statistics into the runtime-wide aggregate
    /// (also done automatically on drop).
    pub fn flush_stats(&mut self) {
        let mut g = self.rt.global_stats.lock().unwrap();
        g.merge(&self.stats);
        self.stats = TxStats::default();
    }
}

impl Drop for WorkerCtx<'_> {
    fn drop(&mut self) {
        // A transaction never outlives its `txn` call, not even
        // by unwinding (`AttemptGuard`): no locks, token or active flag
        // are left to release here.
        debug_assert_eq!(self.depth, 0, "worker dropped inside a transaction");
        let at = self.nur.mark(); // let go of the held nursery region
        if at.end != 0 {
            self.release_nursery_region((at.start, at.end, at.bump));
        }
        self.flush_stats();
        self.rt.release_tid(self.tid);
    }
}

/// Handle to an *active* transaction. All transactional operations — the
/// read/write barriers, transactional allocation, stack frames, nesting —
/// live on this type; it is handed to the closure of [`WorkerCtx::txn`].
pub struct Tx<'a, 'rt>(pub(crate) &'a mut WorkerCtx<'rt>);

impl<'a, 'rt> Tx<'a, 'rt> {
    /// Transactional read of one word through the capture-optimized barrier.
    #[inline]
    pub fn read(&mut self, site: &'static Site, addr: Addr) -> TxResult<u64> {
        self.0.read_word(site, addr)
    }

    /// Transactional write of one word through the capture-optimized
    /// barrier.
    #[inline]
    pub fn write(&mut self, site: &'static Site, addr: Addr, val: u64) -> TxResult<()> {
        self.0.write_word(site, addr, val)
    }

    /// Ranged transactional read: fill `dst` from `dst.len()` contiguous
    /// words starting at `addr`, classifying capture once per contiguous
    /// run instead of once per word. Observationally identical to a loop
    /// of [`Tx::read`] over the span (same memory, same counters), just
    /// cheaper: captured runs lower to a bulk copy, shared runs acquire
    /// one orec per covered 64-byte stripe.
    #[inline]
    pub fn read_range(&mut self, site: &'static Site, addr: Addr, dst: &mut [u64]) -> TxResult<()> {
        self.0.read_range(site, addr, dst)
    }

    /// Ranged transactional write of `src.len()` contiguous words; see
    /// [`Tx::read_range`].
    #[inline]
    pub fn write_range(&mut self, site: &'static Site, addr: Addr, src: &[u64]) -> TxResult<()> {
        self.0.write_range(site, addr, src)
    }

    /// Fill `words` contiguous words starting at `addr` with `val` through
    /// the ranged write barrier. Chunked through a fixed stack buffer, so
    /// arbitrarily large fills allocate nothing.
    pub fn fill_range(
        &mut self,
        site: &'static Site,
        addr: Addr,
        val: u64,
        words: u64,
    ) -> TxResult<()> {
        let buf = [val; 128];
        let mut done = 0u64;
        while done < words {
            let n = (words - done).min(128) as usize;
            self.0.write_range(site, addr.word(done), &buf[..n])?;
            done += n as u64;
        }
        Ok(())
    }

    /// Transactional copy of `words` words from `src` to `dst` through the
    /// ranged barriers, staged through a fixed buffer. The spans must not
    /// overlap (debug-asserted): with an overlap, the chunked
    /// read-then-write order would differ from a word-by-word memmove.
    pub fn copy_range(
        &mut self,
        read_site: &'static Site,
        write_site: &'static Site,
        dst: Addr,
        src: Addr,
        words: u64,
    ) -> TxResult<()> {
        debug_assert!(
            dst.raw() + txmem::words_to_bytes(words) <= src.raw()
                || src.raw() + txmem::words_to_bytes(words) <= dst.raw(),
            "copy_range spans overlap"
        );
        let mut buf = [0u64; 128];
        let mut done = 0u64;
        while done < words {
            let n = (words - done).min(128) as usize;
            self.0
                .read_range(read_site, src.word(done), &mut buf[..n])?;
            self.0.write_range(write_site, dst.word(done), &buf[..n])?;
            done += n as u64;
        }
        Ok(())
    }

    /// Transactional allocation (paper §3.1.2): the block is recorded in
    /// the allocation log; an abort undoes the allocation.
    pub fn alloc(&mut self, size: u64) -> TxResult<Addr> {
        self.0.tx_alloc(size)
    }

    /// Transactional free: immediate for blocks this transaction
    /// allocated. Any other block is a write — its lines are locked now
    /// and the heap gets it back at commit — and a lock lost here makes
    /// the commit fail and the transaction retry.
    pub fn free(&mut self, addr: Addr) {
        self.0.tx_free(addr)
    }

    /// Push a transaction-local stack frame (paper Fig. 3: grows the
    /// captured stack range).
    pub fn stack_push(&mut self, words: usize) -> Addr {
        self.0.stack.push(words)
    }

    /// Pop a frame pushed inside this transaction.
    pub fn stack_pop(&mut self, words: usize) {
        self.0.stack.pop(words);
        debug_assert!(
            self.0.stack.sp() <= self.0.sp_marks[0],
            "popped a frame pushed before the transaction began"
        );
    }

    /// Abort this transaction with a user code; it is rolled back and *not*
    /// retried (surface with [`WorkerCtx::txn_result`] or catch with
    /// [`Tx::nested`] for partial abort).
    pub fn abort(&mut self, code: u64) -> Abort {
        Abort::User(code)
    }

    /// Run `f` as a closed-nested child transaction. A user abort inside
    /// `f` is a *partial abort*: only the child's effects are rolled back
    /// and `Err(code)` is returned; conflicts propagate and abort the whole
    /// transaction.
    pub fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Tx<'_, 'rt>) -> TxResult<T>,
    ) -> TxResult<Result<T, u64>> {
        self.0.nested(f)
    }

    /// Current nesting depth (1 = top-level).
    pub fn depth(&self) -> u32 {
        self.0.depth
    }

    /// The worker's id (for workloads that partition by thread).
    pub fn tid(&self) -> usize {
        self.0.tid()
    }

    /// Uninstrumented load inside a transaction. This is what a *statically
    /// elided* access compiles to (the `txcc` VM uses it for accesses its
    /// capture analysis proved transaction-local, and for register-modeled
    /// locals). Using it on genuinely shared data breaks isolation — that
    /// responsibility sits with the compiler, exactly as in the paper.
    #[inline]
    pub fn load_direct(&self, addr: Addr) -> u64 {
        self.0.mem.load_private(addr)
    }

    /// Uninstrumented store inside a transaction; see [`Tx::load_direct`].
    /// No undo logging: only correct for memory that dies with an abort
    /// (captured memory) or is never observed by other transactions.
    #[inline]
    pub fn store_direct(&mut self, addr: Addr, val: u64) {
        self.0.mem.store_private(addr, val);
    }

    /// Ground-truth capture query (precise shadow tree + stack range) for
    /// external oracles; `None` unless the runtime was configured with
    /// `TxConfig::classify`. See `WorkerCtx::observed_captured`.
    pub fn observed_captured(&self, addr: Addr) -> Option<bool> {
        self.0.observed_captured(addr)
    }

    /// Annotations may also be toggled mid-transaction; the change is not
    /// transactional (paper: annotations are a programmer promise).
    pub fn add_private_memory_block(&mut self, addr: Addr, size: u64) {
        self.0
            .private_log
            .add_private_memory_block(addr.raw(), size);
    }

    /// Remove a private-block annotation; see
    /// [`Tx::add_private_memory_block`].
    pub fn remove_private_memory_block(&mut self, addr: Addr, size: u64) {
        self.0
            .private_log
            .remove_private_memory_block(addr.raw(), size);
    }
}
