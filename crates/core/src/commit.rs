//! Transaction lifecycle: begin, validate/extend, commit, rollback, and
//! closed nesting with partial abort.
//!
//! Writing commits draw their version from the [`crate::clock::CommitClock`]
//! GV5 scheme: one load after the last lock, `wv` the clock plus 2, and
//! no write. The clock moves only when an extension meets a version above
//! it. Begin does not read the clock (the snapshot carries over from the
//! clock value the worker's last ticket or extension observed), and
//! read-only commits never touch it at all.

use std::sync::atomic::Ordering;

use capture::CapturePolicy;
use txmem::{Addr, HEADER_BYTES, WORD_BYTES};

use crate::durable::RecordEncoder;
use crate::orec::lock_value;
use crate::stats::TxnDelta;
use crate::worker::{AllocHome, Tx, TxResult, WorkerCtx};

/// Snapshot of the log positions at nested-transaction begin; partial abort
/// rolls back to these marks.
pub(crate) struct Checkpoint {
    reads: usize,
    locks: usize,
    undo: usize,
    allocs: usize,
    frees: usize,
    sp: u64,
    nur: capture::NurseryMark,
}

/// Unwinding out of a transaction is a rollback. [`WorkerCtx::txn_result`]
/// runs its whole retry loop — every attempt from `begin_top` to its
/// commit or rollback, and the contention manager between attempts —
/// through this guard. If anything in it panics, the
/// drop restores the undo log, releases the orec locks at a fresh version,
/// and hands back the serialization token and the active flag before the
/// panic leaves the runtime, so the same worker and every other one can
/// run again. An attempt whose commit was already decided
/// ([`WorkerCtx::committed`]) is never rolled back: the drop abandons the
/// rest of its commit instead.
pub(crate) struct AttemptGuard<'w, 'rt>(pub(crate) &'w mut WorkerCtx<'rt>);

impl<'rt> std::ops::Deref for AttemptGuard<'_, 'rt> {
    type Target = WorkerCtx<'rt>;
    fn deref(&self) -> &WorkerCtx<'rt> {
        self.0
    }
}

impl<'rt> std::ops::DerefMut for AttemptGuard<'_, 'rt> {
    fn deref_mut(&mut self) -> &mut WorkerCtx<'rt> {
        self.0
    }
}

impl AttemptGuard<'_, '_> {
    /// A normal exit: the last attempt committed or rolled back, and both
    /// end with `cm_exit`, so there is nothing left to unwind. Skipping the
    /// drop keeps its code off the per-transaction path (a missed `disarm`
    /// is only slower: the drop then just re-runs `cm_exit`).
    pub(crate) fn disarm(self) {
        std::mem::forget(self);
    }
}

impl Drop for AttemptGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.unwind_attempt();
    }
}

impl WorkerCtx<'_> {
    /// [`AttemptGuard`]'s unwinding path.
    #[cold]
    #[inline(never)]
    fn unwind_attempt(&mut self) {
        if self.committed {
            self.abandon_commit(); // ends with `cm_exit`
        } else if self.depth > 0 {
            self.rollback_top(); // ends with `cm_exit`
        } else {
            // Between attempts: the contention manager may hold the token.
            self.cm_exit();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test fault: the next commit on this thread panics at the start of
    /// its tail, after publication — where a deferred free or a poisoned
    /// heap lock can panic for real.
    pub(crate) static PANIC_IN_COMMIT_TAIL: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

impl<'rt> WorkerCtx<'rt> {
    pub(crate) fn begin_top(&mut self) {
        debug_assert_eq!(self.depth, 0);
        debug_assert!(
            self.reads.is_empty()
                && self.locks.is_empty()
                && self.undo.is_empty()
                && self.allocs.is_empty()
                && self.frees.is_empty(),
            "stale transaction logs at begin"
        );
        self.cm_enter();
        // `rv` is the snapshot this worker carried over, a clock value it
        // already observed (`clock.rs` module docs).
        self.depth = 1;
        debug_assert!(self.sp_marks.is_empty(), "stale sp marks at begin");
        let sp = self.stack.sp();
        self.sp_marks.push(sp);
        self.sp_outer = sp;
        self.sp_inner = sp;
        debug_assert_eq!(self.cap_len, 0, "stale capture cache at begin");
        debug_assert_eq!(self.nursery_live, 0, "stale nursery bytes at begin");
        // The nursery's scalar range and inline window were emptied at
        // transaction end.
        debug_assert!(self.nur.left().is_empty() && (self.nur_len | self.nur_wlen) == 0);
    }

    /// Validate the whole read set against the *current* record versions,
    /// one load per entry. A record this transaction has since locked is
    /// always consistent: `acquire` took it at a version `prev ≤ rv`,
    /// extending first when it met a newer one, and a change between an
    /// earlier read and that lock would have failed the extension (DESIGN
    /// §5.1), so every read entry of it saw `prev`.
    pub(crate) fn validate(&self) -> bool {
        let mine = lock_value(self.tid() as u64);
        self.reads.iter().all(|r| {
            let cur = self.orecs[r.idx as usize].load(Ordering::Acquire);
            cur == r.version || cur == mine
        })
    }

    /// Timestamp extension for an access that met version `seen > rv`:
    /// bring the clock to at least `seen` (one `fetch_max`, only when it
    /// is below), validate, and adopt that clock value as the snapshot on
    /// success (TinySTM-style; keeps optimistic readers consistent without
    /// visible-reader locking). Under GV5 a commit publishes above the
    /// clock, so a reader meeting its version is what moves the clock.
    pub(crate) fn extend(&mut self, seen: u64) -> bool {
        self.chaos(crate::contention::ChaosPoint::Validation);
        self.stats.extensions += 1;
        let mut new_rv = self.rt.clock.read();
        if new_rv < seen {
            new_rv = self.rt.clock.advance_to(seen);
            self.stats.clock_advances += 1;
        }
        if self.validate() {
            self.rv = new_rv;
            true
        } else {
            false
        }
    }

    /// Attempt to commit the top-level transaction. On validation failure
    /// the transaction is rolled back and `false` returned (caller retries).
    pub(crate) fn try_commit(&mut self) -> bool {
        debug_assert_eq!(self.depth, 1, "commit with open nested transaction");
        if self.free_conflict {
            self.rollback_top();
            return false;
        }
        if self.locks.is_empty() {
            // Read-only (or fully-elided) transaction: incremental
            // validation already guaranteed a consistent snapshot at `rv`;
            // the commit is clock-silent. A durable one with something to
            // log may still append a record: it announces, so a checkpoint
            // drains it or turns it away before it counts (DESIGN.md §11.3).
            if self.durable_on && self.logs_something() && self.cm_announce().is_err() {
                self.rollback_top();
                return false;
            }
            self.stats.commits_ro += 1;
            self.durable_prepare(None);
            self.nursery_publish();
            self.finish_commit();
            return true;
        }
        // All locks are held, so the ticket is safe to draw now (the
        // invariant in clock.rs requires lock-then-load order). Another
        // writer can publish at `wv` without moving the clock, so the read
        // set is always validated.
        let ticket = self.rt.clock.writer_ticket();
        self.chaos(crate::contention::ChaosPoint::Validation);
        if !self.validate() {
            self.stats.conflict_validation += 1;
            self.rollback_top();
            return false;
        }
        self.chaos(crate::contention::ChaosPoint::Commit);
        // Durable record *before* publication: the record is on disk
        // before any other transaction can observe (and depend on) these
        // writes, so the on-disk record set at any crash instant is
        // dependency-closed.
        self.durable_prepare(Some(ticket.wv()));
        self.nursery_publish();
        self.publish(ticket.wv());
        // The next transaction's snapshot: the value this worker loaded,
        // not `wv`, which another writer may still publish at.
        self.rv = ticket.seen;
        self.finish_commit();
        true
    }

    /// Release every lock at the commit version `wv`, making the writes
    /// visible (undo values are already in place: in-place update STM).
    /// From the first release on the attempt is committed and must not be
    /// rolled back, so `committed` is raised before it.
    pub(crate) fn publish(&mut self, wv: u64) {
        self.committed = true;
        for l in &self.locks {
            self.orecs[l.idx as usize].store(wv, Ordering::Release);
        }
        self.locks.clear();
    }

    /// The tail of every commit, after publication (a read-only commit is
    /// decided on entry). Raises `committed` for read-only commits and
    /// lowers it once nothing the tail hands back is left in flight.
    pub(crate) fn finish_commit(&mut self) {
        self.committed = true;
        #[cfg(test)]
        if PANIC_IN_COMMIT_TAIL.with(|p| p.replace(false)) {
            panic!("injected panic in the commit tail");
        }
        if self.durable_on && !self.frees.is_empty() {
            // A record that logs this space once it is reused must replay
            // after every record that logged it before: this commit's own,
            // locking or lock-free, and earlier ones. Each of those drew
            // its version from a clock value this worker can already see,
            // so moving the clock 2 past the value it loads now puts the
            // reuser's ticket above them all (DESIGN §11.1).
            self.rt.clock.advance_to(self.rt.clock.read() + 2);
            self.stats.clock_advances += 1;
        }
        // Deferred frees execute now that the transaction is published.
        let n_frees = self.frees.len();
        for i in 0..n_frees {
            let addr = self.frees[i];
            self.stats.nursery_bytes_recycled += self.rt.heap.free(addr);
        }
        self.frees.clear();
        self.stats.tx_frees += n_frees as u64;
        // Keep the nursery region and its bump; let go of the others.
        self.nursery_commit();
        // Allocations survive; the allocation log empties at transaction
        // end (paper §3.1.3: "allocation log gets emptied on every
        // transaction end"). Entries live and die with their `allocs` record.
        if !self.allocs.is_empty() {
            self.allocs.clear();
            (self.table.reset)(&mut self.logs);
            self.clear_capture_cache();
            if let Some(t) = self.classify_log.as_mut() {
                t.clear();
            }
        }
        self.reads.clear();
        self.undo.clear();
        self.depth = 0;
        self.sp_marks.clear();
        self.stats.commits += 1;
        if self.pending != TxnDelta::default() {
            let delta = std::mem::take(&mut self.pending);
            self.stats.absorb(&delta);
        }
        self.committed = false;
        self.cm_exit();
    }

    /// Unwinding out of a decided commit (a panic between
    /// [`WorkerCtx::publish`] and the end of [`WorkerCtx::finish_commit`],
    /// say in a deferred free): the writes are visible, so nothing is
    /// restored and no block the transaction allocated is freed. The
    /// worker is reset to its between-transactions state instead; the
    /// deferred frees the tail had not handed back yet and the nursery
    /// regions leak, which is never worse than handing them back twice.
    fn abandon_commit(&mut self) {
        self.committed = false;
        self.reads.clear();
        self.undo.clear();
        self.allocs.clear();
        (self.table.reset)(&mut self.logs);
        self.clear_capture_cache();
        if let Some(t) = self.classify_log.as_mut() {
            t.clear();
        }
        self.frees.clear();
        self.nursery_forget();
        self.sp_marks.clear();
        self.depth = 0;
        self.cm_exit();
    }

    /// Roll back the whole transaction: restore undo values (newest first),
    /// release locks at a fresh ticket (see the comment inside), undo
    /// allocations, cancel deferred frees, reset the stack pointer.
    pub(crate) fn rollback_top(&mut self) {
        debug_assert!(self.depth >= 1);
        while let Some(u) = self.undo.pop() {
            self.mem.store(u.addr, u.old);
        }
        // Release at a *fresh* version, not `prev`: restoring the pre-lock
        // version would let a concurrent versioned-read sandwich (v1 ==
        // v2) span this lock/dirty-write/rollback episode and accept the
        // transient in-place value as if it were the committed one — an
        // ABA the read validation can never detect, because the restored
        // version lies about the word having been (briefly) dirty. A
        // ticket drawn with the locks held is strictly greater than every
        // pre-lock version in the set (clock.rs), so such sandwiches and
        // validations fail instead; the value they then re-read is the
        // restored (committed) one. The release republishes the restored
        // values at the ticket, like a commit.
        if !self.locks.is_empty() {
            let t = self.rt.clock.writer_ticket();
            for l in self.locks.drain(..) {
                self.orecs[l.idx as usize].store(t.wv(), Ordering::Release);
            }
            // The read set is gone, so the retry may start from the value
            // loaded (not `wv`, for the reason a commit does not).
            self.rv = t.seen;
        }
        self.reads.clear();
        // Undo allocations: blocks this transaction allocated vanish.
        // Heap blocks are freed individually; bump blocks (scalar or
        // logged) were never counted on their pages, and the bump rewind
        // below reclaims them all at once.
        for rec in &self.allocs {
            if !rec.freed && rec.home == AllocHome::Heap {
                self.rt.heap.free(rec.addr);
            }
        }
        self.allocs.clear();
        self.nursery_abort();
        (self.table.reset)(&mut self.logs);
        self.clear_capture_cache();
        if let Some(t) = self.classify_log.as_mut() {
            t.clear();
        }
        self.frees.clear(); // deferred frees are cancelled
        self.free_conflict = false;
        self.stack.reset_to(self.sp_marks[0]);
        self.sp_marks.clear();
        self.depth = 0;
        self.stats.aborts += 1;
        let delta = std::mem::take(&mut self.pending);
        self.stats.absorb(&delta);
        self.cm_exit();
    }

    /// Snapshot the current log positions (the state a partial rollback
    /// restores). Taken at nested-transaction begin.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            reads: self.reads.len(),
            locks: self.locks.len(),
            undo: self.undo.len(),
            allocs: self.allocs.len(),
            frees: self.frees.len(),
            sp: self.stack.sp(),
            nur: self.nur.mark(),
        }
    }

    /// Open a new nesting level at `cp` (depth, sp mark, nursery
    /// watermark, capture cache): the entry sequence of
    /// [`WorkerCtx::nested`].
    fn push_level(&mut self, cp: &Checkpoint) {
        self.depth += 1;
        self.sp_marks.push(cp.sp);
        self.sp_inner = cp.sp;
        // Snapshot the bump pointer as the level's nursery watermark (the
        // heap analogue of the sp mark pushed above).
        self.nursery_push_level();
        // The cached block (if any) was captured at a shallower level; for
        // the new level it is ancestor-captured and must take the undo
        // path.
        self.clear_capture_cache();
    }

    /// Closed-nested child transaction with partial abort (paper §2.2.1).
    pub(crate) fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Tx<'_, 'rt>) -> TxResult<T>,
    ) -> TxResult<Result<T, u64>> {
        debug_assert!(self.depth >= 1, "nested() outside a transaction");
        let cp = self.checkpoint();
        self.push_level(&cp);
        let result = {
            let mut tx = Tx(self);
            f(&mut tx)
        };
        match result {
            Ok(v) => {
                // Child commits into the parent: its allocations now belong
                // to the parent level. Demote their capture level so a later
                // sibling at the same depth undo-logs writes to them.
                // Scalar-resident nursery blocks demote for free: popping
                // the child's watermark below re-levels everything above it.
                let parent = self.depth - 1;
                for i in cp.allocs..self.allocs.len() {
                    let rec = &mut self.allocs[i];
                    if rec.level > parent && !rec.freed {
                        if rec.home != AllocHome::NurseryScalar {
                            (self.table.on_free)(&mut self.logs, rec.addr.raw(), rec.usable);
                            (self.table.on_alloc)(
                                &mut self.logs,
                                rec.addr.raw(),
                                rec.usable,
                                parent,
                            );
                        }
                        rec.level = parent;
                    }
                }
                // Demotion may have changed the level of the cached block;
                // a stale level would misclassify a later sibling's write
                // as current-level (skipping its undo entry).
                self.clear_capture_cache();
                self.depth -= 1;
                self.sp_marks.pop();
                self.sp_inner = *self.sp_marks.last().expect("outermost mark");
                self.nursery_pop_level();
                Ok(Ok(v))
            }
            Err(crate::worker::Abort::User(code)) => {
                self.partial_rollback(cp);
                self.stats.partial_aborts += 1;
                Ok(Err(code))
            }
            Err(e) => {
                // Conflicts abort the whole transaction; the top-level
                // retry loop handles rollback.
                self.depth -= 1;
                self.sp_marks.pop();
                self.sp_inner = *self.sp_marks.last().expect("outermost mark");
                self.nursery_pop_level();
                Err(e)
            }
        }
    }

    /// Whether a durable commit of this transaction appends a record: it
    /// has an allocation, or an undo entry outside the worker's own stack
    /// (a nested child's write to a frame its parent pushed is undo-logged
    /// but is no shared state). The one test both for the announce of a
    /// lock-free commit and for `durable_prepare`'s gather.
    fn logs_something(&self) -> bool {
        !self.allocs.is_empty() || self.undo.iter().any(|u| !self.stack.contains(u.addr))
    }

    /// Encode this commit's redo record and append it to the worker's log
    /// (no-op on non-durable runtimes). Must run *while the write
    /// locks are still held*, before publication: in an in-place-update STM
    /// current memory *is* the committed value, and the locks keep every
    /// logged word race-free.
    ///
    /// `wv` is the commit version drawn by the caller (`None` for a
    /// lock-free commit, which only needs a ticket if it logs content
    /// ranges).
    ///
    /// What gets logged (DESIGN.md §11):
    /// * **puts** — undo-log entries *outside* every in-transaction
    ///   allocation: the genuinely shared writes. Values are read back
    ///   from memory; each address ships once, in first-write order,
    ///   deduplicated in O(n) by a seen-set ([`PutSet`](crate::durable::PutSet)).
    /// * **content ranges** — one coalesced range per *surviving*
    ///   allocation, header word included, covering every write the
    ///   capture machinery elided into it.
    /// * **nothing** for stack/dead/freed memory — that is the
    ///   paper's capture dividend extended to durability, accounted in
    ///   `TxStats::durable_skipped`.
    ///
    /// The record is sealed with [`crc32`](crate::durable::crc32), which
    /// folds by carry-less multiply where the CPU has it.
    ///
    /// Transactions with an empty payload (pure reads) write no record;
    /// their logical count is folded into the *next* record's cumulative
    /// `logical_total`, which stays exact because stateless transactions
    /// are unobservable in recovered memory.
    pub(crate) fn durable_prepare(&mut self, wv: Option<u64>) {
        if !self.durable_on {
            return;
        }
        let ds = self.rt.durable.as_ref().unwrap();
        let total = ds.add_logical(self.tid());
        // Committed write events the capture machinery kept out of the log.
        let w = &self.pending.writes;
        self.stats.durable_skipped += w.elided_stack
            + w.elided_heap
            + w.elided_nursery
            + w.elided_static
            + w.elided_static_interproc
            + w.elided_annotation
            + w.parent_captured;
        if !self.logs_something() {
            return; // read-only: nothing to gather, the count rides the next record
        }
        // Surviving allocations → coalesced content ranges. The header
        // word rides along so recovery restores allocator metadata too.
        // (`dur_ranges`/`dur_puts`/`dur_words` are worker-owned scratch:
        // this runs on every durable commit, so it must not allocate.)
        let mut ranges = std::mem::take(&mut self.dur_ranges);
        ranges.clear();
        for rec in &self.allocs {
            if !rec.freed {
                let start = rec.addr.raw() - HEADER_BYTES;
                // The header word holds the block's total byte count
                // (header included) — exactly the span to log.
                let total_bytes = self.mem.load_private(Addr(start));
                ranges.push((start, total_bytes / WORD_BYTES));
            }
        }
        // Shared puts: undo entries neither on the worker's stack nor
        // inside *any* in-transaction allocation (live ones are covered by
        // their range; dead ones are not recoverable state), each address
        // once so re-written words are logged once, in first-write order.
        let mut puts = std::mem::take(&mut self.dur_puts);
        let (allocs, stack) = (&self.allocs, &self.stack);
        // `a - start < usable`, wrapping: `start <= a < start + usable` in
        // one compare.
        let shared = self.undo.iter().map(|u| u.addr.raw()).filter(|&a| {
            !stack.contains(Addr(a))
                && !allocs
                    .iter()
                    .any(|r| a.wrapping_sub(r.addr.raw()) < r.usable)
        });
        puts.gather(self.undo.len(), shared);
        if puts.addrs().is_empty() && ranges.is_empty() {
            self.dur_ranges = ranges;
            self.dur_puts = puts;
            return;
        }
        let wv = match wv {
            Some(v) => v,
            None => {
                // Lock-free commit with surviving allocations: draw a real
                // ticket so the record orders strictly after any earlier
                // writer (or freer) of recycled space. A durable freer
                // advanced the clock past its version before the space
                // came back, so this load is at or above it. Pure-put records
                // can't reach here — an undo entry outside the allocation
                // set implies a lock.
                debug_assert!(!ranges.is_empty());
                let t = self.rt.clock.writer_ticket();
                self.rv = t.seen;
                t.wv()
            }
        };
        // Encoded where it is flushed from: straight into `dur_buf`.
        let head = [ds.next_seq(self.tid()), wv, self.rt.heap.frontier(), total];
        let mut enc = RecordEncoder::new(&mut self.dur_buf, head);
        let mut words = puts.addrs().len() as u64;
        for &a in puts.addrs() {
            enc.put(a, self.mem.load_private(Addr(a)));
        }
        for &(start, n) in &ranges {
            self.dur_words.resize(n as usize, 0);
            self.mem
                .load_range_private(Addr(start), &mut self.dur_words);
            enc.range(start, &self.dur_words);
            words += n;
        }
        enc.finish();
        self.dur_ranges = ranges;
        self.dur_puts = puts;
        self.stats.durable_words += words;
        // On disk before the caller publishes the locks.
        ds.disk.append_log(self.tid(), &self.dur_buf);
        self.stats.durable_flushes += 1;
    }

    fn partial_rollback(&mut self, cp: Checkpoint) {
        while self.undo.len() > cp.undo {
            let u = self.undo.pop().unwrap();
            self.mem.store(u.addr, u.old);
        }
        // Fresh release version for the same anti-ABA reason as
        // `rollback_top` (see the comment there); one ticket covers every
        // lock this child acquired. Unlike a full rollback, the *parent*
        // transaction survives — and its read set may hold entries for
        // these very orecs, recorded at the pre-lock version. Those reads
        // are still semantically valid (we held the lock across the whole
        // child episode, so no other writer intervened and the restored
        // value is exactly the one they observed), but version-equality
        // validation would reject them forever once the orec jumps to the
        // fresh ticket — a deterministic self-livelock on retry (the
        // liveness oracle's nested-abort shape found this). Re-stamp the
        // surviving entries whose recorded version matches the released
        // lock's `prev` so they expect the republished version instead.
        self.reads.truncate(cp.reads);
        if self.locks.len() > cp.locks {
            let wv = self.rt.clock.writer_ticket().wv();
            let released: Vec<(u32, u64)> = self.locks[cp.locks..]
                .iter()
                .map(|l| (l.idx, l.prev))
                .collect();
            self.locks.truncate(cp.locks);
            for (idx, _) in &released {
                self.orecs[*idx as usize].store(wv, Ordering::Release);
            }
            for r in &mut self.reads {
                if released.contains(&(r.idx, r.version)) {
                    r.version = wv;
                }
            }
        }
        while self.allocs.len() > cp.allocs {
            let rec = self.allocs.pop().unwrap();
            if let Some(t) = self.classify_log.as_mut() {
                t.remove(rec.addr.raw(), rec.usable);
            }
            match rec.home {
                AllocHome::Heap => {
                    (self.table.on_free)(&mut self.logs, rec.addr.raw(), rec.usable);
                    if !rec.freed {
                        self.rt.heap.free(rec.addr);
                    }
                }
                AllocHome::NurseryScalar | AllocHome::NurseryLogged => {
                    if rec.home == AllocHome::NurseryLogged {
                        (self.table.on_free)(&mut self.logs, rec.addr.raw(), rec.usable);
                    }
                    // Never counted on its page: its space comes back with
                    // the bump rewind below, or dies in place.
                    if !rec.freed {
                        self.rt.heap.forget_live_bytes(rec.usable);
                        self.nursery_live -= rec.usable;
                    }
                }
            }
        }
        self.frees.truncate(cp.frees);
        self.nursery_partial_abort(cp.nur);
        self.clear_capture_cache(); // rolled-back blocks left the captured set
        self.stack.reset_to(cp.sp);
        self.sp_marks.pop();
        self.sp_inner = *self.sp_marks.last().expect("outermost mark");
        self.depth -= 1;
    }
}
