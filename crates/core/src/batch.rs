//! Application-side transaction merging (`stm::batch`): execute up to N
//! *logical* (application) transactions inside one *physical* transaction,
//! amortizing the fixed per-commit costs — GV4 clock CAS, read-set
//! validation, orec publication, stats absorption — N-fold, and extending
//! the capture window so memory allocated by logical transaction *i* is
//! still **captured** (nursery scalar range / allocation log) when logical
//! transaction *i+1* touches it. Cross-transaction producer–consumer
//! traffic that pays the shared slow path unmerged collapses to the
//! two-compare captured hit.
//!
//! # Logical boundaries are nesting levels
//!
//! A logical boundary reuses the closed-nesting machinery wholesale: it
//! takes a [`Checkpoint`](crate::commit::Checkpoint) of the log positions
//! (read/lock/undo/alloc/free lengths, sp mark, nursery watermark) and
//! pushes a nesting level, exactly like `Tx::nested` entry. The
//! consequences fall out of the existing level rules:
//!
//! * **Captured status survives the boundary** — a block allocated by an
//!   earlier logical transaction classifies at an *ancestor* level, so
//!   reads stay fully elided (any captured level elides) and writes take
//!   the ancestor path: an undo entry, no orec lock. The undo entry is
//!   what makes splitting sound: if a later logical transaction aborts,
//!   rolling back to the boundary restores every word of the salvaged
//!   prefix it overwrote.
//! * **Frees of earlier logical transactions' blocks defer** to the
//!   physical commit (the ancestor-level path in `tx_free`), so an address
//!   can never be recycled *and reallocated* within the batch — the
//!   free-then-realloc hazard that would otherwise let two logical
//!   transactions alias one block is structurally excluded. The cost:
//!   allocation placement can differ from unmerged execution, which is why
//!   the oracle compares handle-based observable memory, not raw layout.
//!
//! # Split and salvage
//!
//! On a conflict mid-batch the batch truncates to the last clean
//! *invocation* boundary: the in-flight closure invocation partially
//! rolls back (checkpoint unwind), the committed-so-far logical
//! transactions are salvaged by committing the physical transaction
//! early, and the conflicting remainder retries unmerged (a quota-1
//! window) before merging resumes. Commit-time validation failures are
//! handled watermark-aware: the first invalid read-set entry locates the
//! earliest dirty logical transaction, and only it and its successors
//! roll back.
//!
//! Publishing a salvaged prefix's locks is sound because the logs are
//! append-ordered by execution time: every lock acquired *after* a
//! boundary belongs to that boundary's successors and is released at its
//! pre-lock version by the unwind, while words written under an
//! already-held earlier lock are restored by the suffix's undo entries
//! (rolled back newest-first) before the prefix publishes.

use crate::commit::{AttemptGuard, BatchMark};
use crate::worker::{Abort, Tx, TxResult, WorkerCtx};

/// Outcome of one [`WorkerCtx::txn_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRun {
    /// Logical transactions durably committed by this call.
    pub committed: u64,
    /// `Some(code)` when a user abort ended the batch early: the aborting
    /// logical transaction was rolled back (it is *not* retried, matching
    /// `WorkerCtx::txn_result`), everything in `committed` is durable.
    pub user_abort: Option<u64>,
}

/// Handle to an active logical transaction inside a merged batch. Derefs
/// to [`Tx`], so every transactional operation (barriers, alloc/free,
/// stack frames, nesting) is available unchanged — including the typed
/// `TxPtr`/`TxSlice` layer built on them.
pub struct TxBatch<'a, 'rt> {
    tx: Tx<'a, 'rt>,
}

impl<'a, 'rt> std::ops::Deref for TxBatch<'a, 'rt> {
    type Target = Tx<'a, 'rt>;
    #[inline]
    fn deref(&self) -> &Tx<'a, 'rt> {
        &self.tx
    }
}

impl std::ops::DerefMut for TxBatch<'_, '_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.tx
    }
}

impl TxBatch<'_, '_> {
    /// Close the current logical transaction and open the next one within
    /// the same closure invocation (an *explicit* boundary; the implicit
    /// one sits between invocations). Counts against the batch's logical
    /// budget. Must be called at the logical transaction's own nesting
    /// level — not inside a `Tx::nested` child.
    ///
    /// Split granularity remains the closure invocation: a conflict rolls
    /// back the whole in-flight invocation (its explicit-boundary segments
    /// included), because a closure body cannot be resumed mid-flight.
    pub fn boundary(&mut self) -> TxResult<()> {
        self.tx.0.batch_boundary()
    }

    /// Zero-based index of the current logical transaction within the
    /// whole `txn_batch` call: durably committed by earlier windows +
    /// completed in this window + the in-flight one. Stable across splits
    /// — after a salvage, the retrying invocation sees the same index it
    /// had before — so a closure can use it to walk an external work list.
    pub fn logical_index(&self) -> u64 {
        self.tx.0.batch_base + self.tx.0.batch_logical
    }
}

/// How a batch window ended (internal control flow).
enum WindowEnd {
    /// Window committed everything it ran and the quota is used up.
    Filled,
    /// The closure asked to stop and its final logical transaction
    /// committed.
    Stopped,
    /// A split salvaged a prefix (or a commit-time validation failure
    /// truncated one); the remainder must retry unmerged.
    Split,
    /// The whole window rolled back; retry unmerged.
    Aborted,
    /// A user abort ended the batch.
    User(u64),
}

impl<'rt> WorkerCtx<'rt> {
    /// Run up to `n` logical transactions inside physical transactions of
    /// up to `n` each (one, when nothing conflicts). The closure is
    /// invoked once per logical transaction; it returns `Ok(true)` to
    /// continue the batch, `Ok(false)` to finish after the current logical
    /// transaction (which still commits — e.g. "work queue drained"), or
    /// an abort. [`TxBatch::boundary`] subdivides a single invocation into
    /// several logical transactions.
    ///
    /// Semantics are those of running each logical transaction with
    /// [`WorkerCtx::txn`] / [`WorkerCtx::txn_result`]: same committed
    /// memory, same logical commit/abort counts (`TxStats::commits` counts
    /// logical transactions; only the physical counters — `commits_ro`,
    /// `clock_adopts` — see the merging). Conflicts split the batch: the
    /// clean prefix is salvaged, the conflicting invocation retries
    /// unmerged, then merging resumes. Closure invocations may therefore
    /// re-execute, exactly like a `txn` closure retries after an abort.
    ///
    /// `n` must be in `1..=TxConfig::merge_max`; `merge_max` is validated
    /// at config build time and merging is rejected under
    /// `reference_dispatch`.
    pub fn txn_batch(
        &mut self,
        n: usize,
        mut f: impl FnMut(&mut TxBatch<'_, 'rt>) -> TxResult<bool>,
    ) -> BatchRun {
        assert_eq!(self.depth, 0, "txn_batch() cannot nest");
        assert!(n >= 1, "txn_batch requires a merge factor of at least 1");
        assert!(
            (n as u64) <= u64::from(self.cfg.merge_max),
            "merge factor {n} exceeds TxConfig::merge_max {}",
            self.cfg.merge_max
        );
        let mut w = AttemptGuard(self);
        w.cm_reset();
        let n = n as u64;
        let mut total = 0u64;
        // After a split/abort the next window runs a single logical
        // transaction — "the conflicting remainder retries unmerged" —
        // then full-width merging resumes.
        let mut degraded = false;
        let mut t0 = w.stats.latency_sample_start();
        while total < n {
            let quota = if degraded { 1 } else { n - total };
            w.batch_base = total;
            let (committed, end) = w.run_window(quota, &mut f);
            total += committed;
            if committed > 0 {
                // Forward progress: de-escalate the contention ladder and
                // book the committed window's latency if it was sampled
                // (retried attempts since the last committed window included).
                w.cm_reset();
                w.stats.latency_sample_end(t0);
                t0 = w.stats.latency_sample_start();
            }
            match end {
                WindowEnd::Stopped => {
                    w.disarm();
                    return BatchRun {
                        committed: total,
                        user_abort: None,
                    };
                }
                WindowEnd::User(code) => {
                    w.disarm();
                    return BatchRun {
                        committed: total,
                        user_abort: Some(code),
                    };
                }
                WindowEnd::Filled => degraded = false,
                WindowEnd::Split | WindowEnd::Aborted => degraded = true,
            }
        }
        w.disarm();
        BatchRun {
            committed: total,
            user_abort: None,
        }
    }

    /// Execute one physical transaction holding up to `quota` logical
    /// transactions; returns how many committed durably and how the window
    /// ended.
    fn run_window(
        &mut self,
        quota: u64,
        f: &mut dyn FnMut(&mut TxBatch<'_, 'rt>) -> TxResult<bool>,
    ) -> (u64, WindowEnd) {
        debug_assert!(quota >= 1);
        self.begin_top();
        self.batch_marks.clear();
        self.batch_logical = 0;
        self.in_batch = true;
        let mut stop = false;
        let mut user: Option<u64> = None;
        let mut had_split = false;
        loop {
            // Invariants: during a closure invocation `batch_logical ==
            // batch_marks.len()`, and mark `i` was pushed when `i + 1`
            // logical transactions had completed — so unwinding to
            // `marks.len() == t` restores the state "after logical
            // transaction t + 1".
            let inv_mark = self.batch_marks.len();
            let inv_logical = self.batch_logical;
            if inv_logical > 0 {
                // Implicit boundary between closure invocations.
                self.push_batch_mark(true);
            }
            let result = {
                let mut b = TxBatch { tx: Tx(self) };
                f(&mut b)
            };
            match result {
                Ok(cont) => {
                    self.batch_logical += 1;
                    if !cont {
                        stop = true;
                        break;
                    }
                    if self.batch_logical >= quota {
                        break;
                    }
                }
                Err(Abort::Conflict) => {
                    if inv_logical == 0 {
                        // Nothing to salvage: the window's first
                        // invocation conflicted.
                        self.in_batch = false;
                        self.rollback_top();
                        self.cm_after_abort();
                        return (0, WindowEnd::Aborted);
                    }
                    self.batch_unwind_to(inv_mark);
                    self.batch_logical = inv_logical;
                    self.stats.aborts += 1; // the conflicting invocation
                    self.pending.merge.splits += 1;
                    had_split = true;
                    break;
                }
                Err(Abort::User(code)) => {
                    self.stats.user_aborts += 1;
                    user = Some(code);
                    if inv_logical == 0 {
                        // Mirror txn_result's user-abort accounting: the
                        // rollback's abort bump is re-booked as the user
                        // abort counted above.
                        self.in_batch = false;
                        self.rollback_top();
                        self.stats.aborts -= 1;
                        return (0, WindowEnd::User(code));
                    }
                    self.batch_unwind_to(inv_mark);
                    self.batch_logical = inv_logical;
                    break;
                }
            }
        }
        self.in_batch = false;
        let logical = self.batch_logical;
        let committed = self.commit_window(logical, had_split);
        let end = if let Some(code) = user {
            WindowEnd::User(code)
        } else if committed == 0 {
            WindowEnd::Aborted
        } else if committed < logical {
            // A commit-time validation split rolled back a tail; it must
            // re-execute (so a pending `stop` is void — its observation
            // never committed).
            WindowEnd::Split
        } else if stop {
            WindowEnd::Stopped
        } else if had_split {
            WindowEnd::Split
        } else {
            WindowEnd::Filled
        };
        (committed, end)
    }

    /// Commit the window's `logical` completed logical transactions,
    /// splitting watermark-aware on validation failure. Returns how many
    /// logical transactions committed (0 = the whole window rolled back
    /// and the caller retries).
    fn commit_window(&mut self, logical: u64, had_split: bool) -> u64 {
        debug_assert!(logical >= 1, "commit_window on an empty window");
        debug_assert_eq!(self.depth as u64, logical, "levels out of sync");
        let mut logical = logical;
        let mut split = had_split;
        if self.free_conflict {
            // A free lost its block's lines (`tx_free`); which logical
            // transaction issued it is not recorded, so none commits.
            self.stats.aborts += logical - 1; // + rollback_top's 1
            self.rollback_top();
            self.cm_after_abort();
            return 0;
        }
        if self.locks.is_empty() {
            // Read-only physical batch: incremental validation holds the
            // snapshot invariant, the commit is clock-silent.
            self.durable_prepare(None, logical);
            return self.finish_window_commit(logical, split, true);
        }
        // One GV4 ticket per physical batch — the amortized clock CAS.
        // Drawn while every lock of the *full* window is held; a salvaged
        // prefix's locks are a subset still held at sample time, so the
        // ticket (and its need_validate shortcut) remains valid across
        // unwinds.
        let ticket = self.rt.clock.writer_ticket(self.rv);
        if ticket.adopted {
            self.stats.clock_adopts += 1;
        }
        self.chaos(crate::contention::ChaosPoint::Validation);
        if ticket.need_validate {
            while let Some(p) = self.first_invalid_read() {
                self.stats.conflict_validation += 1;
                match self.batch_unwind_for_read(p) {
                    Some(new_logical) => {
                        // Logical transactions new_logical+1.. rolled back
                        // and will re-execute: one abort each, as if each
                        // had aborted at its own unmerged commit.
                        self.stats.aborts += logical - new_logical;
                        self.pending.merge.splits += 1;
                        logical = new_logical;
                        split = true;
                        if self.locks.is_empty() {
                            // The surviving prefix is read-only: it
                            // serializes at rv like any read-only commit,
                            // no re-validation needed.
                            self.durable_prepare(None, logical);
                            return self.finish_window_commit(logical, split, true);
                        }
                    }
                    None => {
                        // The conflict reaches into the first invocation:
                        // nothing salvageable.
                        self.stats.aborts += logical - 1; // + rollback_top's 1
                        self.rollback_top();
                        self.cm_after_abort();
                        return 0;
                    }
                }
            }
        }
        self.chaos(crate::contention::ChaosPoint::Commit);
        // One redo record for the whole batch — durability's share of the
        // amortization — encoded while the surviving locks are still held
        // and flushed (strict mode) before they publish.
        self.durable_prepare(Some(ticket.wv), logical);
        // Publish every surviving lock at the batch's single write
        // version.
        self.publish(ticket.wv);
        self.finish_window_commit(logical, split, false)
    }

    /// Collapse the boundary levels and finish the physical commit,
    /// booking `logical` logical commits (and the merge telemetry) in one
    /// absorption.
    fn finish_window_commit(&mut self, logical: u64, split: bool, ro: bool) -> u64 {
        debug_assert!(logical >= 1);
        if ro {
            self.stats.commits_ro += 1;
        }
        if split {
            self.pending.merge.salvaged += logical;
        }
        if logical >= 2 {
            self.pending.merge.merged_txns += logical;
        }
        self.collapse_batch_levels();
        self.finish_commit(); // commits += 1, absorbs pending once
        self.stats.commits += logical - 1;
        logical
    }

    /// Pop the boundary levels without rolling anything back (the window
    /// is committing): the heap analogue of a nested child committing into
    /// its parent, minus the alloc-level demotion — the allocation log is
    /// cleared by `finish_commit` immediately after, with no barrier in
    /// between.
    fn collapse_batch_levels(&mut self) {
        while self.depth > 1 {
            self.depth -= 1;
            self.sp_marks.pop();
            self.nursery_pop_level();
        }
        self.sp_inner = *self.sp_marks.last().expect("outermost mark");
        self.clear_capture_cache();
        self.batch_marks.clear();
    }

    /// Unwind boundary levels (innermost first) until `batch_marks.len()
    /// == t`: each pop partially rolls back one logical segment via its
    /// checkpoint, restoring undo values, releasing its locks at their
    /// pre-lock versions, truncating reads/allocs/frees, and rewinding the
    /// nursery watermark.
    fn batch_unwind_to(&mut self, t: usize) {
        while self.batch_marks.len() > t {
            let m = self.batch_marks.pop().expect("mark underflow");
            self.partial_rollback(m.cp);
        }
    }

    /// Map an invalid read-set position to a salvage point: find the
    /// logical segment owning read `p`, walk back to the start of the
    /// closure *invocation* containing it (internal `boundary()` segments
    /// cannot be resumed independently), unwind to there, and return the
    /// surviving logical count. `None` when the conflict reaches the first
    /// invocation (nothing salvageable).
    fn batch_unwind_for_read(&mut self, p: usize) -> Option<u64> {
        // Segment s owns reads [marks[s-1].cp.reads, marks[s].cp.reads).
        let s = self
            .batch_marks
            .iter()
            .take_while(|m| m.cp.reads <= p)
            .count();
        if s == 0 {
            return None;
        }
        let mut t = s - 1;
        while !self.batch_marks[t].invocation_start {
            if t == 0 {
                return None;
            }
            t -= 1;
        }
        self.batch_unwind_to(t);
        // Mark t was pushed when t + 1 logical transactions had completed.
        Some(t as u64 + 1)
    }

    /// Record a logical boundary: checkpoint the logs and open a nesting
    /// level (the capture-status carrier; see the module docs).
    fn push_batch_mark(&mut self, invocation_start: bool) {
        let cp = self.checkpoint();
        self.push_level(&cp);
        self.batch_marks.push(BatchMark {
            cp,
            invocation_start,
        });
    }

    /// `TxBatch::boundary` backend: complete the current logical
    /// transaction and open the next within one closure invocation.
    pub(crate) fn batch_boundary(&mut self) -> TxResult<()> {
        assert!(self.in_batch, "boundary() outside txn_batch");
        assert_eq!(
            self.depth as usize,
            self.batch_marks.len() + 1,
            "boundary() inside a nested transaction"
        );
        self.batch_logical += 1;
        self.push_batch_mark(false);
        Ok(())
    }
}
