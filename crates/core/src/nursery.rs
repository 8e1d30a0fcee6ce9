//! Transaction-local nursery management (the region lifecycle behind
//! [`capture::NurseryLog`]'s scalar classification).
//!
//! Every worker holds one bump region of the heap across transactions — a
//! free page, or the longest free run on a page — and every small
//! transactional allocation bumps inside it (class-rounded, ordinary
//! headers — so a published nursery block is indistinguishable from any
//! other block). [`crate::TxConfig::nursery`] picks only how a bump block is
//! classified: by the scalar range test when it is on, by the configured
//! allocation log (from birth) when it is off. The payoffs:
//!
//! * **O(1) capture checks** (nursery on) — the barrier classifies
//!   captured heap memory with the same two-compare range test as the
//!   stack check (see `barrier::fastpath` and the inline paths in
//!   `WorkerCtx::read_word`).
//! * **O(1) abort** — rollback rewinds the bump pointer to where the
//!   transaction began and lets go of the regions it took.
//! * **Cheap commit** — blocks already live in `SharedMem`; commit counts
//!   each published block on its page and keeps the bump position.
//!
//! One rule decides when a page returns to the heap's pool: a published
//! block keeps its page live, a held region keeps it live, and a block
//! that dies inside its transaction (freed, aborted) is never counted. An
//! in-transaction free gives the top of the bump back and leaves any other
//! block dead in place.
//!
//! With the nursery on, what the scalar range cannot represent *demotes*
//! to the configured allocation log (the paper's tree / array / filter):
//!
//! * switching to a new region when the held one is full demotes the live
//!   blocks this transaction bumped in the old one;
//! * large blocks never enter the nursery (the heap's own allocator,
//!   logged).

use capture::NurseryMark;
use txmem::{Addr, HEADER_BYTES};

use crate::worker::{AllocHome, WorkerCtx};

impl WorkerCtx<'_> {
    /// Re-derive the scalar-window mirrors (`nur_lo`/`nur_len`/`nur_rlen`/
    /// `nur_inner`/`nur_wlen`) from the authoritative [`NurseryLog`].
    /// Must run after *every* mutation of the nursery's scalar state —
    /// a stale window would elide a barrier for memory that is no longer
    /// captured (or skip an undo entry). Every mutation site lives in
    /// this module or goes through the level wrappers below, each of
    /// which ends with this call. With the nursery off every mirror stays
    /// zero, so no pipeline reads the range; with it on, `nur_rlen`/
    /// `nur_wlen` stay zero unless the corresponding fast-path gate is on,
    /// so the inline checks are self-disabling in every other
    /// configuration.
    ///
    /// [`NurseryLog`]: capture::NurseryLog
    #[inline]
    fn refresh_nursery_window(&mut self) {
        if !self.nursery_on {
            return; // every bump block is logged: the range is never read
        }
        self.nur_lo = self.nur.lo();
        self.nur_inner = self.nur.inner();
        self.nur_len = self.nur.bump() - self.nur.lo();
        self.nur_rlen = if self.fast.read_nursery {
            self.nur_len
        } else {
            0
        };
        self.nur_wlen = if self.fast.write_nursery {
            self.nur.bump() - self.nur.inner()
        } else {
            0
        };
    }

    /// Nested-transaction entry: snapshot the bump as the watermark.
    pub(crate) fn nursery_push_level(&mut self) {
        self.nur.push_level();
        self.refresh_nursery_window();
    }

    /// Nested-transaction exit (commit or conflict propagation).
    pub(crate) fn nursery_pop_level(&mut self) {
        self.nur.pop_level();
        self.refresh_nursery_window();
    }

    /// Bump-allocate a class-rounded `total` (header included) in the
    /// nursery, switching to a new region when the held one is full.
    /// `None` when no free run fits `total` (caller falls back to the
    /// heap's own allocator).
    pub(crate) fn nursery_alloc(&mut self, total: u64) -> Option<Addr> {
        let block = match self.nur.try_alloc(total) {
            Some(block) => block,
            None => {
                // The old region stays held until the transaction ends:
                // an abort returns to it.
                let (start, end) = self.rt.heap.take_nursery_region(total)?;
                self.stats.nursery_regions += 1;
                self.demote_scalar_blocks();
                self.nur.switch_region(start, end - start);
                self.nur.try_alloc(total).expect("the region fits")
            }
        };
        let payload = self.rt.heap.init_nursery_block(block, total);
        self.nursery_live += total - HEADER_BYTES;
        self.refresh_nursery_window();
        Some(payload)
    }

    /// Move every live scalar-resident block into the fallback policy log
    /// (demotion is verdict-neutral: the log reports the same level the
    /// scalar range did).
    fn demote_scalar_blocks(&mut self) {
        for i in 0..self.allocs.len() {
            let rec = self.allocs[i];
            if rec.home == AllocHome::NurseryScalar && !rec.freed {
                self.allocs[i].home = AllocHome::NurseryLogged;
                (self.table.on_alloc)(&mut self.logs, rec.addr.raw(), rec.usable, rec.level);
            }
        }
    }

    /// Immediate free of the current level's bump block `allocs[i]`: a
    /// logged block leaves its log, the top of the bump goes back to the
    /// bump pointer, and any other block dies in place. It is never
    /// counted on its page, so only the live-byte telemetry moves.
    pub(crate) fn nursery_free(&mut self, i: usize) {
        let rec = self.allocs[i];
        if rec.home == AllocHome::NurseryLogged {
            (self.table.on_free)(&mut self.logs, rec.addr.raw(), rec.usable);
            self.clear_capture_cache(); // the freed block may be cached
        }
        self.nur
            .free(rec.addr.raw() - HEADER_BYTES, rec.addr.raw() + rec.usable);
        self.allocs[i].freed = true;
        self.rt.heap.forget_live_bytes(rec.usable);
        self.nursery_live -= rec.usable;
        self.refresh_nursery_window();
    }

    /// Count every nursery block the commit publishes on its page. Runs
    /// before the commit's locks are released, so no other thread can
    /// reach (and free) a block before it is counted.
    #[inline]
    pub(crate) fn nursery_publish(&mut self) {
        if self.nursery_live == 0 {
            return;
        }
        for rec in &self.allocs {
            if rec.home != AllocHome::Heap && !rec.freed {
                self.rt.heap.publish_nursery_block(rec.addr, rec.usable);
            }
        }
    }

    pub(crate) fn release_nursery_region(&mut self, (start, end, bump): (u64, u64, u64)) {
        self.stats.nursery_bytes_recycled += self.rt.heap.release_nursery_region(start, bump, end);
    }

    /// Commit tail: keep the active region and its bump position, let go
    /// of every region the transaction switched away from.
    pub(crate) fn nursery_commit(&mut self) {
        if self.nur.left().is_empty() && self.nur.bump() == self.nur.origin().bump {
            // Nothing moved since begin: the range is empty at the origin.
            debug_assert_eq!(self.nursery_live, 0);
            return;
        }
        for i in 0..self.nur.left().len() {
            self.release_nursery_region(self.nur.left()[i]);
        }
        self.nursery_live = 0;
        self.nur.commit();
        self.refresh_nursery_window();
    }

    /// Top-level abort: one subtraction settles the live-byte telemetry
    /// for every nursery block, the regions taken since begin go back, and
    /// the bump returns to where the transaction began.
    pub(crate) fn nursery_abort(&mut self) {
        if self.nursery_live > 0 {
            self.rt.heap.forget_live_bytes(self.nursery_live);
            self.nursery_live = 0;
        }
        self.release_switched_to(self.nur.origin());
        self.nur.abort();
        self.refresh_nursery_window();
    }

    /// Let go of every region taken since the nursery was at `at`: the
    /// active one and those left since, but `at`'s own. Nothing bumped in
    /// them was published, so each comes back whole.
    fn release_switched_to(&mut self, at: NurseryMark) {
        let active = self.nur.mark();
        if active.start == at.start {
            return;
        }
        for i in at.left..active.left {
            let (start, end, _) = self.nur.left()[i];
            if start != at.start {
                self.release_nursery_region((start, end, start));
            }
        }
        self.release_nursery_region((active.start, active.end, active.start));
    }

    /// Drop the nursery's bookkeeping without handing anything back, for a
    /// commit whose tail panicked (`WorkerCtx::abandon_commit`): the
    /// committed blocks stay allocated; every region the worker held leaks.
    pub(crate) fn nursery_forget(&mut self) {
        self.nursery_live = 0;
        self.nur = capture::NurseryLog::new();
        self.refresh_nursery_window();
    }

    /// Partial abort of the innermost level (runs *after* the per-record
    /// rollback loop has settled log entries and accounting). Pages the
    /// aborted level took go back and the nursery returns to the region and
    /// bump the level began with; otherwise the bump pointer rewinds to
    /// the level's watermark, reclaiming its scalar blocks in one move.
    pub(crate) fn nursery_partial_abort(&mut self, cp: NurseryMark) {
        self.release_switched_to(cp);
        self.nur.abort_level(cp);
        self.refresh_nursery_window();
    }
}

#[cfg(test)]
mod tests {
    use capture::{CapturePolicy, RangeTree};
    use txmem::MemConfig;

    use crate::barrier::PolicySlot;
    use crate::worker::AllocHome;
    use crate::{StmRuntime, TxConfig};

    /// With the nursery off, bump blocks are logged from birth and the
    /// scalar window stays empty, and a free of the top block still moves
    /// the bump back.
    #[test]
    fn a_lifo_free_moves_the_bump_back_with_the_nursery_off() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full());
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            tx.alloc(40)?;
            let bump = tx.0.nur.bump();
            let b = tx.alloc(40)?;
            assert!(tx
                .0
                .allocs
                .iter()
                .all(|r| r.home == AllocHome::NurseryLogged));
            assert_eq!(RangeTree::of(&tx.0.logs).query(b.raw()), Some(1));
            assert_eq!((tx.0.nur_lo, tx.0.nur_len), (0, 0), "no window");
            tx.free(b);
            assert_eq!(tx.0.nur.bump(), bump);
            assert_eq!(RangeTree::of(&tx.0.logs).query(b.raw()), None);
            assert_eq!(tx.alloc(40)?, b, "the space comes back");
            Ok(())
        });
    }

    /// With the nursery on, a free below the top leaves the block dead in
    /// place: the window and the watermark stay, and nothing demotes to
    /// the fallback log.
    #[test]
    fn a_middle_free_adds_nothing_to_the_fallback_log() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_nursery());
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            let blocks = (0..3)
                .map(|_| tx.alloc(40))
                .collect::<Result<Vec<_>, _>>()?;
            let window = (tx.0.nur_lo, tx.0.nur_len, tx.0.nur_inner);
            tx.free(blocks[1]);
            assert_eq!((tx.0.nur_lo, tx.0.nur_len, tx.0.nur_inner), window);
            assert!(tx
                .0
                .allocs
                .iter()
                .all(|r| r.home == AllocHome::NurseryScalar));
            for b in blocks {
                assert_eq!(RangeTree::of(&tx.0.logs).query(b.raw()), None);
            }
            Ok(())
        });
    }
}
