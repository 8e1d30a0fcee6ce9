//! Transaction-local nursery management (the region lifecycle behind
//! [`capture::NurseryLog`]'s scalar classification).
//!
//! With [`crate::TxConfig::nursery`] active, a top-level transaction's
//! first small allocation carves a contiguous region from the heap's
//! existing lock-free frontier / recycled shards, and subsequent small
//! allocations bump inside it (class-rounded, ordinary headers — so a
//! published nursery block is indistinguishable from a free-list block).
//! The payoffs:
//!
//! * **O(1) capture checks** — the barrier classifies captured heap memory
//!   with the same two-compare range test as the stack check (see
//!   `barrier::fastpath` and the inline paths in `WorkerCtx::read_word`).
//! * **O(1) abort reclamation** — rollback returns *whole regions* to the
//!   recycled shards instead of walking per-block free lists.
//! * **Cheap commit publication** — blocks already live in `SharedMem`;
//!   commit is bookkeeping: trim the unused tail back to the shards.
//!
//! Everything the scalar range cannot represent *demotes* to the
//! configured allocation log (the paper's tree / array / filter), which
//! stays exact/conservative as before:
//!
//! * chaining to a non-contiguous region demotes the old region's live
//!   blocks (the nursery first tries a frontier CAS to extend in place);
//! * an in-transaction free that is not the top of the bump (a *hole*)
//!   demotes the live blocks below the hole and shrinks the scalar range
//!   to `[hole_end, bump)`, so future allocations stay scalar;
//! * large blocks never enter the nursery (classic path, logged).

use txmem::{Addr, HEADER_BYTES, NURSERY_REGION_BYTES};

use crate::worker::{AllocHome, WorkerCtx};

/// Nursery positions snapshotted at nested-transaction begin (stored in the
/// lifecycle `Checkpoint`); partial abort restores to these.
#[derive(Clone, Copy)]
pub(crate) struct NurseryCp {
    /// Regions carved when the level began; later ones belong to it.
    pub regions: usize,
}

impl WorkerCtx<'_> {
    /// Re-derive the inline scalar-window mirrors (`nur_lo`/`nur_rlen`/
    /// `nur_inner`/`nur_wlen`) from the authoritative [`NurseryLog`].
    /// Must run after *every* mutation of the nursery's scalar state —
    /// a stale window would elide a barrier for memory that is no longer
    /// captured (or skip an undo entry). Every mutation site lives in
    /// this module or goes through the level wrappers below, each of
    /// which ends with this call. The lengths stay zero unless the
    /// corresponding fast-path gate is on, so the inline checks are
    /// self-disabling in every other configuration.
    #[inline]
    fn refresh_nursery_window(&mut self) {
        self.nur_lo = self.nur.lo();
        self.nur_inner = self.nur.inner();
        self.nur_rlen = if self.fast.read_nursery {
            self.nur.bump() - self.nur.lo()
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
    /// nursery, carving / extending / chaining regions as needed. `None`
    /// when the heap cannot supply a region (caller falls back to the
    /// classic path, which can still serve from smaller classes).
    pub(crate) fn nursery_alloc(&mut self, total: u64) -> Option<Addr> {
        if let Some(block) = self.nur.try_alloc(total) {
            return Some(self.nursery_finish(block, total));
        }
        // Active region full (or none yet). Prefer growing it in place —
        // one frontier CAS — so the scalar range survives intact.
        if self.nur.has_region() && self.rt.heap.try_extend_region(self.nur.hi()) {
            self.nur.extend_active(NURSERY_REGION_BYTES);
            self.stats.nursery_regions += 1;
            let block = self.nur.try_alloc(total).expect("extended region fits");
            return Some(self.nursery_finish(block, total));
        }
        // Chain to a fresh region: recycle the old tail, demote the old
        // region's live blocks to the fallback log, switch the scalar over.
        let (region, len) = self.next_region(total)?;
        self.stats.nursery_regions += 1;
        if self.nur.has_region() {
            let (tail, tail_len) = self.nur.retire_active();
            if tail_len > 0 {
                self.stats.nursery_bytes_recycled +=
                    self.rt
                        .heap
                        .recycle_region_range(&mut self.talloc, tail, tail_len);
            }
            self.demote_scalar_blocks(u64::MAX);
        }
        self.nur.switch_region(region, len);
        let block = self.nur.try_alloc(total).expect("fresh region fits");
        Some(self.nursery_finish(block, total))
    }

    /// Supply the next nursery region: the tail carried over from the last
    /// commit when it fits `total` (no allocator traffic at all), else a
    /// fresh [`NURSERY_REGION_BYTES`] carve. A too-small spare is recycled
    /// so nothing is ever stranded.
    fn next_region(&mut self, total: u64) -> Option<(u64, u64)> {
        let (lo, hi) = self.nursery_spare;
        if hi - lo >= total {
            self.nursery_spare = (0, 0);
            return Some((lo, hi - lo));
        }
        let region = self.rt.heap.carve_region(&mut self.talloc)?;
        if hi > lo {
            self.rt
                .heap
                .recycle_region_range(&mut self.talloc, lo, hi - lo);
            self.nursery_spare = (0, 0);
        }
        Some((region, NURSERY_REGION_BYTES))
    }

    fn nursery_finish(&mut self, block: u64, total: u64) -> Addr {
        let payload = self
            .rt
            .heap
            .init_nursery_block(&mut self.talloc, block, total);
        self.nursery_live += total - HEADER_BYTES;
        self.refresh_nursery_window();
        payload
    }

    /// Move every live scalar-resident block whose block start is below
    /// `below` into the fallback policy log (demotion is verdict-neutral:
    /// the log reports the same level the scalar range did).
    fn demote_scalar_blocks(&mut self, below: u64) {
        for i in 0..self.allocs.len() {
            let rec = self.allocs[i];
            if rec.home == AllocHome::NurseryScalar
                && !rec.freed
                && rec.addr.raw() - HEADER_BYTES < below
            {
                self.allocs[i].home = AllocHome::NurseryLogged;
                (self.table.on_alloc)(&mut self.logs, rec.addr.raw(), rec.usable, rec.level);
            }
        }
    }

    /// Immediate free of the current level's scalar-resident block
    /// `allocs[i]`: a LIFO free hands the space straight back to the bump
    /// pointer; anything else punches a hole — the scalar range shrinks to
    /// above the hole, the blocks below demote to the fallback log, and
    /// the block's space is deferred to commit (at abort its region is
    /// recycled wholesale). Never touches any allocator lock.
    pub(crate) fn nursery_free_current(&mut self, i: usize) {
        let rec = self.allocs[i];
        debug_assert_eq!(rec.home, AllocHome::NurseryScalar);
        let block = rec.addr.raw() - HEADER_BYTES;
        let total = rec.usable + HEADER_BYTES;
        self.allocs[i].freed = true;
        if block + total == self.nur.bump() {
            self.nur.bump_back(block);
        } else {
            self.demote_scalar_blocks(block);
            self.nur.punch_hole(block, block + total);
            self.nursery_reclaim.push(rec.addr);
        }
        self.rt.heap.forget_live_bytes(rec.usable);
        self.talloc.free_count += 1;
        self.nursery_live -= rec.usable;
        self.refresh_nursery_window();
    }

    /// Immediate free of a current-level block that was demoted to the
    /// fallback log: remove it from the log; its space is deferred like a
    /// hole (commit recycles it to the class lists, abort recycles its
    /// region wholesale).
    pub(crate) fn nursery_free_logged(&mut self, i: usize) {
        let rec = self.allocs[i];
        debug_assert_eq!(rec.home, AllocHome::NurseryLogged);
        self.allocs[i].freed = true;
        (self.table.on_free)(&mut self.logs, rec.addr.raw(), rec.usable);
        self.clear_capture_cache(); // the freed block may be cached
        self.nursery_reclaim.push(rec.addr);
        self.rt.heap.forget_live_bytes(rec.usable);
        self.talloc.free_count += 1;
        self.nursery_live -= rec.usable;
    }

    /// Commit-time publication: the used prefixes of all regions simply
    /// *are* ordinary heap memory now (blocks carry standard headers), so
    /// publishing means trimming the active region's unused tail back to
    /// the shards and flushing the deferred hole reclaims to the thread's
    /// class free lists.
    pub(crate) fn nursery_commit(&mut self) {
        if self.nur.region_count() == 0 {
            return; // nothing carved (or its level partially aborted): still reset
        }
        if self.nur.has_region() {
            let (tail, tail_len) = self.nur.retire_active();
            if tail_len > 0 {
                // Carry the tail over as the next transaction's region
                // instead of splintering it into class blocks — regions
                // are only consumed as fast as blocks are published.
                debug_assert_eq!(self.nursery_spare, (0, 0), "spare not consumed");
                self.nursery_spare = (tail, tail + tail_len);
            }
        }
        for i in 0..self.nursery_reclaim.len() {
            let addr = self.nursery_reclaim[i];
            self.rt.heap.recycle_block(&mut self.talloc, addr);
        }
        self.nursery_reclaim.clear();
        self.nursery_live = 0;
        self.nur.reset();
        self.refresh_nursery_window();
    }

    /// Top-level abort: un-publish the whole nursery in O(1) per region —
    /// chained-away regions go back to the recycled shards wholesale (no
    /// per-block free-list walk), the *active* region is retained as the
    /// next transaction's spare, and one subtraction settles the live-byte
    /// telemetry for every block at once.
    ///
    /// Retaining the active region (rather than recycling it) matters for
    /// more than speed. A region that started life as a commit-trimmed
    /// spare is no longer region-class-sized, so `recycle_region_range`
    /// would splinter it into mid-size class blocks; if the workload never
    /// allocates those classes, each commit→abort cycle then permanently
    /// converts ~one region of frontier into unreachable free-list blocks
    /// and a retry storm bleeds the heap dry (the liveness oracle's
    /// starvation stress found exactly this under injected chaos). Kept as
    /// the spare, the abort→retry cycle reuses the same bytes with zero
    /// allocator traffic.
    pub(crate) fn nursery_abort(&mut self) {
        if self.nursery_live > 0 {
            self.rt.heap.forget_live_bytes(self.nursery_live);
            self.nursery_live = 0;
        }
        let n = self.nur.region_count();
        for i in 0..n {
            let (start, len) = self.nur.regions()[i];
            if len == 0 {
                continue;
            }
            if i == n - 1 && self.nursery_spare == (0, 0) {
                self.nursery_spare = (start, start + len);
            } else {
                self.stats.nursery_bytes_recycled +=
                    self.rt
                        .heap
                        .recycle_region_range(&mut self.talloc, start, len);
            }
        }
        self.nursery_reclaim.clear();
        self.nur.reset();
        self.refresh_nursery_window();
    }

    /// Drop the nursery's bookkeeping without handing anything back, for a
    /// commit whose tail panicked (`WorkerCtx::abandon_commit`): the
    /// committed blocks stay allocated; the unused region tail and the
    /// deferred hole reclaims leak.
    pub(crate) fn nursery_forget(&mut self) {
        self.nursery_reclaim.clear();
        self.nursery_live = 0;
        self.nur.reset();
        self.refresh_nursery_window();
    }

    /// Snapshot for a nested level's checkpoint.
    pub(crate) fn nursery_checkpoint(&self) -> NurseryCp {
        NurseryCp {
            regions: self.nur.region_count(),
        }
    }

    /// Partial abort of the innermost level (runs *after* the per-record
    /// rollback loop has settled log entries, accounting, and pushed
    /// orphaned demoted blocks onto the reclaim list). Regions the aborted
    /// level carved are recycled wholesale; otherwise the bump pointer
    /// rewinds to the level's watermark, reclaiming its scalar blocks in
    /// one move.
    pub(crate) fn nursery_partial_abort(&mut self, cp: NurseryCp) {
        if self.nur.region_count() > cp.regions {
            for i in cp.regions..self.nur.region_count() {
                let (start, len) = self.nur.regions()[i];
                if len > 0 {
                    self.stats.nursery_bytes_recycled +=
                        self.rt
                            .heap
                            .recycle_region_range(&mut self.talloc, start, len);
                }
            }
            // Reclaim entries inside recycled regions went back with them.
            let regions = self.nur.regions();
            let recycled = &regions[cp.regions..];
            self.nursery_reclaim.retain(|a| {
                let b = a.raw() - HEADER_BYTES;
                !recycled.iter().any(|&(s, l)| b >= s && b < s + l)
            });
            self.nur.abort_level();
            // The scalar range moved to a region that no longer exists;
            // empty it (everything still live was demoted to the log when
            // the level chained away).
            self.nur.clear_active(cp.regions);
        } else {
            self.nur.abort_level();
        }
        self.refresh_nursery_window();
    }
}
