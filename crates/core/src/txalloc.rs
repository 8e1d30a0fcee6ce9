//! Transactional allocation and free (paper §3.1.2): every transactional
//! allocation is reported to the active capture policy (through the
//! spawn-time-resolved dispatch table) so heap capture analysis can find
//! it; aborts undo allocations.
//!
//! This module also decides when recycled memory may be observed. A block
//! the transaction allocated itself is captured — nobody else can reach
//! it — so its free is immediate (or deferred to commit, for an ancestor
//! level's block) and takes no lock. Freeing any other block is a write:
//! `tx_free` acquires the record of every 64-byte line the block covers,
//! header word included, changing no data and logging no undo, and the
//! heap gets the block back only in `finish_commit`, after the commit
//! released those lines at its `wv` (a rollback releases them like any
//! lock). A transaction whose snapshot predates the free then fails its
//! version check on the first word of the block it touches and cannot
//! extend past it, because the freer rewrote every path to the block; a
//! transaction already holding one of the lines makes the freer conflict
//! instead. So the next owner's captured, orec-free initialization is
//! invisible to every older snapshot, and readers pay nothing (DESIGN.md
//! §13.6).
//!
//! Every small block is bump-allocated in the worker's nursery region (see
//! `crate::nursery`). [`crate::TxConfig::nursery`] picks only its capture
//! check: the scalar range test when on (no per-block policy logging at
//! all), the configured log when off. Large blocks, and small ones on a
//! heap with no region left to give, take the heap's own allocator and
//! the configured log.

use capture::CapturePolicy;
use txmem::{small_block_total, Addr, HEADER_BYTES, NURSERY_MAX_BLOCK_BYTES};

use crate::orec::STRIPE_BYTES;
use crate::worker::{AllocHome, AllocRec, TxResult, WorkerCtx};

impl WorkerCtx<'_> {
    pub(crate) fn tx_alloc(&mut self, size: u64) -> TxResult<Addr> {
        debug_assert!(self.depth > 0);
        let bumped = match small_block_total(size) {
            Some(total) if total <= NURSERY_MAX_BLOCK_BYTES => self
                .nursery_alloc(total)
                .map(|addr| (addr, total - HEADER_BYTES)),
            _ => None,
        };
        let (addr, usable, home) = match bumped {
            Some((addr, usable)) if self.nursery_on => (addr, usable, AllocHome::NurseryScalar),
            Some((addr, usable)) => (addr, usable, AllocHome::NurseryLogged),
            // Large, or no free run fits it anywhere: the heap's allocator
            // serves it or reports the exhausted heap.
            None => {
                let addr = self.rt.alloc_or_panic(size, " inside a transaction");
                (addr, self.rt.heap.usable_size(addr), AllocHome::Heap)
            }
        };
        self.allocs.push(AllocRec {
            addr,
            usable,
            level: self.depth,
            freed: false,
            home,
        });
        // A scalar block needs no policy logging: the range covers it.
        if home != AllocHome::NurseryScalar {
            (self.table.on_alloc)(&mut self.logs, addr.raw(), usable, self.depth);
        }
        if let Some(t) = self.classify_log.as_mut() {
            t.insert(addr.raw(), usable, self.depth);
        }
        self.stats.tx_allocs += 1;
        Ok(addr)
    }

    pub(crate) fn tx_free(&mut self, addr: Addr) {
        debug_assert!(self.depth > 0);
        // A block allocated by the *current* nesting level can be freed
        // immediately: nobody else can hold a reference (it is captured),
        // and a later abort of this level would have discarded it anyway.
        // This is McRT-Malloc's balanced alloc/free optimization. A bump
        // block goes back to the bump pointer or dies in place, uncounted;
        // a heap block goes back to its page.
        if let Some(i) = self.allocs.iter().rposition(|r| r.addr == addr && !r.freed) {
            if self.allocs[i].level >= self.depth {
                let usable = self.allocs[i].usable;
                if self.allocs[i].home == AllocHome::Heap {
                    self.allocs[i].freed = true;
                    (self.table.on_free)(&mut self.logs, addr.raw(), usable);
                    self.clear_capture_cache(); // the freed block may be cached
                    self.rt.heap.free(addr);
                } else {
                    self.nursery_free(i);
                }
                if let Some(t) = self.classify_log.as_mut() {
                    t.remove(addr.raw(), usable);
                }
                self.stats.tx_frees += 1;
                return;
            }
            // Allocated by an ancestor level: a partial abort of the
            // current level must keep it alive, so defer to commit. It
            // stays in the allocation log — still captured (unreachable by
            // other transactions until we commit), so it takes no lock.
        } else if self.lock_block(addr).is_err() {
            // `Tx::free` reports nothing to its caller: the lost line
            // surfaces as a failed commit (see `free_conflict`).
            self.free_conflict = true;
        }
        self.frees.push(addr);
    }

    /// Acquire the record of every line of the shared block at `addr`,
    /// header line first: once that one is ours no other transaction can
    /// free the block, so the size read after it is the block's own.
    fn lock_block(&mut self, addr: Addr) -> TxResult<()> {
        let first = (addr.raw() - HEADER_BYTES) & !(STRIPE_BYTES - 1);
        self.acquire(Addr(first))?;
        let end = addr.raw() + self.rt.heap.usable_size(addr);
        for line in (first + STRIPE_BYTES..end).step_by(STRIPE_BYTES as usize) {
            self.acquire(Addr(line))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use txmem::{Addr, MemConfig, HEADER_BYTES};

    use crate::orec::STRIPE_BYTES;
    use crate::{StmRuntime, TxConfig};

    /// A free of a block the transaction did not allocate locks every line
    /// the block covers, header included, and its commit leaves each of
    /// them at the commit's version; a free of the transaction's own block
    /// takes no lock at all.
    #[test]
    fn a_shared_free_stamps_every_line_and_an_own_free_locks_nothing() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full());
        let mut w = rt.spawn_worker();
        let x = w.alloc_raw(200);
        let first = (x.raw() - HEADER_BYTES) & !(STRIPE_BYTES - 1);
        let end = x.raw() + rt.heap().usable_size(x);
        let lines: Vec<u64> = (first..end).step_by(STRIPE_BYTES as usize).collect();
        assert!(lines.len() >= 4, "a 200-byte block spans four lines");
        w.txn(|tx| {
            let own = tx.alloc(200)?;
            tx.free(own);
            assert!(
                tx.0.locks.is_empty(),
                "freeing a captured block took a lock"
            );
            tx.free(x);
            assert_eq!(tx.0.locks.len(), lines.len());
            Ok(())
        });
        // The commit published at the clock it loaded plus 2, and left
        // the clock where it was.
        let wv = rt.clock.read() + 2;
        for l in lines {
            let orec = rt.orecs.at(rt.orecs.index_of(Addr(l)));
            assert_eq!(orec.load(Ordering::Relaxed), wv, "line {l:#x}");
        }
    }

    /// A transaction already holding one of the block's lines makes the
    /// freer conflict: the free marks its transaction so it cannot commit,
    /// a rollback clears the mark, and the block stays allocated.
    #[test]
    fn a_free_of_a_held_line_marks_the_freer() {
        static S: crate::Site = crate::Site::shared("txalloc.test");
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full());
        let mut a = rt.spawn_worker();
        let mut b = rt.spawn_worker();
        let x = a.alloc_raw(64);
        let live = rt.heap().bytes_allocated();
        a.txn(|ta| {
            ta.write(&S, x, 1)?;
            let r = b.txn_result(|tb| {
                tb.free(x);
                assert!(tb.0.free_conflict, "the held line did not conflict");
                Err::<(), _>(tb.abort(9))
            });
            assert_eq!(r, Err(9));
            Ok(())
        });
        assert!(!b.free_conflict);
        assert_eq!(rt.heap().bytes_allocated(), live, "the block was freed");
    }
}
