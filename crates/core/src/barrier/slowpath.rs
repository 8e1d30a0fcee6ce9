//! The full STM barriers (the Intel STM discipline the paper describes in
//! §2.1): optimistic versioned reads with snapshot extension, and
//! encounter-time lock acquisition with undo logging and in-place update.
//! Every pipeline's barriers funnel here when no fast path applies.

use std::sync::atomic::Ordering;

use txmem::{Addr, WORD_BYTES};

use crate::orec::{is_locked, lock_value, owner_of, STRIPE_BYTES};
use crate::worker::{Abort, LockEntry, ReadEntry, TxResult, UndoEntry, WorkerCtx};

impl WorkerCtx<'_> {
    /// Full optimistic read: versioned-read loop with snapshot extension
    /// (gives opacity, so transactions never act on inconsistent state).
    /// `inline(always)`, like [`WorkerCtx::write_full`]: the body lands in
    /// every pipeline's barrier instance, so a shared access is one call.
    #[inline(always)]
    pub(crate) fn read_full(&mut self, addr: Addr) -> TxResult<u64> {
        self.chaos(crate::contention::ChaosPoint::Barrier);
        let (idx, orec) = self.orec_of(addr);
        let me = self.tid() as u64;
        let mut spins = 0u32;
        loop {
            let v1 = orec.load(Ordering::Acquire);
            if is_locked(v1) {
                if owner_of(v1) == me {
                    // Read-after-write to the same record: we own it, the
                    // in-place value is ours.
                    return Ok(self.mem.load(addr));
                }
                spins += 1;
                if spins > self.spin_budget {
                    self.stats.conflict_read_locked += 1;
                    return Err(Abort::Conflict);
                }
                std::hint::spin_loop();
                continue;
            }
            let val = self.mem.load(addr);
            let v2 = orec.load(Ordering::Acquire);
            if v1 != v2 {
                spins += 1;
                if spins > self.spin_budget {
                    self.stats.conflict_validation += 1;
                    return Err(Abort::Conflict);
                }
                continue;
            }
            if v1 > self.rv {
                if !self.extend(v1) {
                    self.stats.conflict_validation += 1;
                    return Err(Abort::Conflict);
                }
                // Retry the versioned read under the extended snapshot.
                // The sandwich above proved `val` consistent *at `v1`*, but
                // commits may have landed between the `v2` load and the
                // extension's clock read; returning the old sandwich's
                // value would hand the caller data that is stale at the
                // new `rv` — and if the record's version has meanwhile
                // caught up with the extended snapshot, nothing downstream
                // (write-lock acquisition, a read-only commit) can tell.
                continue;
            }
            self.push_read(idx, v1);
            return Ok(val);
        }
    }

    /// Log a successful versioned read, unless it repeats the last entry:
    /// the same record at the same version validates the same way, and
    /// every writing commit validates the whole read set.
    #[inline(always)]
    fn push_read(&mut self, idx: u32, version: u64) {
        if !self
            .reads
            .last()
            .is_some_and(|r| r.idx == idx && r.version == version)
        {
            self.reads.push(ReadEntry { idx, version });
        }
    }

    /// Own the record guarding `addr`: encounter-time lock acquisition,
    /// one [`LockEntry`] when newly taken, nothing when already ours (the
    /// write-after-write check the paper notes already catches redundant
    /// write barriers in the baseline, yada discussion §4.2). Changes no
    /// data and logs no undo: the full writes do that once it returns, and
    /// `tx_free` takes it bare to order a block's reuse.
    #[inline(always)]
    pub(crate) fn acquire(&mut self, addr: Addr) -> TxResult<()> {
        let (idx, orec) = self.orec_of(addr);
        let me = self.tid() as u64;
        let mut spins = 0u32;
        loop {
            let v = orec.load(Ordering::Acquire);
            if is_locked(v) {
                if owner_of(v) == me {
                    return Ok(());
                }
                spins += 1;
                if spins > self.spin_budget {
                    self.stats.conflict_write_locked += 1;
                    return Err(Abort::Conflict);
                }
                std::hint::spin_loop();
                continue;
            }
            if v > self.rv && !self.extend(v) {
                self.stats.conflict_validation += 1;
                return Err(Abort::Conflict);
            }
            self.cm_announce()?;
            match orec.compare_exchange_weak(v, lock_value(me), Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // The reads of this record that end the read set are
                    // valid from now on (`validate`), and at the top level
                    // only commit or a full rollback releases the lock:
                    // drop them. A nested level keeps them, since a
                    // partial abort releases the lock and may leave an
                    // ancestor's read of the record behind.
                    if self.depth == 1 {
                        while self.reads.last().is_some_and(|r| r.idx == idx) {
                            self.reads.pop();
                        }
                    }
                    self.locks.push(LockEntry { idx, prev: v });
                    return Ok(());
                }
                Err(_) => {
                    spins += 1;
                    if spins > self.spin_budget {
                        self.stats.conflict_write_locked += 1;
                        return Err(Abort::Conflict);
                    }
                }
            }
        }
    }

    /// Full write: encounter-time lock acquisition, undo log, in-place
    /// update.
    #[inline(always)]
    pub(crate) fn write_full(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        self.chaos(crate::contention::ChaosPoint::Barrier);
        self.acquire(addr)?;
        self.undo.push(UndoEntry {
            addr,
            old: self.mem.load(addr),
        });
        self.mem.store(addr, val);
        Ok(())
    }

    /// Stripe-batched full read of `dst.len()` words starting at `addr`.
    ///
    /// All words of a 64-byte stripe share one orec (see `orec.rs`), so the
    /// versioned-read protocol runs once per covered stripe: one `v1`/`v2`
    /// validation sandwiching a bulk load of the stripe's sub-span, and one
    /// [`ReadEntry`] instead of one per word. A per-word loop would push a
    /// duplicate entry per word of the same version — commit-time validation
    /// of the deduplicated set is equivalent.
    ///
    /// Stats contract (the ranged oracle depends on it): the caller bumps
    /// `full` by the span's word count *after* this returns `Ok`; on
    /// `Err` it bumps `full` by the words of the stripes that completed
    /// plus one for the failing stripe, because a per-word loop charges the
    /// failing word before aborting and every word of a stripe fails
    /// together at its first word.
    pub(crate) fn read_full_range(&mut self, addr: Addr, dst: &mut [u64]) -> TxResult<usize> {
        self.chaos(crate::contention::ChaosPoint::Barrier);
        let span_end = addr.word(dst.len() as u64).raw();
        let mut done = 0usize;
        while done < dst.len() {
            let a = addr.word(done as u64);
            let stripe_end = (a.raw() | (STRIPE_BYTES - 1)) + 1;
            let n = ((stripe_end.min(span_end) - a.raw()) / WORD_BYTES) as usize;
            self.read_full_stripe(a, &mut dst[done..done + n])
                .inspect_err(|_| {
                    self.pending.reads.full += done as u64 + 1;
                })?;
            done += n;
        }
        Ok(done)
    }

    fn read_full_stripe(&mut self, addr: Addr, dst: &mut [u64]) -> TxResult<()> {
        let (idx, orec) = self.orec_of(addr);
        let me = self.tid() as u64;
        let mut spins = 0u32;
        loop {
            let v1 = orec.load(Ordering::Acquire);
            if is_locked(v1) {
                if owner_of(v1) == me {
                    for (k, d) in dst.iter_mut().enumerate() {
                        *d = self.mem.load(addr.word(k as u64));
                    }
                    return Ok(());
                }
                spins += 1;
                if spins > self.spin_budget {
                    self.stats.conflict_read_locked += 1;
                    return Err(Abort::Conflict);
                }
                std::hint::spin_loop();
                continue;
            }
            for (k, d) in dst.iter_mut().enumerate() {
                *d = self.mem.load(addr.word(k as u64));
            }
            let v2 = orec.load(Ordering::Acquire);
            if v1 != v2 {
                spins += 1;
                if spins > self.spin_budget {
                    self.stats.conflict_validation += 1;
                    return Err(Abort::Conflict);
                }
                continue;
            }
            if v1 > self.rv {
                if !self.extend(v1) {
                    self.stats.conflict_validation += 1;
                    return Err(Abort::Conflict);
                }
                // Same stale-sandwich hazard as `read_full`: re-run the
                // versioned read so the returned stripe reflects the
                // extended snapshot.
                continue;
            }
            self.push_read(idx, v1);
            return Ok(());
        }
    }

    /// Stripe-batched full write; the write-side analog of
    /// [`WorkerCtx::read_full_range`]. Each covered stripe is acquired
    /// once — one [`LockEntry`] per *newly* acquired stripe, none when the
    /// stripe's orec is already owned — then every word gets its undo entry
    /// (ascending address order) and in-place store, exactly the log shape
    /// a per-word loop produces (its first word CASes the orec, the rest
    /// take the owned path). Same stats contract as the ranged read.
    pub(crate) fn write_full_range(&mut self, addr: Addr, src: &[u64]) -> TxResult<usize> {
        self.chaos(crate::contention::ChaosPoint::Barrier);
        let span_end = addr.word(src.len() as u64).raw();
        let mut done = 0usize;
        while done < src.len() {
            let a = addr.word(done as u64);
            let stripe_end = (a.raw() | (STRIPE_BYTES - 1)) + 1;
            let n = ((stripe_end.min(span_end) - a.raw()) / WORD_BYTES) as usize;
            self.write_full_stripe(a, &src[done..done + n])
                .inspect_err(|_| {
                    self.pending.writes.full += done as u64 + 1;
                })?;
            done += n;
        }
        Ok(done)
    }

    /// Acquire the stripe's record, then undo-log and store the sub-span.
    fn write_full_stripe(&mut self, addr: Addr, src: &[u64]) -> TxResult<()> {
        self.acquire(addr)?;
        for (k, &val) in src.iter().enumerate() {
            let a = addr.word(k as u64);
            self.undo.push(UndoEntry {
                addr: a,
                old: self.mem.load(a),
            });
            self.mem.store(a, val);
        }
        Ok(())
    }
}
