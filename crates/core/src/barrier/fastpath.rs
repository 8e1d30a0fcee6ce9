//! The capture fast paths shared by every barrier: one run classifier
//! holding the pipeline's static verdict, the nursery window and stack
//! range compares (paper Fig. 3/4) and the heap policy lookup (paper
//! §3.1.2, generic over the monomorphized [`PolicySlot`]); the §3.1.3
//! annotation check; and the Figure-8 classification bookkeeping.

use capture::CapturePolicy;
use txmem::{Addr, WORD_BYTES};

use super::{CaptureHit, Pipeline, PolicySlot};
use crate::site::Site;
use crate::stats::BarrierDelta;
use crate::worker::WorkerCtx;

/// Which elision counter a captured access charges (a run charges it once
/// per word, exactly what the per-word barrier would have charged).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Elided {
    /// `elided_static` — the intraprocedural compiler verdict.
    Static,
    /// `elided_static_interproc` — the interprocedural-only verdict.
    Interproc,
    /// `elided_nursery` — the nursery scalar-range hit.
    Nursery,
    /// `elided_stack` — the stack range hit.
    Stack,
    /// `elided_heap` — an allocation-log hit.
    Heap,
}

impl Elided {
    /// The counter this verdict charges in one direction's delta.
    #[inline(always)]
    pub(crate) fn counter(self, d: &mut BarrierDelta) -> &mut u64 {
        match self {
            Elided::Static => &mut d.elided_static,
            Elided::Interproc => &mut d.elided_static_interproc,
            Elided::Nursery => &mut d.elided_nursery,
            Elided::Stack => &mut d.elided_stack,
            Elided::Heap => &mut d.elided_heap,
        }
    }

    /// The compiler verdict pipeline `L` honours for `site`, if any.
    #[inline(always)]
    fn of_site<L: Pipeline>(site: &Site) -> Option<Elided> {
        if L::STATIC && site.compiler_elides {
            Some(Elided::Static)
        } else if L::INTERPROC && site.compiler_elides_interproc {
            Some(Elided::Interproc)
        } else {
            None
        }
    }
}

/// Verdict for the longest homogeneous prefix `[addr, end)` of an access —
/// the barriers' unit of work (one word for the per-word barriers). `end`
/// is exclusive, word aligned, `> addr`, and clamped to the caller's span
/// end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RunVerdict {
    /// Captured (for writes: at the current level) — lower to a bulk
    /// private copy.
    Captured { end: u64, via: Elided },
    /// Captured by an ancestor level (writes only): per-word undo entries
    /// plus private stores (paper §2.2.1 partial-abort support).
    Ancestor { end: u64 },
    /// Not captured anywhere the active checks look: stripe-batched full
    /// barriers. The end is clamped below every capture boundary ahead, so
    /// no word of the run could have been elided by the per-word pipeline.
    Shared { end: u64 },
}

impl RunVerdict {
    /// Word count of the run starting at `addr`.
    #[inline]
    pub(crate) fn words(self, addr: Addr) -> usize {
        let end = match self {
            RunVerdict::Captured { end, .. } => end,
            RunVerdict::Ancestor { end } => end,
            RunVerdict::Shared { end } => end,
        };
        debug_assert!(end > addr.raw() && (end - addr.raw()).is_multiple_of(WORD_BYTES));
        ((end - addr.raw()) / WORD_BYTES) as usize
    }
}

impl WorkerCtx<'_> {
    /// Innermost nesting level that captured this stack address, if any.
    /// One range compare against the transaction's `start_sp` — the paper's
    /// cheapest runtime check.
    #[inline]
    pub(crate) fn stack_capture(&self, addr: Addr) -> Option<CaptureHit> {
        let a = addr.raw();
        // `sp_outer`/`sp_inner` are the scalar caches of the sp-mark vector
        // (maintained by the transaction lifecycle), so the common miss is
        // two compares against registers.
        if a < self.stack.sp() || a >= self.sp_outer {
            return None;
        }
        if a < self.sp_inner {
            Some(CaptureHit::Current)
        } else {
            Some(CaptureHit::Ancestor)
        }
    }

    /// Pipeline `L`'s verdict for the longest homogeneous run `[addr, end)`
    /// of a `WRITE` (or read) access ending at `limit` — the one capture
    /// classifier of every barrier shape. Check order: the compiler's
    /// static verdict, then — runtime pipelines, direction in `scope` —
    /// nursery window, stack range, allocation log, so every shape charges
    /// exactly the counters a per-word loop would. The nursery window is
    /// empty whenever the nursery is off (its bump blocks are logged), so
    /// the same order is exact for the plain runtime configurations.
    ///
    /// The per-word barriers pass a one-word `limit`: the run is then that
    /// word, and the log does one lookup, hit or miss. Reads elide at any
    /// captured level and never see [`RunVerdict::Ancestor`]; writes split
    /// at the innermost level's watermark (`nur_inner` / `sp_inner`), and
    /// a heap run is level-homogeneous because one logged block has one
    /// level. A static verdict or a pipeline without runtime checks covers
    /// the whole span.
    #[inline(always)]
    pub(crate) fn run_verdict<L: Pipeline, const WRITE: bool>(
        &mut self,
        site: &'static Site,
        addr: Addr,
        limit: u64,
    ) -> RunVerdict {
        if let Some(via) = Elided::of_site::<L>(site) {
            return RunVerdict::Captured { end: limit, via };
        }
        let a = addr.raw();
        let in_scope = if WRITE {
            self.scope.writes
        } else {
            self.scope.reads
        };
        if !L::RUNTIME || !in_scope {
            return RunVerdict::Shared { end: limit };
        }
        // Nursery: exact by construction — the scalar range `[lo, bump)`
        // only ever covers blocks this transaction bump-allocated and has
        // not demoted (a freed one dies in place, unreachable), and bump
        // order is address order, so `a >= inner` is precisely "allocated
        // by the current level". The window is empty with the nursery off.
        if self.scope.heap && a.wrapping_sub(self.nur_lo) < self.nur_len {
            return if !WRITE || a >= self.nur_inner {
                RunVerdict::Captured {
                    end: (self.nur_lo + self.nur_len).min(limit),
                    via: Elided::Nursery,
                }
            } else {
                RunVerdict::Ancestor {
                    end: self.nur_inner.min(limit),
                }
            };
        }
        // The stack grows down: the current level is `[sp, sp_inner)`.
        if self.scope.stack && a >= self.stack.sp() && a < self.sp_outer {
            return if WRITE && a >= self.sp_inner {
                RunVerdict::Ancestor {
                    end: self.sp_outer.min(limit),
                }
            } else {
                RunVerdict::Captured {
                    end: if WRITE { self.sp_inner } else { self.sp_outer }.min(limit),
                    via: Elided::Stack,
                }
            };
        }
        // A shared run is clamped below every capture region ahead whose
        // check is in scope, so the verdict for its head covers every word.
        let mut end = limit;
        if self.scope.heap {
            let (level, range) = L::Log::of(&self.logs).query_run(a, limit);
            let (start, stop) = range.unwrap_or((a, a + WORD_BYTES));
            end = stop.min(limit);
            if let Some(level) = level {
                if WRITE && level < self.depth {
                    return RunVerdict::Ancestor { end };
                }
                // A current-level hit primes the one-entry capture cache
                // with the whole block, whatever the access shape, so the
                // inline checks in `WorkerCtx::{read,write}_{word,range}`
                // take the block's later accesses. The cache only ever
                // holds current-level ranges (the lifecycle clears it on
                // nested entry / demotion, so the inline check needs no
                // level compare), and only ranges the policy guarantees
                // resident (`query_run` offers none for the lossy filter).
                if level >= self.depth && range.is_some() {
                    self.cap_start = start;
                    self.cap_len = stop - start;
                }
                return RunVerdict::Captured {
                    end,
                    via: Elided::Heap,
                };
            }
            let lo = self.nur_lo;
            if a < lo && lo < end {
                end = lo;
            }
        }
        if self.scope.stack {
            let sp = self.stack.sp();
            if a < sp && sp < end {
                end = sp;
            }
        }
        RunVerdict::Shared { end }
    }

    /// Annotated private memory (paper §3.1.3): consulted by every pipeline
    /// after its capture checks, exactly as the seed pipeline did.
    #[inline]
    pub(crate) fn annotation_hit(&self, addr: Addr) -> bool {
        self.cfg.annotations && self.private_log.is_private(addr.raw())
    }

    /// The classify mode's ground truth for one address: is it on the
    /// transaction-local stack, and if not, does the precise shadow tree
    /// hold it? Shared by the Figure-8 classifier, the static-violation
    /// check, and the external capture oracle so they can never diverge.
    #[inline]
    fn ground_truth(&self, a: u64) -> (bool, bool) {
        let stack_hit = a >= self.stack.sp() && a < self.sp_outer;
        let heap_hit = !stack_hit
            && self
                .classify_log
                .as_ref()
                .is_some_and(|t| t.query(a).is_some());
        (stack_hit, heap_hit)
    }

    /// Figure-8 classification of a barrier (runs under `cfg.classify`,
    /// using the precise shadow tree exactly as the paper counts
    /// opportunities with its tree-based runtime algorithm). Classification
    /// is an instrumentation mode, so these counters go straight to the
    /// worker's stats rather than the per-transaction delta.
    #[inline]
    pub(crate) fn classify_access(&mut self, site: &'static Site, addr: Addr, is_write: bool) {
        let (stack_hit, heap_hit) = self.ground_truth(addr.raw());
        let b = if is_write {
            &mut self.stats.writes
        } else {
            &mut self.stats.reads
        };
        if stack_hit {
            b.class_stack += 1;
        } else if heap_hit {
            b.class_heap += 1;
        } else if !site.required {
            b.class_other += 1;
        } else {
            b.class_required += 1;
        }
        // Validate static verdicts against ground truth: a site either
        // static pass elides must target captured memory on every dynamic
        // execution, or the tag is a miscompilation.
        if site.statically_elidable() && !stack_hit && !heap_hit {
            b.static_violations += 1;
        }
    }

    /// Ground-truth capture query for external oracles (the `txcc` VM's
    /// site audit): is `addr` transaction-local right now, per the precise
    /// shadow tree plus the stack range? Only answerable under
    /// `TxConfig::classify` — the shadow tree does not exist otherwise —
    /// so the answer is `None` in every other configuration.
    pub fn observed_captured(&self, addr: Addr) -> Option<bool> {
        if !self.cfg.classify {
            return None;
        }
        let (stack_hit, heap_hit) = self.ground_truth(addr.raw());
        Some(stack_hit || heap_hit)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Site, StmRuntime, TxConfig};

    #[test]
    fn a_ranged_heap_hit_primes_the_cache_with_the_whole_block() {
        static S: Site = Site::shared("fastpath.prime");
        let rt = StmRuntime::new(txmem::MemConfig::small(), TxConfig::runtime_tree_full());
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            let a = tx.alloc(16 * 8)?;
            let words = tx.0.rt.heap.usable_size(a) / 8;
            let half = words / 2;
            assert_eq!(tx.0.cap_len, 0, "an allocation does not prime");
            // The upper half misses the cache and is classified through
            // the tree, which primes it with the block, not the span.
            let mut upper = vec![0; (words - half) as usize];
            tx.read_range(&S, a.word(half), &mut upper)?;
            assert_eq!(
                (tx.0.cap_start, tx.0.cap_len),
                (a.raw(), words * 8),
                "the whole block is cached"
            );
            assert_eq!(tx.0.pending.reads.elided_heap, words - half);
            // So the lower half's per-word reads are inline cache hits,
            // charged exactly as the classifier would charge them.
            for k in 0..half {
                let x = a.word(k).raw();
                assert!(x.wrapping_sub(tx.0.cap_start) < tx.0.cap_len);
                tx.read(&S, a.word(k))?;
            }
            assert_eq!(tx.0.pending.reads.elided_heap, words);
            assert_eq!(tx.0.pending.reads.full, 0);
            Ok(())
        });
    }
}
