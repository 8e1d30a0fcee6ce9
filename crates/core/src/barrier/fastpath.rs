//! The capture fast paths shared by every barrier: the pipeline's static
//! verdict, the nursery window and stack range compares (paper Fig. 3/4),
//! the heap policy lookup (paper §3.1.2, generic over the monomorphized
//! [`PolicySlot`]), the §3.1.3 annotation check, and the Figure-8
//! classification bookkeeping.

use capture::{Capture, CapturePolicy};
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

/// Verdict for the longest homogeneous prefix `[addr, end)` of a ranged
/// access — the ranged barriers' unit of work. `end` is exclusive, word
/// aligned, `> addr`, and clamped to the caller's span end.
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

    /// Nursery scalar-range classification (the tentpole fast path): the
    /// same two-compare shape as [`WorkerCtx::stack_capture`], plus one
    /// watermark compare for the `Current`-vs-`Ancestor` split that
    /// partial abort needs (§2.2.1). Exact by construction — the scalar
    /// range `[lo, bump)` only ever covers blocks this transaction
    /// bump-allocated and has neither freed nor demoted, and bump order is
    /// address order, so `addr >= inner` (the innermost level's watermark)
    /// is precisely "allocated by the current level".
    #[inline]
    pub(crate) fn nursery_capture(&self, addr: Addr) -> Option<CaptureHit> {
        let a = addr.raw();
        if a >= self.nur.lo() && a < self.nur.bump() {
            Some(if a >= self.nur.inner() {
                CaptureHit::Current
            } else {
                CaptureHit::Ancestor
            })
        } else {
            None
        }
    }

    /// Allocation-log lookup through the monomorphized policy, translated
    /// to current/ancestor. A current-level hit on a policy that can give
    /// a residency guarantee also primes the worker's one-entry capture
    /// cache, so subsequent accesses to the same block stay inline in
    /// [`WorkerCtx::read_word`]/[`WorkerCtx::write_word`].
    #[inline]
    pub(crate) fn heap_capture<P: PolicySlot>(&mut self, addr: Addr) -> Option<CaptureHit> {
        let (cap, range) = P::of(&self.logs).classify_cacheable(addr.raw());
        match cap {
            Capture::No => None,
            Capture::Level(level) => {
                if level >= self.depth {
                    // The cache only ever holds current-level ranges: the
                    // lifecycle clears it on nested entry / demotion, so
                    // the inline check needs no level compare.
                    if let Some((start, end)) = range {
                        self.cap_start = start;
                        self.cap_len = end - start;
                    }
                    Some(CaptureHit::Current)
                } else {
                    Some(CaptureHit::Ancestor)
                }
            }
        }
    }

    /// Pipeline `L`'s elision verdict for one word, in barrier order: the
    /// compiler's static verdict, then — runtime pipelines, direction in
    /// `scope` — nursery window, stack range, allocation log. `None` leaves
    /// the annotation check and the full barrier. The nursery window is
    /// empty whenever the nursery is inactive, so the same order is exact
    /// for the plain runtime configurations.
    #[inline(always)]
    pub(crate) fn word_verdict<L: Pipeline>(
        &mut self,
        site: &'static Site,
        addr: Addr,
        is_write: bool,
    ) -> Option<(CaptureHit, Elided)> {
        if let Some(via) = Elided::of_site::<L>(site) {
            return Some((CaptureHit::Current, via));
        }
        let in_scope = if is_write {
            self.scope.writes
        } else {
            self.scope.reads
        };
        if !L::RUNTIME || !in_scope {
            return None;
        }
        if self.scope.heap {
            if let Some(hit) = self.nursery_capture(addr) {
                return Some((hit, Elided::Nursery));
            }
        }
        if self.scope.stack {
            if let Some(hit) = self.stack_capture(addr) {
                return Some((hit, Elided::Stack));
            }
        }
        if self.scope.heap {
            if let Some(hit) = self.heap_capture::<L::Log>(addr) {
                return Some((hit, Elided::Heap));
            }
        }
        None
    }

    /// Classify the longest homogeneous *read* run starting at `addr`,
    /// bounded by `limit` (the span's exclusive byte end). Check order
    /// mirrors [`WorkerCtx::word_verdict`] — static verdict, nursery,
    /// stack, heap — so a ranged read charges exactly the counters a
    /// per-word loop would; a static verdict or a pipeline without runtime
    /// checks covers the whole span. Reads elide at any captured level, so
    /// this never returns [`RunVerdict::Ancestor`].
    #[inline]
    pub(crate) fn classify_read_run<L: Pipeline>(
        &mut self,
        site: &'static Site,
        addr: Addr,
        limit: u64,
    ) -> RunVerdict {
        if let Some(via) = Elided::of_site::<L>(site) {
            return RunVerdict::Captured { end: limit, via };
        }
        let a = addr.raw();
        if !L::RUNTIME || !self.scope.reads {
            return RunVerdict::Shared { end: limit };
        }
        if self.scope.heap && a >= self.nur.lo() && a < self.nur.bump() {
            return RunVerdict::Captured {
                end: self.nur.bump().min(limit),
                via: Elided::Nursery,
            };
        }
        if self.scope.stack && a >= self.stack.sp() && a < self.sp_outer {
            return RunVerdict::Captured {
                end: self.sp_outer.min(limit),
                via: Elided::Stack,
            };
        }
        let end = if self.scope.heap {
            let (cap, end) = L::Log::of(&self.logs).classify_run(a, limit);
            if let Capture::Level(level) = cap {
                if level >= self.depth {
                    // Prime the one-entry capture cache (same contract as
                    // `heap_capture`: current-level ranges only), so the
                    // next span over this block takes the two-compare
                    // whole-span check in `WorkerCtx::read_range`.
                    self.cap_start = a;
                    self.cap_len = end - a;
                }
                return RunVerdict::Captured {
                    end,
                    via: Elided::Heap,
                };
            }
            end
        } else {
            limit
        };
        RunVerdict::Shared {
            end: self.clamp_shared_run(a, end),
        }
    }

    /// Classify the longest homogeneous *write* run starting at `addr`.
    /// Same check order as the read classifier, with the additional
    /// current-vs-ancestor split: nursery and stack runs split at their
    /// innermost-level watermark (`nur.inner()` / `sp_inner`), heap runs
    /// are level-homogeneous because one logged block has one level.
    #[inline]
    pub(crate) fn classify_write_run<L: Pipeline>(
        &mut self,
        site: &'static Site,
        addr: Addr,
        limit: u64,
    ) -> RunVerdict {
        if let Some(via) = Elided::of_site::<L>(site) {
            return RunVerdict::Captured { end: limit, via };
        }
        let a = addr.raw();
        if !L::RUNTIME || !self.scope.writes {
            return RunVerdict::Shared { end: limit };
        }
        if self.scope.heap && a >= self.nur.lo() && a < self.nur.bump() {
            return if a >= self.nur.inner() {
                RunVerdict::Captured {
                    end: self.nur.bump().min(limit),
                    via: Elided::Nursery,
                }
            } else {
                RunVerdict::Ancestor {
                    end: self.nur.inner().min(limit),
                }
            };
        }
        if self.scope.stack && a >= self.stack.sp() && a < self.sp_outer {
            return if a < self.sp_inner {
                RunVerdict::Captured {
                    end: self.sp_inner.min(limit),
                    via: Elided::Stack,
                }
            } else {
                RunVerdict::Ancestor {
                    end: self.sp_outer.min(limit),
                }
            };
        }
        let end = if self.scope.heap {
            let (cap, end) = L::Log::of(&self.logs).classify_run(a, limit);
            if let Capture::Level(level) = cap {
                return if level >= self.depth {
                    // See `classify_read_run`: prime the capture cache so
                    // follow-up spans over this block stay inline.
                    self.cap_start = a;
                    self.cap_len = end - a;
                    RunVerdict::Captured {
                        end,
                        via: Elided::Heap,
                    }
                } else {
                    RunVerdict::Ancestor { end }
                };
            }
            end
        } else {
            limit
        };
        RunVerdict::Shared {
            end: self.clamp_shared_run(a, end),
        }
    }

    /// Clamp a shared run's end below the capture regions ahead of `addr`,
    /// so a not-captured verdict for the run's head covers every word of
    /// the run. `end` already carries the heap-log bound (from
    /// `classify_run`); this adds the two scalar regions. The gates mirror
    /// the classifiers above: a region whose check is scope-disabled does
    /// not clamp, because the per-word pipeline would not have consulted it
    /// either. Splitting at these boundaries (rather than falling back to
    /// the per-word loop for any mixed span) keeps every homogeneous piece
    /// on its cheap lowering.
    #[inline]
    fn clamp_shared_run(&self, a: u64, mut end: u64) -> u64 {
        if self.scope.heap {
            let lo = self.nur.lo();
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
        end
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
                .is_some_and(|t| t.classify(a).is_captured());
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
