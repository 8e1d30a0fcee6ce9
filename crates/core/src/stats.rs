/// Hot-path barrier counters for one direction within a *single*
/// transaction attempt.
///
/// The barrier fast path must not touch the worker's full [`TxStats`]
/// (two `BarrierStats` plus commit/abort/alloc counters — several cache
/// lines): the monomorphized barriers bump this one-line struct instead,
/// and the transaction lifecycle absorbs it into the durable stats exactly
/// once per transaction end ([`BarrierStats::absorb`]). Classification
/// counters (`class_*`, `static_violations`) are not here: they only move
/// under `TxConfig::classify`, an instrumentation mode.
/// There is no `total` field: every barrier lands in exactly one of these
/// counters, so the total is derived at absorb time — one counter bump per
/// access instead of two.
#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub(crate) struct BarrierDelta {
    pub elided_stack: u64,
    pub elided_heap: u64,
    /// Elided by the nursery's scalar range test. Folded into the public
    /// `elided_heap` at absorb time (it *is* a captured-heap elision) and
    /// summed into `TxStats::nursery_hits` — a separate counter here so
    /// the hot path bumps exactly one counter per access.
    pub elided_nursery: u64,
    pub elided_static: u64,
    pub elided_static_interproc: u64,
    pub elided_annotation: u64,
    pub parent_captured: u64,
    pub full: u64,
}

/// Hot-path counters for the *ranged* entry points (`read_range` /
/// `write_range` and the helpers built on them) within a single transaction
/// attempt. These are pure telemetry on top of the per-word counters: a
/// ranged barrier still bumps the matching [`BarrierDelta`] counter by the
/// run's word count, so the legacy stats stay bit-identical to a per-word
/// loop and these counters only describe *how* the words were processed.
#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub(crate) struct RangedDelta {
    /// Ranged read operations entered (one per `read_range` call).
    pub reads: u64,
    /// Ranged write operations entered (one per `write_range` call).
    pub writes: u64,
    /// Homogeneous runs of ≥ 2 words handled by a bulk copy or a
    /// stripe-batched slowpath.
    pub spans: u64,
    /// Degenerate work: single-word runs, and whole operations that fell
    /// back to the per-word loop (classify/annotation instrumentation or
    /// the enum-dispatch reference pipeline).
    pub fallbacks: u64,
}

/// Both directions of [`BarrierDelta`] plus the ranged-op telemetry; lives
/// on the worker and is taken (reset to zero) when flushed at commit or
/// rollback.
#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub(crate) struct TxnDelta {
    pub reads: BarrierDelta,
    pub writes: BarrierDelta,
    pub ranged: RangedDelta,
}

/// Counters for one barrier direction (reads or writes).
#[derive(Default, Clone, Copy, Debug)]
pub struct BarrierStats {
    /// Barrier invocations (everything a naive compiler instrumented).
    pub total: u64,
    /// Elided: hit the transaction-local *stack* check.
    pub elided_stack: u64,
    /// Elided: hit the transaction-local *heap* allocation log.
    pub elided_heap: u64,
    /// Elided: site statically proven captured (compiler mode,
    /// intraprocedural verdict).
    pub elided_static: u64,
    /// Elided: site proven captured only by the *interprocedural* summary
    /// analysis (compiler-interproc mode; disjoint from `elided_static`,
    /// which counts the sites the intraprocedural pass already got).
    pub elided_static_interproc: u64,
    /// Elided: address annotated via `add_private_memory_block`.
    pub elided_annotation: u64,
    /// Writes to memory captured by an *ancestor* transaction: no orec
    /// lock, but an undo entry (paper §2.2.1, partial abort support).
    pub parent_captured: u64,
    /// Full STM barrier executed.
    pub full: u64,

    // -- Figure 8 classification (filled when `TxConfig::classify`) --
    /// Access to transaction-local heap (precise tree).
    pub class_heap: u64,
    /// Access to transaction-local stack.
    pub class_stack: u64,
    /// Not required for other reasons (not manually instrumented in the
    /// original STAMP, not transaction-local): thread-local/read-only data.
    pub class_other: u64,
    /// Required: manually instrumented in the original STAMP.
    pub class_required: u64,
    /// Accesses at `compiler_elides` sites whose target the precise
    /// classifier did NOT find captured — a mis-tagged site that would be a
    /// miscompilation in a real system. Must stay zero; checked by the
    /// suite's validation tests.
    pub static_violations: u64,
}

impl BarrierStats {
    /// Fold one transaction's hot-path counters into the durable stats.
    pub(crate) fn absorb(&mut self, d: &BarrierDelta) {
        self.total += d.elided_stack
            + d.elided_heap
            + d.elided_nursery
            + d.elided_static
            + d.elided_static_interproc
            + d.elided_annotation
            + d.parent_captured
            + d.full;
        self.elided_stack += d.elided_stack;
        // Nursery elisions are captured-heap elisions; every derived
        // metric (elided fraction, Figure 9 rows) sees them as such.
        self.elided_heap += d.elided_heap + d.elided_nursery;
        self.elided_static += d.elided_static;
        self.elided_static_interproc += d.elided_static_interproc;
        self.elided_annotation += d.elided_annotation;
        self.parent_captured += d.parent_captured;
        self.full += d.full;
    }

    /// Accumulate another worker's counters into this one.
    pub fn merge(&mut self, o: &BarrierStats) {
        self.total += o.total;
        self.elided_stack += o.elided_stack;
        self.elided_heap += o.elided_heap;
        self.elided_static += o.elided_static;
        self.elided_static_interproc += o.elided_static_interproc;
        self.elided_annotation += o.elided_annotation;
        self.parent_captured += o.parent_captured;
        self.full += o.full;
        self.class_heap += o.class_heap;
        self.class_stack += o.class_stack;
        self.class_other += o.class_other;
        self.class_required += o.class_required;
        self.static_violations += o.static_violations;
    }

    /// All barriers elided by any mechanism.
    pub fn elided(&self) -> u64 {
        self.elided_stack
            + self.elided_heap
            + self.elided_static
            + self.elided_static_interproc
            + self.elided_annotation
    }

    /// Fraction of barriers removed (paper Figure 9's metric).
    pub fn elided_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.elided() as f64 / self.total as f64
        }
    }
}

/// Buckets of [`TxStats::latency_hist`]: bucket `i` counts top-level
/// commits whose wall-clock latency fell in `[2^(i+7), 2^(i+8))`
/// nanoseconds (bucket 0 additionally absorbs everything faster), with the
/// last bucket absorbing everything slower (≥ ~4 ms).
pub const LATENCY_BUCKETS: usize = 16;

/// Per-thread (and merged global) transaction statistics.
#[derive(Default, Clone, Copy, Debug)]
pub struct TxStats {
    /// Committed top-level transactions.
    pub commits: u64,
    /// Commits with an empty write set (a subset of `commits`): these are
    /// clock-silent — they never write the global clock, and only a
    /// durable one that logs an allocation loads it (for its record).
    pub commits_ro: u64,
    /// Always 0: writing commits no longer race on the clock, so none
    /// adopts another's timestamp. Kept for readers of the old count; the
    /// clock's writes are [`TxStats::clock_advances`].
    pub clock_adopts: u64,
    /// Read-modify-writes of the global clock: an extension that met a
    /// version above the clock, a durable commit with deferred frees, and
    /// a checkpoint (counted in the runtime's merged statistics). Writing
    /// commits only load the clock, so on disjoint data this stays near 0.
    pub clock_advances: u64,
    /// Snapshot extensions (`extend()` calls, successful or not): an access
    /// met a version above the snapshot. Begin reads no clock, so a stale
    /// carried-over snapshot shows up here, as one clock read each.
    pub extensions: u64,
    /// Aborts due to conflicts (the retried transactions of Table 1's
    /// abort-to-commit ratio).
    pub aborts: u64,
    /// Explicit user aborts (not retried by the runtime).
    pub user_aborts: u64,
    /// Partial aborts of nested transactions.
    pub partial_aborts: u64,
    /// Transactional allocations / frees.
    pub tx_allocs: u64,
    /// Transactional frees (immediate for captured blocks, deferred to
    /// commit otherwise).
    pub tx_frees: u64,
    /// Barriers *elided* by the nursery's scalar range test (both
    /// directions; a subset of the `elided_heap` counts — ancestor-level
    /// nursery writes land in `parent_captured` instead). Only moves under
    /// `TxConfig::nursery`.
    pub nursery_hits: u64,
    /// Nursery regions carved (or extended in place) for transactions.
    pub nursery_regions: u64,
    /// Bytes returned to the allocator wholesale: entire regions on abort,
    /// unused region tails trimmed at commit.
    pub nursery_bytes_recycled: u64,
    /// Ranged read operations (`Tx::read_range` and everything built on
    /// it). Telemetry only: the words a ranged op covers are still counted
    /// in `reads`/`writes` exactly as a per-word loop would count them.
    pub ranged_reads: u64,
    /// Ranged write operations (`Tx::write_range`, `fill_range`, the write
    /// half of `copy_range`).
    pub ranged_writes: u64,
    /// Homogeneous runs of ≥ 2 words a ranged op handled with one
    /// classification (bulk copy or stripe-batched slowpath).
    pub ranged_spans: u64,
    /// Ranged work that degenerated to per-word processing: one-word runs
    /// (lossy filter log, fragmented capture state, genuinely short spans)
    /// and whole ops routed through the per-word loop (classify /
    /// annotation instrumentation, reference dispatch).
    pub ranged_fallbacks: u64,
    /// Contention-manager backoff waits: one per abort-triggered
    /// decorrelated-jitter spin/yield episode in the retry loops.
    pub backoff_waits: u64,
    /// Conflict aborts raised by a *read* barrier that exhausted its spin
    /// budget against a record *locked by another owner*. Part
    /// of the abort-cause breakdown: `conflict_read_locked +
    /// conflict_write_locked + conflict_validation` covers every
    /// runtime-raised conflict.
    pub conflict_read_locked: u64,
    /// Conflict aborts raised by a *write* barrier that exhausted its spin
    /// budget against a foreign-locked record.
    pub conflict_write_locked: u64,
    /// Conflict aborts raised by snapshot validation: a failed timestamp
    /// extension in a barrier, a read whose version sandwich kept tearing
    /// (the record *changed* under the read; nobody holds it), or
    /// commit-time read-set validation finding an invalidated entry.
    pub conflict_validation: u64,
    /// Contention manager: transactions that escalated into the
    /// karma tier (spin-budget growth past `TxConfig::karma_threshold`
    /// consecutive aborts). Counted once per escalated transaction.
    pub cm_karma_escalations: u64,
    /// Contention manager: global serialization-token
    /// acquisitions (a chronic aborter draining the runtime to run solo).
    pub cm_serializations: u64,
    /// Highest consecutive-abort count any single transaction reached —
    /// the starvation metric the liveness oracle bounds. Merges with
    /// `max`, not `+`.
    pub attempts_max: u64,
    /// Schedule faults injected by the configured `ChaosPlan` (0 without
    /// one).
    pub chaos_injections: u64,
    /// Log2 histogram of top-level commit latencies in nanoseconds
    /// (wall-clock from retry-loop entry to commit, aborted attempts
    /// included); see [`LATENCY_BUCKETS`] and [`TxStats::latency_pct_ns`].
    /// A deterministic 1-in-64 sample, first transaction included: of each
    /// block of 64 commits only the transaction starting at offset
    /// `block % 64` reads the clock, so percentiles are those of a sample
    /// that cannot lock onto a periodic workload.
    pub latency_hist: [u64; LATENCY_BUCKETS],
    /// Durable mode: words actually appended to the redo log — one per
    /// distinct shared-write address plus the coalesced final contents
    /// (header included) of every surviving in-transaction allocation.
    pub durable_words: u64,
    /// Durable mode: captured write-barrier events (stack, in-transaction
    /// heap, nursery, ancestor-captured, statically elided) that needed
    /// *no* per-word redo logging — the paper's captured-memory saving
    /// extended to durability. The skip ratio is
    /// `durable_skipped / (durable_words + durable_skipped)`.
    pub durable_skipped: u64,
    /// Durable mode: redo-log disk appends, one per commit that produced
    /// a record.
    pub durable_flushes: u64,
    /// Read-barrier counters.
    pub reads: BarrierStats,
    /// Write-barrier counters.
    pub writes: BarrierStats,
}

impl TxStats {
    /// Fold one transaction's hot-path counters into the durable stats
    /// (called once per transaction end; see [`TxnDelta`]).
    pub(crate) fn absorb(&mut self, d: &TxnDelta) {
        self.reads.absorb(&d.reads);
        self.writes.absorb(&d.writes);
        self.nursery_hits += d.reads.elided_nursery + d.writes.elided_nursery;
        self.ranged_reads += d.ranged.reads;
        self.ranged_writes += d.ranged.writes;
        self.ranged_spans += d.ranged.spans;
        self.ranged_fallbacks += d.ranged.fallbacks;
    }

    /// Accumulate another worker's statistics into this one.
    pub fn merge(&mut self, o: &TxStats) {
        self.commits += o.commits;
        self.commits_ro += o.commits_ro;
        self.clock_adopts += o.clock_adopts;
        self.clock_advances += o.clock_advances;
        self.extensions += o.extensions;
        self.aborts += o.aborts;
        self.user_aborts += o.user_aborts;
        self.partial_aborts += o.partial_aborts;
        self.tx_allocs += o.tx_allocs;
        self.tx_frees += o.tx_frees;
        self.nursery_hits += o.nursery_hits;
        self.nursery_regions += o.nursery_regions;
        self.nursery_bytes_recycled += o.nursery_bytes_recycled;
        self.ranged_reads += o.ranged_reads;
        self.ranged_writes += o.ranged_writes;
        self.ranged_spans += o.ranged_spans;
        self.ranged_fallbacks += o.ranged_fallbacks;
        self.backoff_waits += o.backoff_waits;
        self.conflict_read_locked += o.conflict_read_locked;
        self.conflict_write_locked += o.conflict_write_locked;
        self.conflict_validation += o.conflict_validation;
        self.cm_karma_escalations += o.cm_karma_escalations;
        self.cm_serializations += o.cm_serializations;
        // The per-transaction maximum, not a sum: the starvation bound is
        // over individual transactions, whichever worker ran them.
        self.attempts_max = self.attempts_max.max(o.attempts_max);
        self.chaos_injections += o.chaos_injections;
        for (a, b) in self.latency_hist.iter_mut().zip(&o.latency_hist) {
            *a += b;
        }
        self.durable_words += o.durable_words;
        self.durable_skipped += o.durable_skipped;
        self.durable_flushes += o.durable_flushes;
        self.reads.merge(&o.reads);
        self.writes.merge(&o.writes);
    }

    /// Bucket one committed top-level transaction's wall-clock latency
    /// into [`TxStats::latency_hist`].
    pub(crate) fn record_latency_ns(&mut self, ns: u64) {
        let log2 = (63 - (ns | 1).leading_zeros()) as usize;
        self.latency_hist[log2.saturating_sub(7).min(LATENCY_BUCKETS - 1)] += 1;
    }

    /// Start the latency clock iff the transaction about to run is a
    /// sampled one; see [`TxStats::latency_hist`].
    #[inline]
    pub(crate) fn latency_sample_start(&self) -> Option<std::time::Instant> {
        (self.commits & 63 == (self.commits >> 6) & 63).then(std::time::Instant::now)
    }

    /// Book a sampled transaction's latency at its commit.
    #[inline]
    pub(crate) fn latency_sample_end(&mut self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            self.record_latency_ns(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Estimate the `p`-quantile (`0.0..=1.0`) of the commit-latency
    /// histogram, in nanoseconds: the upper edge of the first bucket whose
    /// cumulative count reaches the quantile (so the estimate is an upper
    /// bound at bucket resolution). Returns 0 when no latency was
    /// recorded.
    pub fn latency_pct_ns(&self, p: f64) -> u64 {
        let total: u64 = self.latency_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.latency_hist.iter().enumerate() {
            seen += n;
            if seen >= target {
                return 1u64 << (i + 8);
            }
        }
        1u64 << (LATENCY_BUCKETS + 7)
    }

    /// Table 1's metric: aborted-and-retried over committed.
    pub fn abort_to_commit_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Combined read+write barrier stats (paper Fig. 8c "all accesses").
    pub fn all_accesses(&self) -> BarrierStats {
        let mut b = self.reads;
        b.merge(&self.writes);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_everything() {
        let mut a = TxStats::default();
        a.commits = 3;
        a.reads.total = 10;
        a.reads.elided_heap = 4;
        let mut b = TxStats::default();
        b.commits = 2;
        b.aborts = 1;
        b.reads.total = 5;
        b.writes.total = 7;
        b.ranged_reads = 3;
        b.ranged_spans = 2;
        b.ranged_fallbacks = 1;
        b.backoff_waits = 4;
        b.conflict_read_locked = 6;
        b.conflict_write_locked = 7;
        b.conflict_validation = 8;
        b.cm_karma_escalations = 2;
        b.cm_serializations = 1;
        b.chaos_injections = 9;
        b.latency_hist[2] = 5;
        b.durable_words = 11;
        b.durable_skipped = 13;
        b.durable_flushes = 2;
        a.attempts_max = 4;
        b.attempts_max = 9;
        a.latency_hist[2] = 1;
        a.merge(&b);
        assert_eq!(a.commits, 5);
        assert_eq!(a.aborts, 1);
        assert_eq!(a.reads.total, 15);
        assert_eq!(a.writes.total, 7);
        assert_eq!(a.all_accesses().total, 22);
        assert_eq!(a.ranged_reads, 3);
        assert_eq!(a.ranged_writes, 0);
        assert_eq!(a.ranged_spans, 2);
        assert_eq!(a.ranged_fallbacks, 1);
        assert_eq!(a.backoff_waits, 4);
        assert_eq!(a.conflict_read_locked, 6);
        assert_eq!(a.conflict_write_locked, 7);
        assert_eq!(a.conflict_validation, 8);
        assert_eq!(a.cm_karma_escalations, 2);
        assert_eq!(a.cm_serializations, 1);
        assert_eq!(a.chaos_injections, 9);
        assert_eq!(a.latency_hist[2], 6);
        assert_eq!(
            a.attempts_max, 9,
            "attempts_max is a per-transaction maximum, not a sum"
        );
        assert_eq!(a.durable_words, 11);
        assert_eq!(a.durable_skipped, 13);
        assert_eq!(a.durable_flushes, 2);
    }

    #[test]
    fn histograms_bucket_by_log2() {
        let mut s = TxStats::default();
        // Sub-256ns commits share bucket 0; multi-ms ones pile
        // into the last bucket.
        s.record_latency_ns(0);
        s.record_latency_ns(255);
        s.record_latency_ns(256);
        s.record_latency_ns(u64::MAX);
        assert_eq!(s.latency_hist[0], 2);
        assert_eq!(s.latency_hist[1], 1);
        assert_eq!(s.latency_hist[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn latency_is_a_one_in_64_sample_first_transaction_included() {
        let rt = crate::StmRuntime::new(txmem::MemConfig::small(), crate::TxConfig::default());
        let mut w = rt.spawn_worker();
        let sampled = |w: &crate::WorkerCtx<'_>| w.stats.latency_hist.iter().sum::<u64>();
        w.txn(|_| Ok(()));
        assert_eq!(sampled(&w), 1);
        for _ in 1..6400 {
            w.txn(|_| Ok(()));
        }
        assert_eq!((w.stats.commits, sampled(&w)), (6400, 100));
    }

    #[test]
    fn latency_percentiles_walk_the_histogram() {
        let mut s = TxStats::default();
        assert_eq!(s.latency_pct_ns(0.5), 0, "empty histogram reports 0");
        // 9 commits in bucket 0 (< 256ns), 1 in bucket 3 (1..2µs): the
        // median sits in bucket 0, the p99 in bucket 3.
        s.latency_hist[0] = 9;
        s.latency_hist[3] = 1;
        assert_eq!(s.latency_pct_ns(0.5), 256);
        assert_eq!(s.latency_pct_ns(0.99), 1 << 11);
        assert_eq!(s.latency_pct_ns(1.0), 1 << 11);
    }

    #[test]
    fn absorb_folds_ranged_telemetry() {
        let mut s = TxStats::default();
        let mut d = TxnDelta::default();
        d.ranged.reads = 2;
        d.ranged.writes = 1;
        d.ranged.spans = 3;
        d.ranged.fallbacks = 4;
        s.absorb(&d);
        assert_eq!(s.ranged_reads, 2);
        assert_eq!(s.ranged_writes, 1);
        assert_eq!(s.ranged_spans, 3);
        assert_eq!(s.ranged_fallbacks, 4);
    }

    #[test]
    fn ratios() {
        let mut s = TxStats::default();
        assert_eq!(s.abort_to_commit_ratio(), 0.0);
        s.commits = 4;
        s.aborts = 2;
        assert_eq!(s.abort_to_commit_ratio(), 0.5);

        let mut b = BarrierStats::default();
        assert_eq!(b.elided_fraction(), 0.0);
        b.total = 10;
        b.elided_stack = 1;
        b.elided_heap = 2;
        b.elided_static = 3;
        assert_eq!(b.elided(), 6);
        assert!((b.elided_fraction() - 0.6).abs() < 1e-12);
    }
}
