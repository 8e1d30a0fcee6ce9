//! The `CapturePolicy` seam: the one interface the STM's barrier pipeline
//! needs from a capture-analysis structure (DESIGN.md §3).
//!
//! The barriers of "Optimizing Transactions for Captured Memory" ask a
//! single question per access — *was this address allocated by the current
//! transaction, and at which nesting level?* — and record allocations and
//! frees as the transaction runs. `CapturePolicy` captures exactly that
//! contract so the STM core can be **monomorphized** over the concrete
//! structure: the runtime selects the policy once (at runtime construction /
//! worker spawn) and the barrier hot path compiles down to direct,
//! inlineable calls with no per-access dispatch on [`LogKind`].
//!
//! [`RangeTree`], [`RangeArray`] and [`AddrFilter`] implement it directly.
//! [`LogImpl`] implements it through its per-call `match` — precisely the
//! *enum-dispatch reference path* the STM keeps around (behind
//! `TxConfig::reference_dispatch`) for differential testing of the
//! monomorphized pipeline.
//!
//! [`RangeTree`]: crate::RangeTree
//! [`RangeArray`]: crate::RangeArray
//! [`AddrFilter`]: crate::AddrFilter
//! [`LogImpl`]: crate::LogImpl
//! [`LogKind`]: crate::LogKind

use crate::log::LogImpl;

/// What a barrier pipeline needs from a capture-analysis structure: the
/// paper's allocation log (§3.1.2).
///
/// `level` is the transaction nesting depth that performed the allocation
/// (1 = outermost). A barrier that finds the accessed address captured at a
/// level *shallower* than the current one must still undo-log the access
/// (paper §2.2.1: memory local to a parent transaction is live-in for the
/// child and needs undo logging to support partial abort), which is why the
/// queries return the level rather than a boolean.
///
/// `query`/`query_run` are the per-access hot calls; `insert`/`remove` run
/// per transactional allocation event; `clear` runs once per transaction
/// end. Implementations must stay **conservative**: a query may miss
/// captured memory (costing only a redundant full barrier) but must never
/// report capture for memory the transaction did not allocate.
pub trait CapturePolicy {
    /// Record that `[start, start+len)` was allocated at nesting `level`.
    fn insert(&mut self, start: u64, len: u64, level: u32);

    /// The block at `start` left the transaction's captured set (freed
    /// in-transaction, or its allocation was rolled back).
    fn remove(&mut self, start: u64, len: u64);

    /// If a word access at `addr` hits a logged block, return its level.
    fn query(&self, addr: u64) -> Option<u32>;

    /// Forget everything (transaction end: commit or abort).
    fn clear(&mut self);

    /// [`query`](CapturePolicy::query) for the run of words starting at
    /// `addr`, plus a range `[start, end)` over which that verdict holds.
    /// `limit` is the exclusive end of the caller's access and only bounds
    /// how far a miss looks ahead.
    ///
    /// * On a hit the range is the whole logged block holding `addr`
    ///   (`start <= addr < end`, not clamped to `limit`). Every word of it
    ///   stays captured at the returned level until the next
    ///   `remove`/`clear`, so the caller may cache it.
    /// * On a miss the range is `[addr, end)` with `end <= limit`, and every
    ///   word of it misses: the next logged block's start bounds it. A
    ///   one-word `limit` returns without looking for that block, so a
    ///   per-word access costs exactly one lookup.
    ///
    /// `None` gives no range beyond the word at `addr`. That is the default
    /// here, kept by the lossy [`AddrFilter`](crate::AddrFilter) (a later
    /// insert can overwrite a mark, so no residency guarantee on hits and no
    /// enumerable boundaries on misses) and by the enum-dispatch reference
    /// [`LogImpl`], which models one lookup per word.
    #[inline]
    fn query_run(&self, addr: u64, limit: u64) -> (Option<u32>, Option<(u64, u64)>) {
        debug_assert!(limit > addr);
        (self.query(addr), None)
    }
}

/// `query_run` for the precise structures (tree and array), from their
/// containing-block lookup `hit` and their successor-start walk `next`.
#[inline(always)]
pub(crate) fn precise_run(
    hit: Option<(u64, u64, u32)>,
    addr: u64,
    limit: u64,
    next: impl FnOnce() -> Option<u64>,
) -> (Option<u32>, Option<(u64, u64)>) {
    debug_assert!(limit > addr);
    match hit {
        Some((start, end, level)) => (Some(level), Some((start, end))),
        None if limit - addr <= 8 => (None, Some((addr, limit))),
        None => (None, Some((addr, next().map_or(limit, |s| s.min(limit))))),
    }
}

/// The enum-dispatch reference policy: one runtime `match` per call, i.e.
/// the shape of the pre-monomorphization barrier pipeline. Kept for
/// differential tests (`TxConfig::reference_dispatch`). It forwards to the
/// inherent methods and keeps the one-word default `query_run`.
impl CapturePolicy for LogImpl {
    #[inline]
    fn insert(&mut self, start: u64, len: u64, level: u32) {
        LogImpl::insert(self, start, len, level)
    }

    #[inline]
    fn remove(&mut self, start: u64, len: u64) {
        LogImpl::remove(self, start, len)
    }

    #[inline]
    fn query(&self, addr: u64) -> Option<u32> {
        LogImpl::query(self, addr)
    }

    #[inline]
    fn clear(&mut self) {
        LogImpl::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddrFilter, LogKind, RangeArray, RangeTree};

    fn policy_roundtrip<P: CapturePolicy>(p: &mut P) {
        assert_eq!(p.query(4096), None);
        p.insert(4096, 64, 2);
        assert_eq!(p.query(4096), Some(2));
        assert_eq!(p.query(4096 + 56), Some(2));
        assert_eq!(p.query(4096 + 64), None);
        p.remove(4096, 64);
        assert_eq!(p.query(4096), None);
        p.insert(8192, 8, 1);
        p.clear();
        assert_eq!(p.query(8192), None);
    }

    #[test]
    fn all_structures_satisfy_the_policy_contract() {
        policy_roundtrip(&mut RangeTree::new());
        policy_roundtrip(&mut RangeArray::<4>::new());
        policy_roundtrip(&mut AddrFilter::with_log2_entries(12));
        for kind in LogKind::ALL {
            policy_roundtrip(&mut LogImpl::new(kind));
        }
    }

    fn run_roundtrip<P: CapturePolicy>(p: &mut P, precise: bool) {
        p.insert(4096, 64, 2);
        p.insert(4224, 32, 1);
        let limit = 8192;
        if precise {
            // A hit returns the whole block, whatever the limit.
            assert_eq!(p.query_run(4104, limit), (Some(2), Some((4096, 4160))));
            assert_eq!(p.query_run(4104, 4112), (Some(2), Some((4096, 4160))));
            // Miss between the blocks: the shared run stops at the next
            // block's start (hole detection).
            assert_eq!(p.query_run(4160, limit), (None, Some((4160, 4224))));
            // Miss after the last block: the shared run reaches the limit.
            assert_eq!(p.query_run(4256, limit), (None, Some((4256, limit))));
            // The caller's span end clamps a miss, and a one-word limit
            // is a one-word run.
            assert_eq!(p.query_run(4160, 4200), (None, Some((4160, 4200))));
            assert_eq!(p.query_run(4160, 4168), (None, Some((4160, 4168))));
        } else {
            assert_eq!(p.query_run(4104, limit), (Some(2), None));
            assert_eq!(p.query_run(4160, limit), (None, None));
        }
        p.clear();
    }

    #[test]
    fn classify_run_bounds_are_homogeneous() {
        run_roundtrip(&mut RangeTree::new(), true);
        run_roundtrip(&mut RangeArray::<4>::new(), true);
        run_roundtrip(&mut AddrFilter::with_log2_entries(12), false);
        for kind in LogKind::ALL {
            run_roundtrip(&mut LogImpl::new(kind), false);
        }
    }
}
