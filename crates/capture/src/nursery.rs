//! The nursery classification structure: transaction-local *bump-region*
//! capture analysis.
//!
//! The paper's cheapest runtime check is the stack one, because stack
//! capture is a *contiguous-region* property: two register compares against
//! `[sp, start_sp)` answer it. [`NurseryLog`] buys the heap the same
//! property. The STM carves the transaction a contiguous bump region on its
//! first transactional allocation and bump-allocates small blocks inside
//! it, so "did the current transaction allocate this heap address?" becomes
//! the same two-compare range test:
//!
//! ```text
//! captured  ⇔  nursery_lo <= addr < nursery_bump
//! ```
//!
//! Nesting (paper §2.2.1, partial abort) adds one more compare. Because the
//! bump pointer only moves up within a region, *allocation order is address
//! order*: a per-level high-watermark `marks[d-1]` (the bump value when the
//! depth-`d` transaction began) splits the scalar range by level, and
//!
//! ```text
//! current-level  ⇔  addr >= marks[depth - 1]
//! ```
//!
//! distinguishes a current-level hit, `Some(depth)` (plain access), from an
//! ancestor-level hit (reads plain, writes undo-logged), exactly mirroring
//! the `sp_inner` compare of the stack check.
//!
//! `NurseryLog` is a *policy component*, not a standalone
//! [`CapturePolicy`](crate::CapturePolicy): everything the scalar range
//! cannot represent — blocks in regions the nursery chained away from,
//! blocks survived past a hole punched by an in-transaction free, large
//! blocks — is *demoted* to one of the three paper logs (tree / array /
//! filter), which the caller keeps alongside and queries when the scalar
//! range misses.
//!
//! # Invariants
//!
//! * `lo <= marks[0] <= marks[1] <= ... <= bump <= hi` whenever a region is
//!   active; all zero when empty.
//! * Every mark is clamped up to `lo` when a hole punch raises `lo`:
//!   clamping never changes a verdict, because every address that survives
//!   in the scalar range is `>= lo`, and a mark below `lo` was below every
//!   surviving address already.
//! * The regions list records every byte range carved for this transaction
//!   (the active one last), so an abort can return *whole regions* to the
//!   allocator in O(1) per region instead of walking per-block free lists.

/// Bump-region capture state for one transaction. See the module docs for
/// the classification scheme; the owning transaction descriptor drives the
/// region lifecycle (carve / extend / chain / trim / recycle) because only
/// it can talk to the allocator.
#[derive(Debug)]
pub struct NurseryLog {
    /// Lowest address still classified by the scalar range (raised past
    /// holes punched by in-transaction frees).
    lo: u64,
    /// Bump pointer: next allocation position, one past the last captured
    /// byte. `lo == bump` means the scalar range is empty.
    bump: u64,
    /// One past the end of the active region (`bump == hi` means full).
    hi: u64,
    /// Cached `marks.last()` so the hot current-level compare never touches
    /// the vector.
    inner: u64,
    /// Per-nesting-level high-watermarks: `marks[d-1]` is the bump value
    /// when the depth-`d` transaction began (non-decreasing).
    marks: Vec<u64>,
    /// Every `(start, len)` region carved for this transaction, active one
    /// last. `len` is shrunk to the used prefix when the nursery chains
    /// away from a region (its tail is recycled immediately).
    regions: Vec<(u64, u64)>,
}

impl Default for NurseryLog {
    fn default() -> NurseryLog {
        NurseryLog {
            lo: 0,
            bump: 0,
            hi: 0,
            inner: 0,
            marks: vec![0],
            regions: Vec::new(),
        }
    }
}

impl NurseryLog {
    /// An empty nursery: no region, nesting level 1 open.
    pub fn new() -> NurseryLog {
        NurseryLog::default()
    }

    /// Scalar range start (for the inline two-compare check).
    #[inline]
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Scalar range end == bump pointer.
    #[inline]
    pub fn bump(&self) -> u64 {
        self.bump
    }

    /// Current-level watermark (`marks.last()`, cached).
    #[inline]
    pub fn inner(&self) -> u64 {
        self.inner
    }

    /// End of the active region.
    #[inline]
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// True once a region has been carved and not yet retired.
    #[inline]
    pub fn has_region(&self) -> bool {
        self.hi != 0
    }

    /// Number of regions carved so far this transaction.
    #[inline]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The carved regions, active one last.
    pub fn regions(&self) -> &[(u64, u64)] {
        &self.regions
    }

    /// Forget all state and reopen nesting level 1 (transaction end; the
    /// caller has already recycled or published the regions). The next
    /// transaction starts from exactly this state, so its begin does no
    /// nursery work at all.
    pub fn reset(&mut self) {
        self.lo = 0;
        self.bump = 0;
        self.hi = 0;
        self.inner = 0;
        self.marks.clear();
        self.marks.push(0);
        self.regions.clear();
    }

    /// Enter a nested level: snapshot the bump as its watermark.
    pub fn push_level(&mut self) {
        self.marks.push(self.bump);
        self.inner = self.bump;
    }

    /// Leave a nested level on *commit*: blocks above the popped watermark
    /// now belong to the parent automatically (the parent's watermark is
    /// lower), which is exactly the §2.2.1 demotion.
    pub fn pop_level(&mut self) {
        self.marks.pop().expect("pop_level without matching push");
        self.inner = *self.marks.last().expect("outermost nursery mark");
    }

    /// Bump-allocate `total` bytes in the active region; `None` when it
    /// does not fit (caller extends, chains, or falls back).
    #[inline]
    pub fn try_alloc(&mut self, total: u64) -> Option<u64> {
        if self.hi - self.bump >= total {
            let a = self.bump;
            self.bump += total;
            Some(a)
        } else {
            None
        }
    }

    /// Start allocating from a freshly carved region `[start, start+len)`.
    /// All existing watermarks clamp to `start`: everything allocated in
    /// the new region postdates every open level, so every open level sees
    /// it as current-or-deeper.
    pub fn switch_region(&mut self, start: u64, len: u64) {
        self.regions.push((start, len));
        self.lo = start;
        self.bump = start;
        self.hi = start + len;
        for m in &mut self.marks {
            *m = start;
        }
        self.inner = start;
    }

    /// The active region was extended in place by `bytes` (contiguous
    /// frontier carve): the scalar range simply grows.
    pub fn extend_active(&mut self, bytes: u64) {
        debug_assert!(self.has_region());
        self.hi += bytes;
        self.regions.last_mut().expect("active region").1 += bytes;
    }

    /// Chain away from the active region: shrink its record to the used
    /// prefix and return the unused tail `(start, len)` for immediate
    /// recycling. The caller must demote the live scalar blocks to the
    /// fallback log *before* calling [`NurseryLog::switch_region`].
    pub fn retire_active(&mut self) -> (u64, u64) {
        debug_assert!(self.has_region());
        let tail = (self.bump, self.hi - self.bump);
        let last = self.regions.last_mut().expect("active region");
        last.1 = self.bump - last.0;
        self.hi = self.bump;
        tail
    }

    /// LIFO free: the block `[start, bump)` was the most recent allocation;
    /// hand its bytes straight back to the bump pointer.
    pub fn bump_back(&mut self, start: u64) {
        debug_assert!(start >= self.inner && start < self.bump);
        self.bump = start;
    }

    /// An in-transaction free punched the hole `[hole_lo, hole_hi)` out of
    /// the scalar range. The range shrinks to `[hole_hi, bump)` so future
    /// allocations stay on the scalar path; the caller demotes the live
    /// blocks of `[lo, hole_lo)` to the fallback log. Watermarks clamp up
    /// to the new `lo` (verdict-preserving, see module invariants).
    pub fn punch_hole(&mut self, hole_lo: u64, hole_hi: u64) {
        debug_assert!(self.lo <= hole_lo && hole_lo < hole_hi && hole_hi <= self.bump);
        self.lo = hole_hi;
        for m in &mut self.marks {
            if *m < hole_hi {
                *m = hole_hi;
            }
        }
        self.inner = *self.marks.last().expect("outermost nursery mark");
    }

    /// Partial abort of the innermost level when its region set is
    /// unchanged: every scalar block it allocated sits in `[mark, bump)`;
    /// reset the bump to reclaim them all at once. `lo` may exceed the
    /// popped mark when the aborted level punched a hole; the scalar range
    /// is then empty, which is exact (everything below was demoted).
    pub fn abort_level(&mut self) {
        let mark = self.marks.pop().expect("abort_level without push");
        self.bump = mark.max(self.lo);
        self.inner = *self.marks.last().expect("outermost nursery mark");
    }

    /// Drop the active region without touching the marks stack (partial
    /// abort that has to discard regions carved by the aborted level). The
    /// scalar range empties; the next allocation carves afresh. Marks clamp
    /// to zero to keep the ordering invariant.
    pub fn clear_active(&mut self, keep_regions: usize) {
        self.regions.truncate(keep_regions);
        self.lo = 0;
        self.bump = 0;
        self.hi = 0;
        for m in &mut self.marks {
            *m = 0;
        }
        self.inner = 0;
    }

    /// Scalar-range classification alone (no fallback): captured iff the
    /// address lies in `[lo, bump)`, at the deepest open level whose
    /// watermark it reaches — the level, as
    /// [`CapturePolicy::query`](crate::CapturePolicy::query) returns it.
    #[inline]
    pub fn classify(&self, addr: u64) -> Option<u32> {
        if addr >= self.lo && addr < self.bump {
            // Level = number of watermarks at or below the address. Marks
            // are non-decreasing, so this is an upper-bound search; the
            // vector is as deep as the nesting, i.e. tiny.
            let level = self.marks.iter().take_while(|&&m| m <= addr).count() as u32;
            debug_assert!(level >= 1, "address in scalar range below every mark");
            Some(level)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RangeTree;

    #[test]
    fn empty_nursery_captures_nothing() {
        let n = NurseryLog::new();
        assert_eq!(n.classify(0), None);
        assert_eq!(n.classify(4096), None);
        assert!(!n.has_region());
    }

    #[test]
    fn bump_allocations_classify_at_their_level() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 1024);
        let a = n.try_alloc(64).unwrap();
        assert_eq!(a, 4096);
        assert_eq!(n.classify(a), Some(1));
        assert_eq!(n.classify(a + 56), Some(1));
        n.push_level();
        let b = n.try_alloc(64).unwrap();
        assert_eq!(n.classify(b), Some(2));
        assert_eq!(n.classify(a), Some(1), "parent block stays level 1");
        // Child commits: its block demotes to the parent automatically.
        n.pop_level();
        assert_eq!(n.classify(b), Some(1));
        // A later sibling sees the first child's block as ancestor-level.
        n.push_level();
        assert_eq!(n.classify(b), Some(1));
        let c = n.try_alloc(32).unwrap();
        assert_eq!(n.classify(c), Some(2));
        n.pop_level();
    }

    #[test]
    fn abort_level_reclaims_child_blocks() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 1024);
        let a = n.try_alloc(64).unwrap();
        n.push_level();
        let b = n.try_alloc(64).unwrap();
        n.abort_level();
        assert_eq!(n.classify(b), None, "aborted child block");
        assert_eq!(n.classify(a), Some(1));
        assert_eq!(n.try_alloc(64).unwrap(), b, "bump space reclaimed");
    }

    #[test]
    fn lifo_free_bumps_back() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 1024);
        let a = n.try_alloc(64).unwrap();
        let b = n.try_alloc(32).unwrap();
        n.bump_back(b);
        assert_eq!(n.classify(b), None);
        assert_eq!(n.classify(a), Some(1));
        assert_eq!(n.try_alloc(16).unwrap(), b);
    }

    #[test]
    fn hole_punch_keeps_the_upper_half_scalar() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 1024);
        let a = n.try_alloc(64).unwrap();
        let freed = n.try_alloc(64).unwrap();
        let c = n.try_alloc(64).unwrap();
        n.punch_hole(freed, freed + 64);
        assert_eq!(n.classify(freed), None);
        assert_eq!(n.classify(freed + 32), None);
        assert_eq!(
            n.classify(a),
            None,
            "below-hole block left the scalar range"
        );
        assert_eq!(n.classify(c), Some(1), "above-hole block stays");
        // Future allocations continue on the scalar path.
        let d = n.try_alloc(16).unwrap();
        assert_eq!(n.classify(d), Some(1));
    }

    #[test]
    fn composition_falls_back_to_the_paper_log() {
        let mut n = NurseryLog::new();
        let mut tree = RangeTree::new();
        n.switch_region(4096, 256);
        let a = n.try_alloc(64).unwrap();
        let f = n.try_alloc(64).unwrap();
        let c = n.try_alloc(64).unwrap();
        // Free `f` mid-range: the below-hole block `a` is demoted to the
        // fallback log (as the runtime does), then the hole is punched.
        use crate::CapturePolicy;
        tree.insert(a, 64, 1);
        n.punch_hole(f, f + 64);
        assert_eq!(n.classify(a), None);
        // Scalar range first, the fallback log second.
        let composed = |addr| n.classify(addr).or_else(|| tree.query(addr));
        assert_eq!(composed(a), Some(1));
        assert_eq!(composed(f), None, "freed block");
        assert_eq!(composed(c), Some(1), "scalar hit");
        assert_eq!(composed(9000), None);
    }

    #[test]
    fn retire_and_switch_regions() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 256);
        n.try_alloc(64).unwrap();
        n.push_level();
        let (tail_start, tail_len) = n.retire_active();
        assert_eq!((tail_start, tail_len), (4096 + 64, 192));
        assert_eq!(n.regions(), &[(4096, 64)]);
        n.switch_region(16384, 256);
        let b = n.try_alloc(64).unwrap();
        assert_eq!(b, 16384);
        // Everything in the new region postdates both open levels.
        assert_eq!(n.classify(b), Some(2));
        assert_eq!(n.region_count(), 2);
        n.pop_level();
        assert_eq!(n.classify(b), Some(1));
    }

    #[test]
    fn extend_active_grows_in_place() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 64);
        n.try_alloc(64).unwrap();
        assert_eq!(n.try_alloc(16), None);
        n.extend_active(64);
        assert_eq!(n.regions(), &[(4096, 128)]);
        let b = n.try_alloc(64).unwrap();
        assert_eq!(b, 4096 + 64);
        assert_eq!(n.classify(b), Some(1));
    }

    #[test]
    fn clear_active_empties_the_scalar_range() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 256);
        let a = n.try_alloc(64).unwrap();
        n.push_level();
        n.switch_region(16384, 256); // child chained
        n.try_alloc(64).unwrap();
        n.marks.pop(); // abort path pops the level around clear_active
        n.inner = *n.marks.last().unwrap();
        n.clear_active(1);
        assert_eq!(n.classify(a), None, "demoted earlier; scalar is empty");
        assert_eq!(n.classify(16384), None);
        assert_eq!(n.region_count(), 1);
        assert!(!n.has_region());
    }
}
