//! The nursery classification structure: transaction-local *bump-region*
//! capture analysis.
//!
//! The paper's cheapest runtime check is the stack one, because stack
//! capture is a *contiguous-region* property: two register compares against
//! `[sp, start_sp)` answer it. [`NurseryLog`] buys the heap the same
//! property. The STM hands each worker a contiguous bump region of the
//! heap, held across transactions, and bump-allocates small blocks inside
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
//! cannot represent — blocks in regions the nursery switched away from,
//! large blocks — is *demoted* to one of the three paper logs (tree /
//! array / filter), which the caller keeps alongside and queries when the
//! scalar range misses.
//!
//! An in-transaction free ([`NurseryLog::free`]) of the block at the top of
//! the bump hands its bytes back; any other freed block dies in place and
//! stays inside the scalar range. No other transaction can reach a block
//! this one bumped, and nothing reuses the space before the transaction
//! ends, so a dead block in the range is never misread.
//!
//! # Invariants
//!
//! * `marks[0] <= marks[1] <= ... <= bump <= hi` whenever a region is
//!   active; all zero when empty. The scalar range is `[marks[0], bump)`.
//! * Between transactions the scalar range is empty (`marks[0] == bump`)
//!   and the region stays: a commit keeps the bump position, an abort
//!   rewinds it to where the transaction began. Every region the
//!   transaction switched away from is listed with the bump it was left
//!   at, so the owner can let go of it.

/// A nursery position, taken at transaction and nested-level begin; an
/// abort returns to it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NurseryMark {
    /// Start of the active region (0 when there is none).
    pub start: u64,
    /// One past its end (0 when there is none).
    pub end: u64,
    /// The bump pointer inside it.
    pub bump: u64,
    /// How many regions the transaction had switched away from.
    pub left: usize,
}

/// Bump-region capture state for one worker. See the module docs for the
/// classification scheme; the owning transaction descriptor takes and
/// lets go of regions because only it can talk to the allocator.
#[derive(Debug)]
pub struct NurseryLog {
    /// Bump pointer: next allocation position, one past the last captured
    /// byte. `marks[0] == bump` means the scalar range is empty.
    bump: u64,
    /// One past the end of the active region (`bump == hi` means full).
    hi: u64,
    /// Start of the active region.
    start: u64,
    /// Cached `marks.last()` so the hot current-level compare never touches
    /// the vector.
    inner: u64,
    /// Per-nesting-level high-watermarks: `marks[d-1]` is the bump value
    /// when the depth-`d` transaction began (non-decreasing); `marks[0]`
    /// is the scalar range's start.
    marks: Vec<u64>,
    /// Every region `(start, end, bump)` this transaction switched away
    /// from, with the bump it was left at.
    left: Vec<(u64, u64, u64)>,
    /// Where the running transaction began.
    origin: NurseryMark,
}

impl Default for NurseryLog {
    fn default() -> NurseryLog {
        NurseryLog {
            bump: 0,
            hi: 0,
            start: 0,
            inner: 0,
            marks: vec![0],
            left: Vec::new(),
            origin: NurseryMark::default(),
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
        self.marks[0]
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

    /// Regions `(start, end, bump)` switched away from in this
    /// transaction, with the bump each was left at.
    pub fn left(&self) -> &[(u64, u64, u64)] {
        &self.left
    }

    /// Where the running transaction began.
    pub fn origin(&self) -> NurseryMark {
        self.origin
    }

    /// The current position, for a nested level's checkpoint.
    pub fn mark(&self) -> NurseryMark {
        NurseryMark {
            start: self.start,
            end: self.hi,
            bump: self.bump,
            left: self.left.len(),
        }
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
    /// does not fit (caller switches regions or falls back).
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

    /// Start allocating from the fresh region `[start, start+len)`. The
    /// caller must first demote the live scalar blocks to the fallback
    /// log. All watermarks clamp to `start`: everything allocated in the
    /// new region postdates every open level, so every open level sees it
    /// as current-or-deeper.
    pub fn switch_region(&mut self, start: u64, len: u64) {
        if self.hi != 0 {
            self.left.push((self.start, self.hi, self.bump));
        }
        self.set_position(start, start + len, start);
    }

    fn set_position(&mut self, start: u64, end: u64, bump: u64) {
        self.start = start;
        self.hi = end;
        self.bump = bump;
        for m in &mut self.marks {
            *m = bump;
        }
        self.inner = bump;
    }

    /// An in-transaction free of the current level's block `[start, end)`.
    /// The block at the top of the bump hands its bytes straight back; any
    /// other block dies in place, and the scalar range and the marks stay
    /// as they are (see the module docs).
    pub fn free(&mut self, start: u64, end: u64) {
        if end == self.bump && start >= self.inner {
            self.bump = start;
        }
    }

    /// Partial abort of the innermost level, which began at `at`. If it
    /// switched regions, return to the region and bump it began with, with
    /// an empty scalar range (everything still live below was demoted at
    /// the switch); the caller first lets go of the regions the level
    /// switched to (the active one, and `left()[at.left..]` but `at`'s).
    /// Otherwise reset the bump to the level's watermark, reclaiming its
    /// blocks at once.
    pub fn abort_level(&mut self, at: NurseryMark) {
        let mark = self.marks.pop().expect("abort_level without push");
        if self.start != at.start {
            self.left.truncate(at.left);
            self.set_position(at.start, at.end, at.bump);
        } else {
            self.bump = mark;
        }
        self.inner = *self.marks.last().expect("outermost nursery mark");
    }

    /// End of a committed transaction: the region and bump stay for the
    /// next one, with an empty scalar range. The caller lets go of the
    /// regions in `left()` first.
    pub fn commit(&mut self) {
        self.left.clear();
        self.marks.truncate(1);
        self.set_position(self.start, self.hi, self.bump);
        self.origin = self.mark();
    }

    /// End of an aborted transaction: back to where it began. The caller
    /// first lets go of the regions the transaction switched to (the
    /// active one, and `left()`'s but the origin's).
    pub fn abort(&mut self) {
        self.left.clear();
        self.marks.truncate(1);
        let o = self.origin;
        self.set_position(o.start, o.end, o.bump);
    }

    /// Scalar-range classification alone (no fallback): captured iff the
    /// address lies in `[marks[0], bump)`, at the deepest open level whose
    /// watermark it reaches — the level, as
    /// [`CapturePolicy::query`](crate::CapturePolicy::query) returns it.
    #[inline]
    pub fn classify(&self, addr: u64) -> Option<u32> {
        if addr >= self.lo() && addr < self.bump {
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
        assert_eq!(n.mark().end, 0, "no region");
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
        let at = n.mark();
        n.push_level();
        let b = n.try_alloc(64).unwrap();
        n.abort_level(at);
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
        n.free(b, b + 32);
        assert_eq!(n.classify(b), None);
        assert_eq!(n.classify(a), Some(1));
        assert_eq!(n.try_alloc(16).unwrap(), b);
        // Then `a` is the top, and goes back too.
        n.free(b, b + 16);
        n.free(a, a + 64);
        assert_eq!(n.try_alloc(64).unwrap(), a);
    }

    #[test]
    fn a_middle_free_dies_in_place() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 1024);
        let a = n.try_alloc(64).unwrap();
        n.push_level();
        let freed = n.try_alloc(64).unwrap();
        let c = n.try_alloc(64).unwrap();
        let before = (n.lo(), n.bump(), n.inner(), n.marks.clone());
        n.free(freed, freed + 64);
        assert_eq!(
            (n.lo(), n.bump(), n.inner(), n.marks.clone()),
            before,
            "the range and the marks stay"
        );
        assert_eq!(n.classify(a), Some(1));
        assert_eq!(n.classify(freed), Some(2), "dead in place, still in range");
        assert_eq!(n.classify(c), Some(2));
        // Future allocations bump on above it.
        assert_eq!(n.try_alloc(16), Some(c + 64));
    }

    #[test]
    fn a_block_below_the_region_never_moves_the_bump() {
        // The old region ends where the new one starts: the last block of
        // the old one ends at the new bump, but lies below the watermark.
        let mut n = NurseryLog::new();
        n.switch_region(4096, 64);
        let a = n.try_alloc(64).unwrap();
        n.switch_region(4096 + 64, 1024);
        assert_eq!(n.bump(), a + 64);
        n.free(a, a + 64);
        assert_eq!(n.bump(), a + 64);
    }

    #[test]
    fn composition_falls_back_to_the_paper_log() {
        use crate::CapturePolicy;
        let mut n = NurseryLog::new();
        let mut tree = RangeTree::new();
        n.switch_region(4096, 128);
        let a = n.try_alloc(64).unwrap();
        let b = n.try_alloc(64).unwrap();
        // The region is full: the live blocks `a` and `b` demote to the
        // fallback log (as the runtime does), then the nursery switches.
        assert_eq!(n.try_alloc(64), None);
        tree.insert(a, 64, 1);
        tree.insert(b, 64, 1);
        n.switch_region(16384, 128);
        let c = n.try_alloc(64).unwrap();
        assert_eq!(n.classify(a), None);
        // Scalar range first, the fallback log second.
        let composed = |addr| n.classify(addr).or_else(|| tree.query(addr));
        assert_eq!(composed(a), Some(1));
        assert_eq!(composed(b + 8), Some(1));
        assert_eq!(composed(c), Some(1), "scalar hit");
        assert_eq!(composed(9000), None);
    }

    #[test]
    fn retire_and_switch_regions() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 256);
        n.try_alloc(64).unwrap();
        n.push_level();
        n.switch_region(16384, 256);
        let b = n.try_alloc(64).unwrap();
        assert_eq!(b, 16384);
        // Everything in the new region postdates both open levels.
        assert_eq!(n.classify(b), Some(2));
        assert_eq!(n.classify(4096), None, "the old region left the range");
        assert_eq!(n.left(), &[(4096, 4096 + 256, 4096 + 64)]);
        n.pop_level();
        assert_eq!(n.classify(b), Some(1));
    }

    #[test]
    fn commit_keeps_the_bump_and_abort_rewinds_it() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 1024);
        let a = n.try_alloc(64).unwrap();
        n.commit();
        assert_eq!(n.classify(a), None, "published: out of the next range");
        assert!(n.left().is_empty());
        assert_eq!(n.origin().bump, a + 64);
        let b = n.try_alloc(64).unwrap();
        assert_eq!(b, a + 64, "the next transaction bumps on");
        assert_eq!(n.classify(b), Some(1));
        n.switch_region(16384, 1024);
        n.try_alloc(64).unwrap();
        assert_eq!(n.left(), &[(4096, 4096 + 1024, b + 64)]);
        n.abort();
        assert!(n.left().is_empty());
        assert_eq!(n.classify(b), None);
        assert_eq!(n.try_alloc(64), Some(b), "rewound to the origin");
    }

    #[test]
    fn clear_active_empties_the_scalar_range() {
        let mut n = NurseryLog::new();
        n.switch_region(4096, 256);
        let a = n.try_alloc(64).unwrap();
        let at = n.mark();
        n.push_level();
        n.switch_region(16384, 256); // child switched
        n.try_alloc(64).unwrap();
        assert_eq!(&n.left()[at.left..], &[(4096, 4096 + 256, a + 64)]);
        n.abort_level(at);
        assert_eq!(
            n.classify(a),
            None,
            "demoted at the switch; scalar is empty"
        );
        assert_eq!(n.classify(16384), None);
        assert!(n.left().is_empty());
        assert_eq!(n.try_alloc(64), Some(a + 64), "back on the first region");
        assert_eq!(n.classify(a + 64), Some(1));
    }
}
