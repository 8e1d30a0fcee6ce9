use crate::policy::{precise_run, CapturePolicy};

/// The paper's array allocation log (Fig. 6): an unsorted, fixed-capacity
/// array of `(start, end)` ranges sized to fit one cache line, so a capture
/// check brings all logged ranges into cache at once.
///
/// On a 64-bit machine a 64-byte cache line holds `N = 4` `(u64, u64)`
/// ranges (the paper's figure shows 8 ranges of 32-bit addresses on a 32-bit
/// CPU). When the array is full, further inserts are *dropped*: the paper
/// observes that capture analysis may be arbitrarily inaccurate for a
/// direct-update STM as long as it is conservative — a dropped range only
/// means the corresponding barriers are not elided. Nesting levels are kept
/// in a side array so the hot range scan stays within the line.
pub struct RangeArray<const N: usize = 4> {
    ranges: Ranges<N>,
    levels: [u32; N],
    live: u32,
    /// Inserts dropped because the array was full (diagnostics; the paper
    /// notes yada is the one STAMP program where this matters).
    pub dropped: u64,
}

#[repr(align(64))]
struct Ranges<const N: usize>([(u64, u64); N]);

impl<const N: usize> RangeArray<N> {
    /// An empty array; all `N` slots free.
    pub fn new() -> RangeArray<N> {
        RangeArray {
            ranges: Ranges([(0, 0); N]),
            levels: [0; N],
            live: 0,
            dropped: 0,
        }
    }

    /// Number of ranges currently held (diagnostics).
    pub fn entries(&self) -> usize {
        self.live as usize
    }

    /// Like [`CapturePolicy::query`], but returning the containing range
    /// `(start, end, level)` for the STM's inline capture cache. A range
    /// that made it into the array stays queryable until removed or
    /// cleared (only *inserts* are lossy), so a returned range is a valid
    /// residency guarantee.
    #[inline]
    pub fn query_range(&self, addr: u64) -> Option<(u64, u64, u32)> {
        // Straight-line scan of the whole line, as the paper describes.
        for i in 0..N {
            let (s, e) = self.ranges.0[i];
            if addr >= s && addr < e {
                return Some((s, e, self.levels[i]));
            }
        }
        None
    }

    /// Smallest logged range start strictly greater than `addr` (see
    /// [`RangeTree::next_start_after`](crate::RangeTree::next_start_after)):
    /// bounds a shared run for the ranged barriers. Linear scan of the line,
    /// same cost shape as `query_range`.
    #[inline]
    pub fn next_start_after(&self, addr: u64) -> Option<u64> {
        let mut best = None;
        for i in 0..N {
            let (s, e) = self.ranges.0[i];
            if s != e && s > addr && best.is_none_or(|b| s < b) {
                best = Some(s);
            }
        }
        best
    }
}

impl<const N: usize> Default for RangeArray<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> CapturePolicy for RangeArray<N> {
    fn insert(&mut self, start: u64, len: u64, level: u32) {
        debug_assert!(len > 0);
        for i in 0..N {
            let (s, e) = self.ranges.0[i];
            if s == e {
                self.ranges.0[i] = (start, start + len);
                self.levels[i] = level;
                self.live += 1;
                return;
            }
        }
        self.dropped += 1;
    }

    fn remove(&mut self, start: u64, _len: u64) {
        for i in 0..N {
            let (s, e) = self.ranges.0[i];
            if s == start && s != e {
                self.ranges.0[i] = (0, 0);
                self.live -= 1;
                return;
            }
        }
    }

    #[inline]
    fn query(&self, addr: u64) -> Option<u32> {
        self.query_range(addr).map(|(_, _, level)| level)
    }

    fn clear(&mut self) {
        self.ranges.0 = [(0, 0); N];
        self.live = 0;
    }

    #[inline]
    fn query_run(&self, addr: u64, limit: u64) -> (Option<u32>, Option<(u64, u64)>) {
        precise_run(self.query_range(addr), addr, limit, || {
            self.next_start_after(addr)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<Ranges<4>>(), 64);
        assert_eq!(std::mem::align_of::<Ranges<4>>(), 64);
    }

    #[test]
    fn insert_query_remove() {
        let mut a: RangeArray<4> = RangeArray::new();
        a.insert(100, 50, 1);
        a.insert(400, 8, 2);
        assert_eq!(a.query(100), Some(1));
        assert_eq!(a.query(149), Some(1));
        assert_eq!(a.query(150), None);
        assert_eq!(a.query(404), Some(2));
        a.remove(100, 50);
        assert_eq!(a.query(120), None);
        assert_eq!(a.entries(), 1);
    }

    #[test]
    fn overflow_is_dropped_conservatively() {
        let mut a: RangeArray<4> = RangeArray::new();
        for i in 0..6u64 {
            a.insert(i * 100, 10, 1);
        }
        assert_eq!(a.entries(), 4);
        assert_eq!(a.dropped, 2);
        // The first four are found, the overflowed two are (conservatively)
        // missed — never wrongly reported captured.
        assert_eq!(a.query(5), Some(1));
        assert_eq!(a.query(305), Some(1));
        assert_eq!(a.query(405), None);
        assert_eq!(a.query(505), None);
    }

    #[test]
    fn next_start_after_scans_live_slots() {
        let mut a: RangeArray<4> = RangeArray::new();
        assert_eq!(a.next_start_after(0), None);
        a.insert(400, 8, 2);
        a.insert(100, 50, 1);
        assert_eq!(a.next_start_after(0), Some(100));
        assert_eq!(a.next_start_after(100), Some(400), "strictly greater");
        assert_eq!(a.next_start_after(399), Some(400));
        assert_eq!(a.next_start_after(400), None);
        a.remove(400, 8);
        assert_eq!(a.next_start_after(100), None, "freed slot is ignored");
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut a: RangeArray<4> = RangeArray::new();
        for i in 0..4u64 {
            a.insert(i * 100, 10, 1);
        }
        a.remove(200, 10);
        a.insert(1000, 10, 3);
        assert_eq!(a.query(1005), Some(3));
        assert_eq!(a.entries(), 4);
    }

    #[test]
    fn clear_resets_everything_but_drop_stats() {
        let mut a: RangeArray<4> = RangeArray::new();
        for i in 0..5u64 {
            a.insert(i * 100, 10, 1);
        }
        a.clear();
        assert_eq!(a.entries(), 0);
        assert_eq!(a.query(105), None);
        assert_eq!(a.dropped, 1, "drop count is cumulative diagnostics");
    }

    #[test]
    fn zero_length_sentinel_is_not_a_match() {
        let a: RangeArray<4> = RangeArray::new();
        assert_eq!(a.query(0), None);
    }

    #[test]
    fn larger_variant_for_ablation() {
        let mut a: RangeArray<8> = RangeArray::new();
        for i in 0..8u64 {
            a.insert(i * 100, 10, 1);
        }
        assert_eq!(a.entries(), 8);
        assert_eq!(a.dropped, 0);
    }
}
