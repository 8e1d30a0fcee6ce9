use crate::CapturePolicy;

const WORD: u64 = 8;

/// Default table size (log2 slots) when the filter is the selected policy.
/// 1024 interleaved 16-byte slots = 16 KiB — small enough to live in L1
/// next to the transaction's working set, which is what makes a filter hit
/// cheaper than the full shared barrier it elides. (The original layout —
/// two parallel 4096-entry arrays, 64 KiB total — cost two L2-resident
/// loads per probe and benchmarked *slower* than the slow path.)
pub const DEFAULT_FILTER_LOG2: u32 = 10;

/// The paper's filtering allocation log (§3.1.2): a hash table used as a
/// filter, extended from single-item filtering (paper ref \[8\]) to memory
/// ranges by marking *every word* of an allocated block.
///
/// Each slot stores the exact word address that hashed to it, so a lookup is
/// "a hash and a compare": collisions overwrite older marks, which produces
/// false negatives but never false positives — conservative in the direction
/// that is safe for barrier elision. As the paper notes, insertion and
/// removal cost is proportional to the block size, which makes the filter
/// comparatively expensive for large allocations.
///
/// Probe layout: the address and its epoch/level metadata are *interleaved*
/// in one 16-byte slot, so a probe touches exactly one cache line (the
/// original two-parallel-arrays layout took two misses per probe). The
/// probe index keeps the word index's *low bits sequential* and scrambles
/// only the window above them — consecutive words of a block land in
/// consecutive slots, so the per-word insert/remove sweep the paper calls
/// out as the filter's cost is a streaming write instead of a random
/// scatter, while distinct blocks still spread across the table.
///
/// Clearing at transaction end is O(1) via epoch tagging: each mark carries
/// the epoch in which it was written and `clear` simply advances the epoch
/// (a standard filtering trick; the paper does not specify its clearing
/// scheme).
pub struct AddrFilter {
    slots: Box<[Slot]>,
    mask: u64,
    /// log2 of the slot count: how far to shift the word index before
    /// mixing, so the sequential low bits survive.
    log2: u32,
    epoch: u32,
    live_hint: usize,
}

/// One probe target: the exact word address marked here, plus the epoch the
/// mark was written in and the allocating nesting level.
#[derive(Clone, Copy, Default)]
struct Slot {
    addr: u64,
    epoch: u32,
    level: u32,
}

impl AddrFilter {
    /// Create a filter with `2^log2` slots ([`DEFAULT_FILTER_LOG2`] when
    /// selected as the active policy; `0`, a single slot, when not).
    pub fn with_log2_entries(log2: u32) -> AddrFilter {
        let n = 1usize << log2;
        AddrFilter {
            slots: vec![Slot::default(); n].into_boxed_slice(),
            mask: (n - 1) as u64,
            log2,
            epoch: 1,
            live_hint: 0,
        }
    }

    #[inline]
    fn slot(&self, addr: u64) -> usize {
        // Sequential low bits + multiplicatively mixed window: the word
        // index's bottom `log2` bits index within a table-sized window,
        // and the bits above pick (and scramble) the window placement.
        let w = addr >> 3;
        let window = (w >> self.log2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (w.wrapping_add(window) & self.mask) as usize
    }

    /// Words marked since the last clear (diagnostics; collisions make it
    /// an upper bound on the marks still present).
    pub fn entries(&self) -> usize {
        self.live_hint
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl CapturePolicy for AddrFilter {
    fn insert(&mut self, start: u64, len: u64, level: u32) {
        debug_assert!(len > 0 && start.is_multiple_of(WORD));
        // Consecutive words occupy consecutive slots (see `slot`), and the
        // mixed window changes only when the word index crosses a
        // table-size boundary — so a block insert is at most a couple of
        // straight-line sweeps with one slot computation each, not a hash
        // per word (the per-word marking cost the paper calls out).
        let epoch = self.epoch;
        let mut a = start;
        let end = start + len;
        while a < end {
            // Words until the next (w >> log2) boundary, capped at the end.
            let w = a >> 3;
            let to_boundary = (1u64 << self.log2) - (w & ((1 << self.log2) - 1));
            let run_end = end.min(a + to_boundary * WORD);
            let mut s = self.slot(a);
            while a < run_end {
                self.slots[s] = Slot {
                    addr: a,
                    epoch,
                    level,
                };
                s = (s + 1) & self.mask as usize;
                a += WORD;
            }
        }
        self.live_hint += (len / WORD) as usize;
    }

    fn remove(&mut self, start: u64, len: u64) {
        let epoch = self.epoch;
        let mut a = start;
        let end = start + len;
        while a < end {
            let w = a >> 3;
            let to_boundary = (1u64 << self.log2) - (w & ((1 << self.log2) - 1));
            let run_end = end.min(a + to_boundary * WORD);
            let mut s = self.slot(a);
            while a < run_end {
                if self.slots[s].addr == a && self.slots[s].epoch == epoch {
                    self.slots[s].epoch = 0;
                }
                s = (s + 1) & self.mask as usize;
                a += WORD;
            }
        }
    }

    #[inline]
    fn query(&self, addr: u64) -> Option<u32> {
        let s = self.slots[self.slot(addr)];
        if s.addr == addr && s.epoch == self.epoch {
            Some(s.level)
        } else {
            None
        }
    }

    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wraparound: do a real wipe so stale epoch-0
            // marks cannot resurrect.
            self.slots.fill(Slot::default());
            self.epoch = 1;
        }
        self.live_hint = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_every_word_of_a_block() {
        let mut f = AddrFilter::with_log2_entries(12);
        f.insert(1024, 64, 1);
        for i in 0..8u64 {
            assert_eq!(f.query(1024 + i * 8), Some(1), "word {i}");
        }
        assert_eq!(f.query(1024 + 64), None);
        assert_eq!(f.query(1016), None);
    }

    #[test]
    fn no_false_positives_under_collisions() {
        let mut f = AddrFilter::with_log2_entries(4); // 16 slots: heavy collisions
        for i in 0..64u64 {
            f.insert(4096 + i * 8, 8, 1);
        }
        // Whatever survives, queries for never-inserted addresses must miss.
        for i in 0..64u64 {
            assert_eq!(f.query(131072 + i * 8), None);
        }
        // And surviving marks must be real.
        let mut hits = 0;
        for i in 0..64u64 {
            if f.query(4096 + i * 8).is_some() {
                hits += 1;
            }
        }
        assert!(hits <= 16, "cannot have more hits than slots");
        assert!(hits > 0, "direct-mapped table should retain something");
    }

    #[test]
    fn remove_clears_marks() {
        let mut f = AddrFilter::with_log2_entries(12);
        f.insert(2048, 32, 2);
        f.remove(2048, 32);
        for i in 0..4u64 {
            assert_eq!(f.query(2048 + i * 8), None);
        }
    }

    #[test]
    fn clear_is_constant_time_epoch_bump() {
        let mut f = AddrFilter::with_log2_entries(12);
        f.insert(512, 8, 1);
        f.clear();
        assert_eq!(f.query(512), None);
        // Fresh inserts after clear work.
        f.insert(512, 8, 3);
        assert_eq!(f.query(512), Some(3));
    }

    #[test]
    fn epoch_wraparound_is_safe() {
        let mut f = AddrFilter::with_log2_entries(4);
        f.insert(64, 8, 1);
        // (cannot loop 2^32 times in a test; force the wrap directly)
        f.epoch = u32::MAX;
        f.insert(128, 8, 2);
        f.clear(); // wraps to 0 -> real wipe -> epoch 1
        assert_eq!(f.query(128), None);
        assert_eq!(f.query(64), None);
        f.insert(64, 8, 5);
        assert_eq!(f.query(64), Some(5));
    }

    #[test]
    fn levels_survive() {
        let mut f = AddrFilter::with_log2_entries(12);
        f.insert(800, 8, 7);
        assert_eq!(f.query(800), Some(7));
    }

    #[test]
    fn one_slot_table_is_safe_and_lossy() {
        // Unselected policies carry a single-slot filter; it must stay a
        // correct (if useless) filter, not shift by 64.
        let mut f = AddrFilter::with_log2_entries(0);
        assert_eq!(f.capacity(), 1);
        f.insert(64, 8, 1);
        assert_eq!(f.query(64), Some(1));
        f.insert(128, 8, 2);
        assert_eq!(f.query(64), None, "overwritten by the collision");
        assert_eq!(f.query(128), Some(2));
    }

    #[test]
    fn dense_small_strides_spread_over_slots() {
        // The allocator hands out small-stride addresses; the multiply-shift
        // hash must not funnel them into a few slots.
        let mut f = AddrFilter::with_log2_entries(DEFAULT_FILTER_LOG2);
        f.insert(1 << 20, 512 * 8, 1); // 512 consecutive words
        let mut hits = 0;
        for i in 0..512u64 {
            if f.query((1 << 20) + i * 8).is_some() {
                hits += 1;
            }
        }
        // With 1024 slots and 512 keys, a good hash keeps most marks alive.
        assert!(
            hits > 300,
            "only {hits}/512 marks survived: bad distribution"
        );
    }
}
