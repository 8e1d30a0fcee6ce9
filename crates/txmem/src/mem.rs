use std::sync::atomic::{AtomicU64, Ordering};

use crate::addr::{Addr, WORD_BYTES};

/// Configuration for the simulated address space.
#[derive(Clone, Copy, Debug)]
pub struct MemConfig {
    /// Maximum number of worker threads that can own a stack region.
    pub max_threads: usize,
    /// Words per per-thread stack region.
    pub stack_words: usize,
    /// Words in the shared heap region.
    pub heap_words: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            max_threads: 32,
            stack_words: 1 << 14, // 128 KiB per thread
            heap_words: 1 << 22,  // 32 MiB heap
        }
    }
}

impl MemConfig {
    /// A small configuration for unit tests.
    pub fn small() -> Self {
        MemConfig {
            max_threads: 8,
            stack_words: 1 << 10,
            heap_words: 1 << 16,
        }
    }
}

/// Resolved layout of the simulated address space (all in *byte* addresses):
///
/// ```text
/// [ word 0: NULL | stacks: max_threads x stack_words | heap ............ ]
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    pub max_threads: usize,
    pub stack_bytes: u64,
    /// Byte address of the *lowest* stack word (thread 0's limit).
    pub stacks_start: u64,
    /// Byte address one past the last stack word == heap start.
    pub heap_start: u64,
    /// Byte address one past the end of the heap.
    pub heap_end: u64,
}

impl MemLayout {
    fn new(cfg: &MemConfig) -> MemLayout {
        let stacks_start = WORD_BYTES; // word 0 reserved for NULL
        let stack_bytes = cfg.stack_words as u64 * WORD_BYTES;
        let heap_start = stacks_start + cfg.max_threads as u64 * stack_bytes;
        let heap_end = heap_start + cfg.heap_words as u64 * WORD_BYTES;
        MemLayout {
            max_threads: cfg.max_threads,
            stack_bytes,
            stacks_start,
            heap_start,
            heap_end,
        }
    }

    /// `[limit, base)` byte range of thread `tid`'s stack. The stack grows
    /// *downward* from `base` toward `limit`, as in the paper's Figure 3.
    pub fn stack_range(&self, tid: usize) -> (u64, u64) {
        assert!(tid < self.max_threads, "thread id {tid} out of range");
        let limit = self.stacks_start + tid as u64 * self.stack_bytes;
        (limit, limit + self.stack_bytes)
    }

    /// True if `addr` lies in the heap region.
    #[inline]
    pub fn in_heap(&self, addr: Addr) -> bool {
        addr.0 >= self.heap_start && addr.0 < self.heap_end
    }
}

/// The simulated flat shared memory: an array of 64-bit words.
///
/// Loads and stores are implemented with atomics so that racy access from the
/// STM's optimistic readers is well-defined; version validation in the STM
/// (not the hardware) is what makes the values consistent, exactly as in a
/// native STM runtime.
pub struct SharedMem {
    words: Box<[AtomicU64]>,
    layout: MemLayout,
}

impl SharedMem {
    pub fn new(cfg: MemConfig) -> SharedMem {
        let layout = MemLayout::new(&cfg);
        let total_words = (layout.heap_end / WORD_BYTES) as usize;
        let mut v = Vec::with_capacity(total_words);
        v.resize_with(total_words, || AtomicU64::new(0));
        SharedMem {
            words: v.into_boxed_slice(),
            layout,
        }
    }

    #[inline]
    pub fn layout(&self) -> &MemLayout {
        &self.layout
    }

    /// Total size of the address space in bytes.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.words.len() as u64 * WORD_BYTES
    }

    #[inline]
    fn slot(&self, addr: Addr) -> &AtomicU64 {
        debug_assert!(addr.is_aligned(), "unaligned access at {addr}");
        debug_assert!(!addr.is_null(), "null dereference");
        &self.words[addr.word_index()]
    }

    /// Plain (non-transactional) load. Used by setup/verify phases and by
    /// barriers once the STM has established it is safe.
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        self.slot(addr).load(Ordering::Acquire)
    }

    /// Plain (non-transactional) store.
    #[inline]
    pub fn store(&self, addr: Addr, val: u64) {
        self.slot(addr).store(val, Ordering::Release)
    }

    /// Relaxed load used on thread-private (captured) memory where no
    /// synchronization is needed.
    #[inline]
    pub fn load_private(&self, addr: Addr) -> u64 {
        self.slot(addr).load(Ordering::Relaxed)
    }

    /// Relaxed store used on thread-private (captured) memory.
    #[inline]
    pub fn store_private(&self, addr: Addr, val: u64) {
        self.slot(addr).store(val, Ordering::Relaxed)
    }

    /// Load a float stored with [`SharedMem::store_f64`].
    #[inline]
    pub fn load_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.load(addr))
    }

    /// Store a float as its bit pattern (all simulated words are u64).
    #[inline]
    pub fn store_f64(&self, addr: Addr, val: f64) {
        self.store(addr, val.to_bits())
    }

    /// Load a pointer-typed word.
    #[inline]
    pub fn load_addr(&self, addr: Addr) -> Addr {
        Addr::from_raw(self.load(addr))
    }

    /// Bulk load of `dst.len()` consecutive words starting at `start` —
    /// the captured-run lowering of the ranged barriers. One bounds check
    /// up front, then a real `memcpy`: "private" is the caller's promise
    /// that no other thread writes these words concurrently (captured
    /// memory is thread-private by definition), which is exactly what
    /// lets a captured run skip the per-word atomic loop the compiler
    /// cannot vectorize. Other threads may *load* them meanwhile (the
    /// durable checkpointer's [`SharedMem::snapshot_range`] does): two
    /// loads never race.
    #[inline]
    pub fn load_range_private(&self, start: Addr, dst: &mut [u64]) {
        debug_assert!(start.is_aligned() && !start.is_null());
        let base = start.word_index();
        let words = &self.words[base..base + dst.len()];
        // SAFETY: `AtomicU64` has the same size and bit validity as `u64`,
        // and the private contract rules out concurrent writers.
        unsafe {
            std::ptr::copy_nonoverlapping(
                words.as_ptr() as *const u64,
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
    }

    /// Bulk store of `src` starting at `start`, one relaxed store per
    /// word. Unlike the load it is no `memcpy`: a captured-only writer
    /// fills its blocks while the durable checkpointer copies the heap
    /// with atomic loads (DESIGN.md §11.3), and a non-atomic write beside
    /// them would be a data race.
    #[inline]
    pub fn store_range_private(&self, start: Addr, src: &[u64]) {
        debug_assert!(start.is_aligned() && !start.is_null());
        let base = start.word_index();
        for (w, &v) in self.words[base..base + src.len()].iter().zip(src) {
            w.store(v, Ordering::Relaxed);
        }
    }

    /// Snapshot a byte range into a fresh vector of words, one relaxed
    /// load per word. Used by the durable checkpointer, which drains every
    /// lock holder but lets readers and captured-only writers run beside
    /// the copy (DESIGN.md §11.3): a word a captured-only writer stores
    /// meanwhile is copied old or new, and its record, ticketed after the
    /// snapshot clock, rewrites it on recovery.
    pub fn snapshot_range(&self, start: Addr, bytes: u64) -> Vec<u64> {
        debug_assert!(start.is_aligned() && bytes.is_multiple_of(WORD_BYTES));
        let base = start.word_index();
        self.words[base..base + (bytes / WORD_BYTES) as usize]
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Restore a snapshot taken with [`SharedMem::snapshot_range`]. Used by
    /// crash recovery before any transaction runs.
    pub fn restore_range(&self, start: Addr, words: &[u64]) {
        self.store_range_private(start, words);
    }

    /// Zero a byte range (must be word aligned).
    pub fn zero_range(&self, start: Addr, bytes: u64) {
        debug_assert!(start.is_aligned() && bytes.is_multiple_of(WORD_BYTES));
        let mut a = start;
        let end = start.offset(bytes);
        while a < end {
            self.store_private(a, 0);
            a = a.offset(WORD_BYTES);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        let mem = SharedMem::new(MemConfig::small());
        let l = *mem.layout();
        assert_eq!(l.stacks_start, 8);
        let (lim0, base0) = l.stack_range(0);
        let (lim1, base1) = l.stack_range(1);
        assert_eq!(base0, lim1);
        assert!(lim0 < base0 && lim1 < base1);
        let (_, base_last) = l.stack_range(l.max_threads - 1);
        assert_eq!(base_last, l.heap_start);
        assert!(l.heap_start < l.heap_end);
        assert_eq!(mem.size_bytes(), l.heap_end);
    }

    #[test]
    fn load_store_roundtrip() {
        let mem = SharedMem::new(MemConfig::small());
        let a = Addr(mem.layout().heap_start);
        mem.store(a, 0xfeedface);
        assert_eq!(mem.load(a), 0xfeedface);
        mem.store_private(a.word(1), 7);
        assert_eq!(mem.load_private(a.word(1)), 7);
    }

    #[test]
    fn f64_roundtrip() {
        let mem = SharedMem::new(MemConfig::small());
        let a = Addr(mem.layout().heap_start);
        mem.store_f64(a, -3.25);
        assert_eq!(mem.load_f64(a), -3.25);
    }

    #[test]
    fn zero_range_clears_words() {
        let mem = SharedMem::new(MemConfig::small());
        let a = Addr(mem.layout().heap_start);
        for i in 0..4 {
            mem.store(a.word(i), 99);
        }
        mem.zero_range(a, 4 * WORD_BYTES);
        for i in 0..4 {
            assert_eq!(mem.load(a.word(i)), 0);
        }
    }

    #[test]
    fn range_private_roundtrip() {
        let mem = SharedMem::new(MemConfig::small());
        let a = Addr(mem.layout().heap_start);
        let src: Vec<u64> = (0..16).map(|i| i * 3 + 1).collect();
        mem.store_range_private(a, &src);
        let mut dst = vec![0u64; 16];
        mem.load_range_private(a, &mut dst);
        assert_eq!(src, dst);
        // Bulk stores are visible to per-word loads and vice versa.
        assert_eq!(mem.load(a.word(5)), 16);
        mem.store(a.word(5), 99);
        mem.load_range_private(a.word(5), &mut dst[..1]);
        assert_eq!(dst[0], 99);
        // Empty ranges are fine.
        mem.load_range_private(a, &mut []);
        mem.store_range_private(a, &[]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mem = SharedMem::new(MemConfig::small());
        let a = Addr(mem.layout().heap_start);
        for i in 0..8 {
            mem.store(a.word(i), 100 + i);
        }
        let snap = mem.snapshot_range(a, 8 * WORD_BYTES);
        assert_eq!(snap, (0..8).map(|i| 100 + i).collect::<Vec<u64>>());
        mem.zero_range(a, 8 * WORD_BYTES);
        mem.restore_range(a, &snap);
        for i in 0..8 {
            assert_eq!(mem.load(a.word(i)), 100 + i);
        }
    }

    #[test]
    fn in_heap_classification() {
        let mem = SharedMem::new(MemConfig::small());
        let l = *mem.layout();
        assert!(l.in_heap(Addr(l.heap_start)));
        assert!(!l.in_heap(Addr(l.heap_start - 8)));
        assert!(!l.in_heap(Addr(l.heap_end)));
    }

    #[test]
    #[should_panic]
    fn stack_range_rejects_bad_tid() {
        let mem = SharedMem::new(MemConfig::small());
        let _ = mem.layout().stack_range(1000);
    }
}
