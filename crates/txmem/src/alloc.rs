use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::addr::{Addr, WORD_BYTES};
use crate::mem::SharedMem;
use crate::pad::CachePadded;

/// Size classes (total block bytes, including the 8-byte header), in the
/// spirit of McRT-Malloc's segregated free lists. Payload capacity of a class
/// is `class - HEADER_BYTES`.
pub const SIZE_CLASSES: [u64; 16] = [
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 4096, 8192,
];

/// Largest payload served from the size-class fast path.
pub const MAX_SMALL_BYTES: u64 = SIZE_CLASSES[SIZE_CLASSES.len() - 1] - HEADER_BYTES;

/// Every block (size-class or nursery-bump) starts with one word holding
/// its total byte count; the payload address is `block + HEADER_BYTES`.
pub const HEADER_BYTES: u64 = WORD_BYTES;
const NCLASSES: usize = SIZE_CLASSES.len();
/// Bytes per nursery region: one largest-size-class block, so regions are
/// carved from and recycled to the very same lock-free frontier /
/// recycled-block shards that back ordinary allocations.
pub const NURSERY_REGION_BYTES: u64 = SIZE_CLASSES[NCLASSES - 1];
const REGION_CLASS: usize = NCLASSES - 1;
/// Largest *total* block size (header included) served from a nursery
/// region; bigger blocks take the classic allocation path. Half a region,
/// so a region always fits at least two of the biggest nursery blocks.
pub const NURSERY_MAX_BLOCK_BYTES: u64 = NURSERY_REGION_BYTES / 2;

/// Round a payload request up to the size-class block total (header
/// included) the allocator would serve it with; `None` for large blocks.
/// Nursery bump allocation uses the same rounding so a nursery block is
/// byte-for-byte identical to a free-list block: `usable_size` and `free`
/// work on it unchanged, and a post-commit `free` recycles it into the
/// ordinary class shards.
#[inline]
pub fn small_block_total(payload: u64) -> Option<u64> {
    let total = (payload.max(1) + HEADER_BYTES).div_ceil(WORD_BYTES) * WORD_BYTES;
    size_to_class(total).map(|c| SIZE_CLASSES[c])
}
/// How many blocks a thread pulls from / spills to a shard pool at once.
const BATCH: usize = 16;
/// Byte cap on one frontier carve: a refill takes `BATCH` blocks for small
/// classes but never more than this many bytes, so a thread refilling a
/// large class (worst case the 8 KiB nursery-region class) cannot hoard
/// `BATCH × 8 KiB = 128 KiB` in its private cache — on a small heap a few
/// concurrently-refilling threads would exhaust the frontier with almost
/// all of the carved memory sitting idle in per-thread lists.
const BATCH_BYTES_MAX: u64 = 8192;
/// Largest block a thread keeps *recycled* copies of privately. A private
/// list is invisible to every other thread until it outgrows
/// [`SPILL_AT`], so what it holds is stranded: harmless for the small,
/// hot classes the cache exists for, but a class that sees few requests
/// never reaches the spill threshold, and on an exhausted frontier its
/// blocks sit in the freeing threads' caches while the allocating thread
/// finds none (a pool whose items are level-sized asks for 256- and
/// 384-byte blocks once in 128 and 2048 inserts). Bigger blocks are
/// therefore freed straight to the home shard and taken back one at a
/// time — an uncontended lock per call on the classes where calls are
/// rare and hoarding costs most (one region-class block is 8 KiB).
const CACHED_BLOCK_MAX: u64 = 128;
/// A thread free list longer than this spills half back to its home shard.
const SPILL_AT: usize = 64;
/// Recycled-block pool shards (power of two). Threads stripe over shards by
/// id, so with up to `NSHARDS` allocating threads no two convoy on one lock.
pub const NSHARDS: usize = 8;

/// Allocation failure: the simulated heap is exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocError {
    pub requested: u64,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulated heap exhausted (requested {} bytes)",
            self.requested
        )
    }
}

impl std::error::Error for AllocError {}

fn size_to_class(total: u64) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| c >= total)
}

/// Does a thread keep recycled blocks of `class` in its private cache?
fn cached(class: usize) -> bool {
    SIZE_CLASSES[class] <= CACHED_BLOCK_MAX
}

/// One stripe of the recycled-block pool: per-class free lists behind its
/// own (cache-line-padded) lock.
struct Shard {
    free: [Vec<u64>; NCLASSES],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            free: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// Per-thread allocator state: segregated free lists that serve allocations
/// without any locking, refilled from the shared [`TxHeap`] pool in batches.
pub struct ThreadAlloc {
    free: Vec<Vec<u64>>,
    /// Which pool shard this thread refills from / spills to
    /// (`stripe % NSHARDS`); workers use their thread id.
    stripe: usize,
    /// Number of blocks this thread allocated (for tests/telemetry).
    pub alloc_count: u64,
    /// Number of blocks this thread freed.
    pub free_count: u64,
}

impl Default for ThreadAlloc {
    fn default() -> Self {
        ThreadAlloc::new()
    }
}

impl ThreadAlloc {
    pub fn new() -> ThreadAlloc {
        ThreadAlloc::with_stripe(0)
    }

    /// A thread allocator striped to pool shard `stripe % NSHARDS`. Using
    /// the worker's thread id keeps shard choice deterministic (important
    /// for the differential dispatch tests, where allocation addresses feed
    /// the lossy capture filter) while spreading concurrent workers over
    /// all shards.
    pub fn with_stripe(stripe: usize) -> ThreadAlloc {
        ThreadAlloc {
            free: (0..NCLASSES).map(|_| Vec::new()).collect(),
            stripe: stripe % NSHARDS,
            alloc_count: 0,
            free_count: 0,
        }
    }

    pub fn stripe(&self) -> usize {
        self.stripe
    }
}

/// The shared heap: a McRT-Malloc-style size-class allocator over the heap
/// region of the simulated memory.
///
/// The allocator itself is *not* transactional: the STM layer on top logs
/// transactional allocations and frees, undoing allocations on abort and
/// deferring frees to commit. This matches the paper's design where the
/// transactional memory allocator wraps a scalable malloc (ref \[11\]) and the
/// allocation log lives in the transaction descriptor.
///
/// Concurrency structure (no single global lock):
/// * the bump frontier is an atomic — fresh batches are carved with one CAS;
/// * recycled blocks live in [`NSHARDS`] thread-striped shards, each behind
///   its own cache-line-padded lock, so refill/spill traffic from different
///   threads never contends on one mutex;
/// * only the (rare) large-block free list keeps a single lock.
pub struct TxHeap {
    mem: Arc<SharedMem>,
    /// Next unused byte of the heap region; carved lock-free by CAS.
    bump: CachePadded<AtomicU64>,
    /// One past the last heap byte.
    end: u64,
    /// Recycled size-class blocks, striped by thread id.
    shards: Box<[CachePadded<Mutex<Shard>>]>,
    /// Blocks per class currently held by all shards together, moved
    /// under the owning shard's lock with every push and drain — so a
    /// refill of a class no shard holds is one load, not [`NSHARDS`]
    /// lock round-trips (the nursery retries its region carve on every
    /// allocation once the frontier is gone). The `Release` updates pair
    /// with the `Acquire` load in [`TxHeap::pooled`]: a thread that
    /// learns of a push by any synchronizing route also sees the count.
    pooled: [AtomicU64; NCLASSES],
    /// Free large blocks: (block start, total bytes). Rare path, one lock.
    large_free: Mutex<Vec<(u64, u64)>>,
    /// Total bytes handed out (telemetry; relaxed).
    bytes_allocated: CachePadded<AtomicU64>,
}

impl TxHeap {
    pub fn new(mem: Arc<SharedMem>) -> TxHeap {
        let l = *mem.layout();
        TxHeap {
            mem,
            bump: CachePadded::new(AtomicU64::new(l.heap_start)),
            end: l.heap_end,
            shards: (0..NSHARDS)
                .map(|_| CachePadded::new(Mutex::new(Shard::new())))
                .collect(),
            pooled: std::array::from_fn(|_| AtomicU64::new(0)),
            large_free: Mutex::new(Vec::new()),
            bytes_allocated: CachePadded::new(AtomicU64::new(0)),
        }
    }

    #[inline]
    pub fn mem(&self) -> &SharedMem {
        &self.mem
    }

    /// Carve up to `want` contiguous blocks of `block_bytes` from the bump
    /// frontier with a single CAS; returns (first block, count). Fewer
    /// blocks (down to one) when the heap is nearly full.
    fn carve_chunk(&self, block_bytes: u64, want: usize) -> Option<(u64, usize)> {
        let mut b = self.bump.load(Ordering::Relaxed);
        loop {
            let take = (((self.end - b) / block_bytes) as usize).min(want);
            if take == 0 {
                return None;
            }
            let next = b + take as u64 * block_bytes;
            match self
                .bump
                .compare_exchange_weak(b, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some((b, take)),
                Err(cur) => b = cur,
            }
        }
    }

    /// Allocate `size` payload bytes; returns the payload address (header is
    /// at `addr - 8`). The payload is zeroed.
    pub fn alloc(&self, ta: &mut ThreadAlloc, size: u64) -> Result<Addr, AllocError> {
        let size = size.max(1);
        let total = (size + HEADER_BYTES).div_ceil(WORD_BYTES) * WORD_BYTES;
        let block = match size_to_class(total) {
            Some(class) => {
                let cls_total = SIZE_CLASSES[class];
                let block = match ta.free[class].pop() {
                    Some(b) => b,
                    None => self
                        .refill(ta, class)
                        .ok_or(AllocError { requested: size })?,
                };
                self.mem.store_private(Addr(block), cls_total);
                block
            }
            None => self
                .alloc_large(total)
                .ok_or(AllocError { requested: size })?,
        };
        ta.alloc_count += 1;
        let payload = Addr(block + HEADER_BYTES);
        let usable = self.usable_size(payload);
        self.mem.zero_range(payload, usable);
        self.bytes_allocated.fetch_add(usable, Ordering::Relaxed);
        Ok(payload)
    }

    /// Drain up to [`BATCH`] recycled blocks of `class` (just one of an
    /// uncached class) from `shard` into the thread cache; returns one of
    /// them if the shard had any.
    fn take_batch(&self, ta: &mut ThreadAlloc, shard: usize, class: usize) -> Option<u64> {
        let mut s = self.shards[shard].lock().unwrap();
        let want = if cached(class) { BATCH } else { 1 };
        let take = s.free[class].len().min(want);
        if take == 0 {
            return None;
        }
        let at = s.free[class].len() - take;
        ta.free[class].extend(s.free[class].drain(at..));
        self.pooled[class].fetch_sub(take as u64, Ordering::Release);
        ta.free[class].pop()
    }

    /// Does any shard hold a recycled block of `class`?
    #[inline]
    fn pooled(&self, class: usize) -> bool {
        self.pooled[class].load(Ordering::Acquire) > 0
    }

    fn refill(&self, ta: &mut ThreadAlloc, class: usize) -> Option<u64> {
        let cls_total = SIZE_CLASSES[class];
        // Prefer recycled blocks from the home shard.
        let home = ta.stripe;
        if self.pooled(class) {
            if let Some(b) = self.take_batch(ta, home, class) {
                return Some(b);
            }
        }
        // Carve a fresh batch from the bump frontier — one CAS, no lock,
        // byte-capped so large classes refill a block or two at a time.
        let want = BATCH.min((BATCH_BYTES_MAX / cls_total).max(1) as usize);
        if let Some((start, n)) = self.carve_chunk(cls_total, want) {
            for i in 0..n {
                ta.free[class].push(start + i as u64 * cls_total);
            }
            return ta.free[class].pop();
        }
        // Frontier exhausted: steal recycled blocks from the other shards,
        // if any shard has one.
        if !self.pooled(class) {
            return None;
        }
        (1..NSHARDS).find_map(|d| self.take_batch(ta, (home + d) % NSHARDS, class))
    }

    fn alloc_large(&self, total: u64) -> Option<u64> {
        // First fit over the large free list.
        {
            let mut large = self.large_free.lock().unwrap();
            if let Some(i) = large.iter().position(|&(_, sz)| sz >= total) {
                let (a, sz) = large.swap_remove(i);
                self.mem.store_private(Addr(a), sz);
                return Some(a);
            }
        }
        let (a, _) = self.carve_chunk(total, 1)?;
        self.mem.store_private(Addr(a), total);
        Some(a)
    }

    /// Free a block previously returned by [`TxHeap::alloc`].
    pub fn free(&self, ta: &mut ThreadAlloc, addr: Addr) {
        assert!(!addr.is_null(), "free(NULL)");
        let block = addr.0 - HEADER_BYTES;
        let total = self.mem.load_private(Addr(block));
        ta.free_count += 1;
        self.bytes_allocated
            .fetch_sub(total - HEADER_BYTES, Ordering::Relaxed);
        match size_to_class(total) {
            Some(class) if SIZE_CLASSES[class] == total => {
                self.push_block(ta, class, block);
            }
            _ => {
                self.large_free.lock().unwrap().push((block, total));
            }
        }
    }

    /// Return a class-sized block to the thread's free list, spilling half
    /// to the home shard when the list grows past [`SPILL_AT`] — or all of
    /// it at once for a class too big to cache ([`CACHED_BLOCK_MAX`]).
    fn push_block(&self, ta: &mut ThreadAlloc, class: usize, block: u64) {
        ta.free[class].push(block);
        let keep = cached(class);
        if !keep || ta.free[class].len() > SPILL_AT {
            let spill_at = if keep { ta.free[class].len() / 2 } else { 0 };
            let mut s = self.shards[ta.stripe].lock().unwrap();
            let spilled = ta.free[class].drain(spill_at..);
            self.pooled[class].fetch_add(spilled.len() as u64, Ordering::Release);
            s.free[class].extend(spilled);
        }
    }

    // ------------------------------------------------------------------
    // Nursery regions (transaction-local bump allocation).
    //
    // A nursery region is one largest-size-class block used as raw space:
    // the transaction bump-allocates class-rounded blocks (with ordinary
    // headers) inside it. Because regions are just class blocks, carving
    // comes from — and whole-region recycling returns to — the existing
    // frontier/shard machinery, with no new allocator state.
    // ------------------------------------------------------------------

    /// Carve one [`NURSERY_REGION_BYTES`] region for a transaction's
    /// nursery; `None` when the simulated heap is exhausted.
    pub fn carve_region(&self, ta: &mut ThreadAlloc) -> Option<u64> {
        match ta.free[REGION_CLASS].pop() {
            Some(b) => Some(b),
            None => self.refill(ta, REGION_CLASS),
        }
    }

    /// Try to grow a region whose end is exactly the current bump frontier
    /// by [`NURSERY_REGION_BYTES`] in place — one CAS, succeeding only if
    /// no other thread carved in between (the contiguity the nursery's
    /// scalar range test needs).
    pub fn try_extend_region(&self, hi: u64) -> bool {
        let next = hi + NURSERY_REGION_BYTES;
        if next > self.end {
            return false;
        }
        self.bump
            .compare_exchange(hi, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Initialize a nursery bump block at `block` (a class-rounded `total`
    /// from [`small_block_total`]): write the header, zero the payload,
    /// account the bytes. The result is indistinguishable from a block
    /// returned by [`TxHeap::alloc`].
    pub fn init_nursery_block(&self, ta: &mut ThreadAlloc, block: u64, total: u64) -> Addr {
        debug_assert_eq!(size_to_class(total).map(|c| SIZE_CLASSES[c]), Some(total));
        self.mem.store_private(Addr(block), total);
        ta.alloc_count += 1;
        let payload = Addr(block + HEADER_BYTES);
        let usable = total - HEADER_BYTES;
        self.mem.zero_range(payload, usable);
        self.bytes_allocated.fetch_add(usable, Ordering::Relaxed);
        payload
    }

    /// Drop `usable` bytes from the live-byte telemetry without touching
    /// any free list — used when nursery memory is reclaimed wholesale
    /// (bump-back, hole punch, abort-time region recycling), where the
    /// space returns via the region itself rather than `free`. An abort
    /// settles all of a transaction's nursery blocks with one call.
    pub fn forget_live_bytes(&self, usable: u64) {
        self.bytes_allocated.fetch_sub(usable, Ordering::Relaxed);
    }

    /// Recycle a headered class block (e.g. a nursery block whose free was
    /// deferred to commit) straight onto the thread's class free list —
    /// never the large-block lock. Byte accounting must already have been
    /// settled via [`TxHeap::forget_live_bytes`].
    pub fn recycle_block(&self, ta: &mut ThreadAlloc, addr: Addr) {
        let block = addr.0 - HEADER_BYTES;
        let total = self.mem.load_private(Addr(block));
        let class = size_to_class(total).expect("nursery blocks are class-sized");
        debug_assert_eq!(SIZE_CLASSES[class], total);
        self.push_block(ta, class, block);
    }

    /// Return an arbitrary (16-byte-granular) byte range — a whole aborted
    /// nursery region, or the unused tail trimmed at commit — to the
    /// recycled shards, splitting it greedily into size-class blocks.
    /// A full region is a single push (O(1) per region); partial tails
    /// split into at most a handful of pieces. Returns the bytes recycled.
    pub fn recycle_region_range(&self, ta: &mut ThreadAlloc, start: u64, len: u64) -> u64 {
        debug_assert!(start.is_multiple_of(WORD_BYTES) && len.is_multiple_of(WORD_BYTES));
        let mut a = start;
        let end = start + len;
        while end - a >= SIZE_CLASSES[0] {
            let rem = end - a;
            let class = SIZE_CLASSES
                .iter()
                .rposition(|&c| c <= rem)
                .expect("rem >= smallest class");
            self.push_block(ta, class, a);
            a += SIZE_CLASSES[class];
        }
        a - start
    }

    /// Return every cached block of a retiring thread allocator to its
    /// home shard. A [`ThreadAlloc`] dropped with a populated cache
    /// strands those blocks — no other thread can reach a private free
    /// list — so a workload that cycles workers (or scoped threads that
    /// exit while others still run) would slowly bleed the heap dry.
    /// Workers call this on drop.
    pub fn release(&self, ta: &mut ThreadAlloc) {
        if ta.free.iter().all(|l| l.is_empty()) {
            return;
        }
        let mut s = self.shards[ta.stripe].lock().unwrap();
        for (class, list) in ta.free.iter_mut().enumerate() {
            self.pooled[class].fetch_add(list.len() as u64, Ordering::Release);
            s.free[class].append(list);
        }
    }

    /// Free large blocks currently parked behind the single large-block
    /// lock (diagnostics; lets tests assert small-block churn never takes
    /// the global lock path).
    pub fn large_free_blocks(&self) -> usize {
        self.large_free.lock().unwrap().len()
    }

    /// Usable payload bytes of an allocated block. The capture log records
    /// the whole usable range so that any in-bounds access hits.
    #[inline]
    pub fn usable_size(&self, addr: Addr) -> u64 {
        let total = self.mem.load_private(Addr(addr.0 - HEADER_BYTES));
        total - HEADER_BYTES
    }

    /// Live payload bytes currently allocated (telemetry).
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes_allocated.load(Ordering::Relaxed)
    }

    /// Current bump frontier (byte address one past the highest carved
    /// block). The durable checkpointer snapshots `[heap_start, frontier)`;
    /// everything above the frontier has never been allocated and is
    /// guaranteed zero.
    pub fn frontier(&self) -> u64 {
        self.bump.load(Ordering::Acquire)
    }

    /// Restore the bump frontier after crash recovery, so that new
    /// allocations are carved strictly above every replayed block. Only
    /// moves the frontier forward; free-list state is *not* recovered
    /// (recycled blocks that were on a free list at the crash leak, which
    /// costs space, never correctness).
    pub fn restore_frontier(&self, v: u64) {
        debug_assert!(v >= self.mem.layout().heap_start && v <= self.mem.layout().heap_end);
        self.bump.fetch_max(v, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemConfig;

    fn mk() -> (Arc<SharedMem>, TxHeap, ThreadAlloc) {
        let mem = Arc::new(SharedMem::new(MemConfig::small()));
        let heap = TxHeap::new(mem.clone());
        (mem, heap, ThreadAlloc::new())
    }

    #[test]
    fn alloc_returns_zeroed_disjoint_blocks() {
        let (mem, heap, mut ta) = mk();
        let a = heap.alloc(&mut ta, 24).unwrap();
        let b = heap.alloc(&mut ta, 24).unwrap();
        assert_ne!(a, b);
        for i in 0..3 {
            assert_eq!(mem.load(a.word(i)), 0);
        }
        mem.store(a, 42);
        assert_eq!(mem.load(b), 0, "blocks must not alias");
    }

    #[test]
    fn usable_size_covers_request() {
        let (_, heap, mut ta) = mk();
        for req in [1u64, 8, 16, 24, 100, 1000, 4000] {
            let a = heap.alloc(&mut ta, req).unwrap();
            assert!(heap.usable_size(a) >= req, "req={req}");
        }
    }

    #[test]
    fn free_then_alloc_reuses_memory() {
        let (_, heap, mut ta) = mk();
        let a = heap.alloc(&mut ta, 32).unwrap();
        heap.free(&mut ta, a);
        let b = heap.alloc(&mut ta, 32).unwrap();
        assert_eq!(a, b, "size-class free list should recycle LIFO");
    }

    #[test]
    fn large_allocations_roundtrip() {
        let (mem, heap, mut ta) = mk();
        let big = MAX_SMALL_BYTES + 1000;
        let a = heap.alloc(&mut ta, big).unwrap();
        assert!(heap.usable_size(a) >= big);
        mem.store(a.word(1000), 5);
        heap.free(&mut ta, a);
        let b = heap.alloc(&mut ta, big).unwrap();
        assert_eq!(a, b, "large free list should recycle");
    }

    #[test]
    fn exhaustion_reports_error_not_panic() {
        let (_, heap, mut ta) = mk();
        let mut n = 0u64;
        loop {
            match heap.alloc(&mut ta, 4096) {
                Ok(_) => n += 1,
                Err(e) => {
                    assert_eq!(e.requested, 4096);
                    break;
                }
            }
            assert!(n < 1 << 20, "heap never exhausted?");
        }
        assert!(n > 10);
    }

    #[test]
    fn bytes_allocated_tracks_live_data() {
        let (_, heap, mut ta) = mk();
        let before = heap.bytes_allocated();
        let a = heap.alloc(&mut ta, 100).unwrap();
        assert!(heap.bytes_allocated() > before);
        heap.free(&mut ta, a);
        assert_eq!(heap.bytes_allocated(), before);
    }

    #[test]
    fn frontier_tracks_carves_and_restores_forward_only() {
        let (mem, heap, mut ta) = mk();
        let start = heap.frontier();
        assert_eq!(start, mem.layout().heap_start);
        let a = heap.alloc(&mut ta, 100).unwrap();
        let after = heap.frontier();
        assert!(after > start, "carving a batch moves the frontier");
        assert!(a.0 < after, "blocks live below the frontier");
        heap.restore_frontier(start); // backward restore is a no-op
        assert_eq!(heap.frontier(), after);
        heap.restore_frontier(after + 4096);
        assert_eq!(heap.frontier(), after + 4096);
        // New allocations land above the restored frontier once the
        // pre-carved batch is used up.
        let mut last = a;
        for _ in 0..64 {
            last = heap.alloc(&mut ta, 100).unwrap();
        }
        assert!(heap.frontier() >= after + 4096);
        assert!(!last.is_null());
    }

    #[test]
    fn refill_carves_are_byte_capped_for_large_classes() {
        let (_, heap, mut ta) = mk();
        let start = heap.frontier();
        // First region-class carve: exactly one region's worth, not a
        // BATCH × region hoard.
        let r = heap.carve_region(&mut ta).expect("fresh heap has a region");
        assert_eq!(r, start, "regions carve from the frontier");
        assert_eq!(
            heap.frontier() - start,
            NURSERY_REGION_BYTES,
            "one region-class refill must carve one region"
        );
        // A small class still batches (BATCH blocks fit under the cap).
        let before = heap.frontier();
        let a = heap.alloc(&mut ta, 8).unwrap();
        assert!(!a.is_null());
        assert_eq!(
            heap.frontier() - before,
            BATCH as u64 * SIZE_CLASSES[0],
            "small classes keep the full batch"
        );
    }

    #[test]
    fn released_thread_cache_is_reachable_by_successors() {
        let (_, heap, mut ta1) = mk();
        // Fill ta1's private cache: a freed block goes to the thread list,
        // not the shard (below SPILL_AT nothing spills).
        let a = heap.alloc(&mut ta1, 56).unwrap();
        heap.free(&mut ta1, a);
        let frontier = heap.frontier();
        // Without release, a successor on the same stripe would re-carve.
        heap.release(&mut ta1);
        let mut ta2 = ThreadAlloc::new();
        assert_eq!(ta1.stripe(), ta2.stripe());
        let b = heap.alloc(&mut ta2, 56).unwrap();
        assert_eq!(a, b, "the released block must be recycled first");
        assert_eq!(heap.frontier(), frontier, "no fresh carve needed");
    }

    #[test]
    fn cross_thread_recycling_via_shared_shard() {
        let (_, heap, mut ta1) = mk();
        let mut ta2 = ThreadAlloc::new();
        assert_eq!(ta1.stripe(), ta2.stripe(), "same stripe shares a shard");
        // Thread 1 allocates and frees enough to spill to its home shard.
        let blocks: Vec<_> = (0..SPILL_AT + 10)
            .map(|_| heap.alloc(&mut ta1, 56).unwrap())
            .collect();
        for b in blocks {
            heap.free(&mut ta1, b);
        }
        // Thread 2 (same stripe) should be able to pull recycled blocks.
        let x = heap.alloc(&mut ta2, 56).unwrap();
        assert!(!x.is_null());
    }

    #[test]
    fn cross_shard_stealing_on_exhaustion() {
        let (_, heap, mut ta1) = mk();
        // Fill thread 1's home shard with recycled blocks, then burn the
        // bump frontier down below one smallest-class block, so a 56-byte
        // refill can neither use its (empty) home shard nor carve.
        let blocks: Vec<_> = (0..SPILL_AT + 10)
            .map(|_| heap.alloc(&mut ta1, 56).unwrap())
            .collect();
        for &b in &blocks {
            heap.free(&mut ta1, b);
        }
        while heap.alloc(&mut ta1, 8).is_ok() {}
        // A thread striped to a *different* shard must steal thread 1's
        // recycled blocks rather than report exhaustion.
        let mut ta2 = ThreadAlloc::with_stripe(ta1.stripe() + 1);
        assert_ne!(ta1.stripe(), ta2.stripe());
        let x = heap
            .alloc(&mut ta2, 56)
            .expect("exhausted frontier must fall back to stealing");
        assert!(
            blocks.contains(&x),
            "steal must return one of the blocks thread 1 recycled"
        );
    }

    #[test]
    fn failed_region_carve_succeeds_as_soon_as_a_region_is_recycled() {
        let (_, heap, mut ta1) = mk();
        // Hold every region the frontier can supply.
        let mut held = Vec::new();
        while let Some(r) = heap.carve_region(&mut ta1) {
            held.push(r);
        }
        // A second thread on another stripe finds nothing — and keeps
        // finding nothing, without the empty answer going stale.
        let mut ta2 = ThreadAlloc::with_stripe(ta1.stripe() + 1);
        assert_eq!(heap.carve_region(&mut ta2), None);
        assert_eq!(heap.carve_region(&mut ta2), None);
        // Thread 1 recycles one region (to its home shard — regions are
        // too big to cache): the very next carve anywhere must see it.
        let region = held.pop().unwrap();
        assert_eq!(
            heap.recycle_region_range(&mut ta1, region, NURSERY_REGION_BYTES),
            NURSERY_REGION_BYTES
        );
        assert_eq!(heap.carve_region(&mut ta2), Some(region));
        assert_eq!(heap.carve_region(&mut ta2), None, "and the count drains");
    }

    #[test]
    fn big_blocks_are_never_stranded_in_a_private_cache() {
        let (_, heap, mut ta1) = mk();
        // Thread 1 owns every 200-byte block there will ever be (its
        // frontier batch); the frontier is then burnt.
        let a = heap.alloc(&mut ta1, 200).unwrap();
        while heap.alloc(&mut ta1, 8).is_ok() {}
        let mut ta2 = ThreadAlloc::with_stripe(ta1.stripe() + 1);
        assert!(heap.alloc(&mut ta2, 200).is_err(), "nothing to serve it");
        // Thread 1 frees one block — far below any spill threshold — and
        // thread 2 can have it at once.
        heap.free(&mut ta1, a);
        assert_eq!(heap.alloc(&mut ta2, 200), Ok(a));
    }

    #[test]
    fn stripes_wrap_over_shards() {
        assert_eq!(ThreadAlloc::with_stripe(0).stripe(), 0);
        assert_eq!(ThreadAlloc::with_stripe(NSHARDS).stripe(), 0);
        assert_eq!(ThreadAlloc::with_stripe(NSHARDS + 3).stripe(), 3);
    }

    #[test]
    fn small_block_total_matches_alloc_rounding() {
        let (_, heap, mut ta) = mk();
        for req in [1u64, 7, 8, 24, 100, 1000, 4000] {
            let total = small_block_total(req).unwrap();
            assert!(total - HEADER_BYTES >= req);
            let a = heap.alloc(&mut ta, req).unwrap();
            assert_eq!(heap.usable_size(a), total - HEADER_BYTES, "req={req}");
        }
        assert_eq!(small_block_total(MAX_SMALL_BYTES + 1), None);
    }

    #[test]
    fn nursery_blocks_are_ordinary_blocks() {
        // A bump block initialized inside a carved region must satisfy
        // usable_size and free exactly like a free-list block.
        let (mem, heap, mut ta) = mk();
        let region = heap.carve_region(&mut ta).expect("region");
        let total = small_block_total(100).unwrap();
        let a = heap.init_nursery_block(&mut ta, region, total);
        assert_eq!(heap.usable_size(a), total - HEADER_BYTES);
        for i in 0..(total - HEADER_BYTES) / 8 {
            assert_eq!(mem.load(a.word(i)), 0, "payload zeroed");
        }
        // Publish-then-free: the block recycles into the class shards, not
        // the large-block lock.
        let large_before = heap.large_free_blocks();
        heap.free(&mut ta, a);
        assert_eq!(heap.large_free_blocks(), large_before);
        let b = heap.alloc(&mut ta, 100).unwrap();
        assert_eq!(a, b, "freed nursery block is LIFO-recycled");
    }

    #[test]
    fn region_recycling_roundtrips() {
        let (_, heap, mut ta) = mk();
        let before = heap.bytes_allocated();
        let region = heap.carve_region(&mut ta).expect("region");
        // Whole-region recycle is a single class push.
        assert_eq!(
            heap.recycle_region_range(&mut ta, region, NURSERY_REGION_BYTES),
            NURSERY_REGION_BYTES
        );
        // A 16-byte-granular tail splits with nothing left over.
        let region2 = heap.carve_region(&mut ta).expect("region");
        let tail = NURSERY_REGION_BYTES - 4096 - 48;
        assert_eq!(
            heap.recycle_region_range(&mut ta, region2 + 4096 + 48, tail),
            tail
        );
        assert_eq!(
            heap.bytes_allocated(),
            before,
            "regions never count as live"
        );
    }

    #[test]
    fn try_extend_region_needs_the_frontier() {
        let (_, heap, mut ta) = mk();
        // Burn the thread cache so carving hits the frontier, then carve a
        // fresh batch: the *last* block of the carved batch ends at the
        // frontier and can extend; earlier ones cannot.
        let mut regions = Vec::new();
        for _ in 0..BATCH + 1 {
            regions.push(heap.carve_region(&mut ta).expect("region"));
        }
        regions.sort_unstable();
        let last_end = regions.last().unwrap() + NURSERY_REGION_BYTES;
        assert!(!heap.try_extend_region(regions[0] + NURSERY_REGION_BYTES));
        assert!(heap.try_extend_region(last_end));
        assert!(
            !heap.try_extend_region(last_end),
            "the frontier moved; the same edge cannot extend twice"
        );
    }

    #[test]
    fn forget_and_recycle_block_settle_accounting() {
        let (_, heap, mut ta) = mk();
        let before = heap.bytes_allocated();
        let region = heap.carve_region(&mut ta).expect("region");
        let total = small_block_total(40).unwrap();
        let a = heap.init_nursery_block(&mut ta, region, total);
        assert_eq!(heap.bytes_allocated(), before + total - HEADER_BYTES);
        heap.forget_live_bytes(total - HEADER_BYTES);
        assert_eq!(heap.bytes_allocated(), before);
        heap.recycle_block(&mut ta, a);
        let b = heap.alloc(&mut ta, 40).unwrap();
        assert_eq!(a, b, "recycled block is on the class free list");
    }

    #[test]
    fn concurrent_alloc_is_disjoint() {
        let mem = Arc::new(SharedMem::new(MemConfig {
            max_threads: 8,
            stack_words: 1 << 10,
            heap_words: 1 << 18,
        }));
        let heap = Arc::new(TxHeap::new(mem));
        let mut handles = Vec::new();
        for t in 0..4 {
            let heap = heap.clone();
            handles.push(std::thread::spawn(move || {
                let mut ta = ThreadAlloc::with_stripe(t);
                let mut addrs = Vec::new();
                for i in 0..500 {
                    addrs.push(heap.alloc(&mut ta, 16 + (i % 5) * 24).unwrap());
                }
                addrs
            }));
        }
        let mut all: Vec<Addr> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before, "threads handed out overlapping blocks");
    }

    #[test]
    fn concurrent_alloc_free_churn_across_shards() {
        // Alloc/free churn from every stripe at once: spills, refills and
        // steals must never hand out an address twice concurrently.
        let mem = Arc::new(SharedMem::new(MemConfig {
            max_threads: 8,
            stack_words: 1 << 10,
            heap_words: 1 << 18,
        }));
        let heap = Arc::new(TxHeap::new(mem));
        std::thread::scope(|s| {
            for t in 0..NSHARDS {
                let heap = heap.clone();
                s.spawn(move || {
                    let mut ta = ThreadAlloc::with_stripe(t);
                    let mut live = Vec::new();
                    for i in 0..2000u64 {
                        live.push(heap.alloc(&mut ta, 8 + (i % 7) * 16).unwrap());
                        if i % 3 != 0 {
                            let idx = (i as usize * 7 + t) % live.len();
                            let a = live.swap_remove(idx);
                            heap.mem().store(a, t as u64 + 1);
                            heap.free(&mut ta, a);
                        }
                    }
                    // Every still-live block is private to this thread:
                    // write a tag and verify nobody else scribbled on it.
                    for (i, &a) in live.iter().enumerate() {
                        heap.mem().store(a, (t as u64) << 32 | i as u64);
                    }
                    for (i, &a) in live.iter().enumerate() {
                        assert_eq!(heap.mem().load(a), (t as u64) << 32 | i as u64);
                    }
                });
            }
        });
    }
}
