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

/// Largest payload served from a block page.
pub const MAX_SMALL_BYTES: u64 = SIZE_CLASSES[SIZE_CLASSES.len() - 1] - HEADER_BYTES;

/// Every block (small, nursery or large) starts with one word holding its
/// total byte count; the payload address is `block + HEADER_BYTES`.
pub const HEADER_BYTES: u64 = WORD_BYTES;
const NCLASSES: usize = SIZE_CLASSES.len();
/// The heap is cut into pages of this size (the largest class). A page is
/// free, a block page, or part of a large run.
pub const PAGE_BYTES: u64 = SIZE_CLASSES[NCLASSES - 1];
/// Largest *total* block size (header included) served from a nursery
/// region; bigger blocks take the classic path. Half a page, so a free
/// page always fits at least two of the biggest nursery blocks.
pub const NURSERY_MAX_BLOCK_BYTES: u64 = PAGE_BYTES / 2;
/// One nursery region held on a page, in the page's count.
const HELD: u64 = 1 << 32;

/// Round a payload request up to the size-class block total (header
/// included) the allocator would serve it with; `None` for large blocks.
/// Nursery bump allocation uses the same rounding so a nursery block is
/// byte-for-byte identical to any other small block: `usable_size` and
/// `free` work on it unchanged.
#[inline]
pub fn small_block_total(payload: u64) -> Option<u64> {
    let total = (payload.max(1) + HEADER_BYTES).div_ceil(WORD_BYTES) * WORD_BYTES;
    size_to_class(total).map(|c| SIZE_CLASSES[c])
}

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

/// The largest class a free extent of `len` bytes fits.
fn largest_class(len: u64) -> Option<usize> {
    SIZE_CLASSES.iter().rposition(|&c| c <= len)
}

/// A set of pages, one bit each, lowest first.
struct PageSet(Vec<u64>);

impl PageSet {
    fn insert(&mut self, p: usize) {
        self.0[p / 64] |= 1 << (p % 64);
    }

    fn remove(&mut self, p: usize) {
        self.0[p / 64] &= !(1 << (p % 64));
    }

    fn first(&self) -> Option<usize> {
        let w = self.0.iter().position(|&w| w != 0)?;
        Some(w * 64 + self.0[w].trailing_zeros() as usize)
    }
}

/// Free space on a block page is tracked in granules of the smallest
/// class: every block starts on one, and a page has 512 of them.
const GRANULE: u64 = SIZE_CLASSES[0];
const GRANULES: usize = (PAGE_BYTES / GRANULE) as usize;

/// One page's free granules, one bit each. Runs of set bits are the free
/// extents, so freed neighbours merge by construction.
#[derive(Clone, Copy, Default)]
struct Granules([u64; GRANULES / 64]);

impl Granules {
    /// Mark granules `a..b` free or used.
    fn mark(&mut self, a: usize, b: usize, free: bool) {
        for w in a / 64..b.div_ceil(64) {
            let (lo, hi) = (a.max(w * 64) - w * 64, b.min(w * 64 + 64) - w * 64);
            let mask = (u64::MAX >> (64 - (hi - lo))) << lo;
            if free {
                self.0[w] |= mask;
            } else {
                self.0[w] &= !mask;
            }
        }
    }

    /// The first granule at or after `i` that is free (`free`) or used;
    /// `GRANULES` if none.
    fn next(&self, mut i: usize, free: bool) -> usize {
        while i < GRANULES {
            let w = (self.0[i / 64] ^ if free { 0 } else { u64::MAX }) >> (i % 64);
            if w != 0 {
                return i + w.trailing_zeros() as usize;
            }
            i = (i / 64 + 1) * 64;
        }
        GRANULES
    }

    /// One past the last used granule below `i`; 0 if none.
    fn run_start(&self, mut i: usize) -> usize {
        while i > 0 {
            let w = (i - 1) / 64;
            let used = !self.0[w] & (u64::MAX >> (63 - (i - 1) % 64));
            if used != 0 {
                return w * 64 + 64 - used.leading_zeros() as usize;
            }
            i = w * 64;
        }
        0
    }

    /// The free runs `(first, end)`, lowest first.
    fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut i = 0;
        std::iter::from_fn(move || {
            let a = self.next(i, true);
            i = self.next(a, false);
            (a < GRANULES).then_some((a, i))
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Small blocks of any class, and the regions nurseries bump in; a
    /// block page with no block and no region on it is a free page.
    Blocks,
    Large,
    /// Below a frontier restored after a crash: holds replayed blocks and
    /// never returns to the pool.
    Recovered,
}

/// One page's state, behind the heap lock (its count is in
/// [`TxHeap::count`]).
#[derive(Clone, Copy)]
struct Page {
    kind: Kind,
    /// A nursery took a region here (its return counts as nursery bytes).
    nursery: bool,
    /// Free space of a block page.
    free: Granules,
    /// At least the bytes in the longest free run, and in the same class:
    /// carving below that class recomputes it, a free past it raises it.
    longest: u64,
}

/// Everything behind the heap lock.
struct Pages {
    page: Vec<Page>,
    /// Block pages with free space, by the largest class their longest
    /// free run fits, lowest first. The last set holds the free pages.
    fits: [PageSet; NCLASSES],
    /// Pages below this index have been handed out at least once.
    fresh: usize,
}

/// What the heap holds, for diagnosing exhaustion ([`TxHeap::census`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Census {
    /// Live bytes per size class (published nursery blocks included).
    pub class_live: [u64; NCLASSES],
    /// Free bytes on block pages, by the largest class each free extent
    /// can serve.
    pub class_free: [u64; NCLASSES],
    /// Pages below the frontier, by state: free, block pages no nursery
    /// holds a region on, block pages one does, large runs, recovered.
    pub free_pages: u64,
    pub block_pages: u64,
    pub nursery_pages: u64,
    pub large_pages: u64,
    pub recovered_pages: u64,
    /// Block pages no nursery holds that one or two live blocks keep out
    /// of the pool.
    pub pinned_pages: u64,
    /// Bytes above the frontier, never handed out.
    pub frontier_left: u64,
}

/// The shared heap: size-class blocks on 8 KiB pages over the heap region
/// of the simulated memory, after McRT-Malloc's segregated classes and
/// mimalloc's pages that own their free lists.
///
/// The allocator itself is *not* transactional: the STM layer on top logs
/// transactional allocations and frees, undoing allocations on abort and
/// deferring frees to commit. This matches the paper's design where the
/// transactional memory allocator wraps a scalable malloc (ref \[11\]) and the
/// allocation log lives in the transaction descriptor.
///
/// Every page is free, a block page that counts its live blocks and keeps
/// its free space as merging runs, or part of a large run; a page whose
/// last block dies goes back to the pool (DESIGN §5.2). Choices are lowest
/// page first, so addresses are deterministic for a single thread. All of
/// it sits behind one lock, except bumping in a nursery region and counting
/// the blocks a commit publishes.
pub struct TxHeap {
    mem: Arc<SharedMem>,
    /// First heap byte; page `p` starts at `start + p * PAGE_BYTES`.
    start: u64,
    /// One past the highest page ever handed out.
    frontier: CachePadded<AtomicU64>,
    pages: CachePadded<Mutex<Pages>>,
    /// Per page: live blocks, plus [`HELD`] per nursery region on it.
    /// Changed under the heap lock, except that a commit counts the
    /// nursery blocks it publishes without it.
    count: Box<[AtomicU64]>,
    /// Live blocks per class (census).
    live: [AtomicU64; NCLASSES],
    /// Live payload bytes (telemetry; relaxed).
    bytes_allocated: CachePadded<AtomicU64>,
}

impl TxHeap {
    pub fn new(mem: Arc<SharedMem>) -> TxHeap {
        let l = *mem.layout();
        let npages = ((l.heap_end - l.heap_start) / PAGE_BYTES) as usize;
        let free = Page {
            kind: Kind::Blocks,
            nursery: false,
            free: Granules::default(),
            longest: 0,
        };
        TxHeap {
            mem,
            start: l.heap_start,
            frontier: CachePadded::new(AtomicU64::new(l.heap_start)),
            pages: CachePadded::new(Mutex::new(Pages {
                page: vec![free; npages],
                fits: std::array::from_fn(|_| PageSet(vec![0; npages.div_ceil(64)])),
                fresh: 0,
            })),
            count: (0..npages).map(|_| AtomicU64::new(0)).collect(),
            live: std::array::from_fn(|_| AtomicU64::new(0)),
            bytes_allocated: CachePadded::new(AtomicU64::new(0)),
        }
    }

    #[inline]
    pub fn mem(&self) -> &SharedMem {
        &self.mem
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Pages> {
        self.pages
            .lock()
            .expect("heap lock poisoned: a panic inside the allocator")
    }

    #[inline]
    fn page_of(&self, addr: u64) -> usize {
        ((addr - self.start) / PAGE_BYTES) as usize
    }

    #[inline]
    fn page_addr(&self, p: usize) -> u64 {
        self.start + p as u64 * PAGE_BYTES
    }

    /// Take the lowest run of `n` free pages, counting the never-used
    /// pages above the frontier as free, all of them in use as `kind`.
    fn take_run(&self, pg: &mut Pages, n: usize, kind: Kind) -> Option<usize> {
        let first = if n == 1 {
            pg.fits[NCLASSES - 1].first().unwrap_or(pg.fresh)
        } else {
            let free = |p: usize| p >= pg.fresh || pg.page[p].longest == PAGE_BYTES;
            (0..pg.page.len()).find(|&p| (p..p + n).all(free))?
        };
        if first + n > pg.page.len() {
            return None;
        }
        for p in first..first + n {
            pg.page[p].free = Granules::default();
            pg.page[p].kind = kind;
            self.refile(pg, p, 0);
        }
        if first + n > pg.fresh {
            pg.fresh = first + n;
            self.frontier
                .store(self.page_addr(pg.fresh), Ordering::Release);
        }
        Some(first)
    }

    /// Send page `p`, on which no block is live and no nursery holds a
    /// region, back to the pool: all of it free.
    fn return_page(&self, pg: &mut Pages, p: usize) {
        let page = &mut pg.page[p];
        page.kind = Kind::Blocks;
        page.nursery = false;
        page.free.mark(0, GRANULES, true);
        self.refile(pg, p, PAGE_BYTES);
    }

    /// Set page `p`'s longest free run and file it in `fits` by its class.
    fn refile(&self, pg: &mut Pages, p: usize, longest: u64) {
        let old = largest_class(pg.page[p].longest);
        pg.page[p].longest = longest;
        let new = largest_class(longest);
        if old != new {
            if let Some(k) = old {
                pg.fits[k].remove(p);
            }
            if let Some(k) = new {
                pg.fits[k].insert(p);
            }
        }
    }

    /// Take `bytes` from the start of page `p`'s lowest free run that fits
    /// them; returns their address.
    fn take_extent(&self, pg: &mut Pages, p: usize, bytes: u64) -> u64 {
        let page = &mut pg.page[p];
        let want = (bytes / GRANULE) as usize;
        let run = page.free.runs().find(|&(a, b)| b - a >= want);
        let (a, end) = run.expect("the page's longest run fits");
        let (run, rest) = (end - a, end - a - want);
        page.free.mark(a, a + want, false);
        // Only a run that reached the page's class can move it to another.
        let top = SIZE_CLASSES[largest_class(page.longest).expect("a page with room")];
        if run as u64 * GRANULE >= top && (rest as u64 * GRANULE) < top {
            let longest = page.free.runs().map(|(a, b)| b - a).max().unwrap_or(0);
            self.refile(pg, p, longest as u64 * GRANULE);
        }
        self.page_addr(p) + a as u64 * GRANULE
    }

    /// Allocate `size` payload bytes; returns the payload address (header is
    /// at `addr - 8`). The payload is zeroed.
    pub fn alloc(&self, size: u64) -> Result<Addr, AllocError> {
        let size = size.max(1);
        let mut total = (size + HEADER_BYTES).div_ceil(WORD_BYTES) * WORD_BYTES;
        let mut pg = self.lock();
        let block = match size_to_class(total) {
            Some(c) => {
                total = SIZE_CLASSES[c];
                self.small_block(&mut pg, c)
            }
            None => self
                .take_run(&mut pg, total.div_ceil(PAGE_BYTES) as usize, Kind::Large)
                .map(|p| self.page_addr(p)),
        };
        drop(pg);
        let block = block.ok_or(AllocError { requested: size })?;
        self.mem.store_private(Addr(block), total);
        let payload = Addr(block + HEADER_BYTES);
        self.mem.zero_range(payload, total - HEADER_BYTES);
        self.bytes_allocated
            .fetch_add(total - HEADER_BYTES, Ordering::Relaxed);
        Ok(payload)
    }

    /// A block of class `c`: from the lowest page among those whose
    /// longest extent fits the smallest class that still fits `c`, at its
    /// lowest extent that fits; else from a fresh page.
    fn small_block(&self, pg: &mut Pages, c: usize) -> Option<u64> {
        let class = SIZE_CLASSES[c];
        let p = match (c..NCLASSES).find_map(|k| pg.fits[k].first()) {
            Some(p) => p,
            None => {
                let p = self.take_run(pg, 1, Kind::Blocks)?;
                self.return_page(pg, p); // a fresh page, all of it free
                p
            }
        };
        let block = self.take_extent(pg, p, class);
        self.count[p].fetch_add(1, Ordering::Relaxed);
        self.live[c].fetch_add(1, Ordering::Relaxed);
        Some(block)
    }

    /// Free a block previously returned by [`TxHeap::alloc`], or a
    /// published nursery block. Returns the bytes of a nursery page this
    /// free sent back to the pool (0 or [`PAGE_BYTES`]; telemetry).
    pub fn free(&self, addr: Addr) -> u64 {
        assert!(!addr.is_null(), "free(NULL)");
        let block = addr.0 - HEADER_BYTES;
        let total = self.mem.load_private(Addr(block));
        let p = self.page_of(block);
        let mut pg = self.lock();
        let kind = pg.page[p].kind;
        if kind == Kind::Recovered {
            return 0; // a replayed block: never counted, it leaks
        }
        self.bytes_allocated
            .fetch_sub(total - HEADER_BYTES, Ordering::Relaxed);
        if kind == Kind::Large {
            for q in p..p + total.div_ceil(PAGE_BYTES) as usize {
                self.return_page(&mut pg, q);
            }
            return 0;
        }
        debug_assert_eq!(kind, Kind::Blocks);
        self.live[size_to_class(total).expect("a small block")].fetch_sub(1, Ordering::Relaxed);
        self.drop_count(&mut pg, p, 1, (block, block + total))
    }

    /// Take `by` off page `p`'s count and free `[s, e)`: the whole page
    /// goes back to the pool if the count reaches zero. Returns the nursery
    /// bytes sent back.
    fn drop_count(&self, pg: &mut Pages, p: usize, by: u64, (s, e): (u64, u64)) -> u64 {
        if self.count[p].fetch_sub(by, Ordering::AcqRel) != by {
            if s < e {
                let granule = |addr| ((addr - self.page_addr(p)) / GRANULE) as usize;
                let (a, b, free) = (granule(s), granule(e), &mut pg.page[p].free);
                free.mark(a, b, true);
                // The merged run is the only one that grew.
                let run = (free.next(b, false) - free.run_start(a)) as u64 * GRANULE;
                if run > pg.page[p].longest {
                    self.refile(pg, p, run);
                }
            }
            return 0;
        }
        let bytes = PAGE_BYTES * u64::from(pg.page[p].nursery);
        self.return_page(pg, p);
        bytes
    }

    // Nursery regions: a worker bumps class-rounded blocks (with ordinary
    // headers) in one across transactions. A block counts on its page
    // once a commit publishes it; blocks that die inside their
    // transaction are never counted.

    /// Take a nursery region for a block of `total` bytes: the lowest free
    /// page, or else the largest class-sized piece of the longest free run
    /// on any block page. Returns `[start, end)`; `None` when nothing fits.
    pub fn take_nursery_region(&self, total: u64) -> Option<(u64, u64)> {
        let mut pg = self.lock();
        let (p, start, len) = match self.take_run(&mut pg, 1, Kind::Blocks) {
            Some(p) => (p, self.page_addr(p), PAGE_BYTES),
            None => {
                let c = size_to_class(total)?;
                let (k, p) = (c..NCLASSES)
                    .rev()
                    .find_map(|k| Some((k, pg.fits[k].first()?)))?;
                (
                    p,
                    self.take_extent(&mut pg, p, SIZE_CLASSES[k]),
                    SIZE_CLASSES[k],
                )
            }
        };
        pg.page[p].nursery = true;
        self.count[p].fetch_add(HELD, Ordering::Relaxed);
        Some((start, start + len))
    }

    /// Count a nursery block a commit is about to publish. Must happen
    /// before any other thread can reach the block (and free it); its
    /// region is held, so the page cannot go back to the pool meanwhile.
    #[inline]
    pub fn publish_nursery_block(&self, addr: Addr, usable: u64) {
        self.count[self.page_of(addr.0)].fetch_add(1, Ordering::Relaxed);
        let c = size_to_class(usable + HEADER_BYTES).expect("a small block");
        self.live[c].fetch_add(1, Ordering::Relaxed);
    }

    /// Let go of the nursery region `[start, end)` taken with
    /// [`TxHeap::take_nursery_region`], whose bump stopped at `bump`: the
    /// space above it is free again. Returns the bytes sent back to the
    /// pool: the page if no block on it is live and no other region is
    /// held on it, else 0.
    pub fn release_nursery_region(&self, start: u64, bump: u64, end: u64) -> u64 {
        let mut pg = self.lock();
        self.drop_count(&mut pg, self.page_of(start), HELD, (bump, end))
    }

    /// Initialize a nursery bump block at `block` (a class-rounded `total`
    /// from [`small_block_total`]): write the header, zero the payload,
    /// account the bytes. The result is indistinguishable from a block
    /// returned by [`TxHeap::alloc`].
    pub fn init_nursery_block(&self, block: u64, total: u64) -> Addr {
        debug_assert_eq!(size_to_class(total).map(|c| SIZE_CLASSES[c]), Some(total));
        self.mem.store_private(Addr(block), total);
        let payload = Addr(block + HEADER_BYTES);
        let usable = total - HEADER_BYTES;
        self.mem.zero_range(payload, usable);
        self.bytes_allocated.fetch_add(usable, Ordering::Relaxed);
        payload
    }

    /// Drop `usable` bytes from the live-byte telemetry for nursery blocks
    /// that die inside their transaction (freed, or aborted): they
    /// were never counted on their page, so they never pass through
    /// `free`. An abort settles all of a transaction's nursery blocks with
    /// one call.
    pub fn forget_live_bytes(&self, usable: u64) {
        self.bytes_allocated.fetch_sub(usable, Ordering::Relaxed);
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

    /// One past the highest page ever handed out. The durable checkpointer
    /// snapshots `[heap_start, frontier)`; everything above the frontier
    /// has never been allocated and is guaranteed zero.
    pub fn frontier(&self) -> u64 {
        self.frontier.load(Ordering::Acquire)
    }

    /// Restore the frontier after crash recovery, so that new allocations
    /// land strictly above every replayed block. Only moves the frontier
    /// forward; the pages below it stay out of the pool for good (what was
    /// free at the crash leaks, which costs space, never correctness).
    pub fn restore_frontier(&self, v: u64) {
        let l = self.mem.layout();
        debug_assert!(v >= l.heap_start && v <= l.heap_end);
        let mut pg = self.lock();
        let p = (v.saturating_sub(self.start).div_ceil(PAGE_BYTES) as usize).min(pg.page.len());
        if p > pg.fresh {
            for q in pg.fresh..p {
                pg.page[q].kind = Kind::Recovered;
            }
            pg.fresh = p;
            self.frontier.store(self.page_addr(p), Ordering::Release);
        }
    }

    /// What the heap holds now: bytes per class, pages by state, pages
    /// one or two live blocks pin, and what is left above the frontier.
    pub fn census(&self) -> Census {
        let pg = self.lock();
        let mut c = Census {
            frontier_left: self.mem.layout().heap_end - self.frontier(),
            ..Census::default()
        };
        c.class_live =
            std::array::from_fn(|k| self.live[k].load(Ordering::Relaxed) * SIZE_CLASSES[k]);
        for (p, page) in pg.page[..pg.fresh].iter().enumerate() {
            let count = self.count[p].load(Ordering::Relaxed);
            match page.kind {
                _ if page.longest == PAGE_BYTES => c.free_pages += 1,
                Kind::Large => c.large_pages += 1,
                Kind::Recovered => c.recovered_pages += 1,
                Kind::Blocks if count >= HELD => c.nursery_pages += 1,
                Kind::Blocks => c.block_pages += 1,
            }
            if matches!(count, 1 | 2) {
                c.pinned_pages += 1;
            }
            for (a, b) in page.free.runs() {
                let bytes = (b - a) as u64 * GRANULE;
                c.class_free[largest_class(bytes).expect("a run holds a block")] += bytes;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemConfig;

    fn mk() -> (Arc<SharedMem>, TxHeap) {
        let mem = Arc::new(SharedMem::new(MemConfig::small()));
        let heap = TxHeap::new(mem.clone());
        (mem, heap)
    }

    /// Allocate 8-byte blocks until the heap is exhausted.
    fn burn(heap: &TxHeap) {
        while heap.alloc(8).is_ok() {}
    }

    /// Take a whole free page as a nursery region.
    fn nursery_page(heap: &TxHeap) -> Option<u64> {
        heap.take_nursery_region(PAGE_BYTES).map(|(s, _)| s)
    }

    fn small_class(payload: u64) -> usize {
        size_to_class(small_block_total(payload).unwrap()).unwrap()
    }

    #[test]
    fn granule_runs_cross_words_and_merge() {
        let mut g = Granules::default();
        g.mark(60, 70, true);
        g.mark(130, 200, true);
        assert_eq!(g.runs().collect::<Vec<_>>(), [(60, 70), (130, 200)]);
        g.mark(70, 130, true);
        assert_eq!(
            g.runs().collect::<Vec<_>>(),
            [(60, 200)],
            "neighbours merge"
        );
        g.mark(100, 101, false);
        assert_eq!(g.runs().collect::<Vec<_>>(), [(60, 100), (101, 200)]);
        g.mark(0, GRANULES, true);
        assert_eq!(g.runs().collect::<Vec<_>>(), [(0, GRANULES)]);
        assert_eq!((g.run_start(GRANULES), g.next(0, false)), (0, GRANULES));
    }

    #[test]
    fn alloc_returns_zeroed_disjoint_blocks() {
        let (mem, heap) = mk();
        let a = heap.alloc(24).unwrap();
        let b = heap.alloc(24).unwrap();
        assert_ne!(a, b);
        for i in 0..3 {
            assert_eq!(mem.load(a.word(i)), 0);
        }
        mem.store(a, 42);
        assert_eq!(mem.load(b), 0, "blocks must not alias");
    }

    #[test]
    fn usable_size_covers_request() {
        let (_, heap) = mk();
        for req in [1u64, 8, 16, 24, 100, 1000, 4000] {
            let a = heap.alloc(req).unwrap();
            assert!(heap.usable_size(a) >= req, "req={req}");
        }
    }

    #[test]
    fn free_then_alloc_reuses_memory() {
        let (_, heap) = mk();
        let keep = heap.alloc(32).unwrap();
        let a = heap.alloc(32).unwrap();
        heap.free(a);
        let b = heap.alloc(32).unwrap();
        assert_eq!(a, b, "a page's free list recycles LIFO");
        assert_ne!(keep, b);
    }

    #[test]
    fn large_allocations_roundtrip() {
        let (mem, heap) = mk();
        let big = MAX_SMALL_BYTES + 1000;
        let a = heap.alloc(big).unwrap();
        assert!(heap.usable_size(a) >= big);
        mem.store(a.word(1000), 5);
        assert_eq!(heap.census().large_pages, 2, "a run of whole pages");
        heap.free(a);
        assert_eq!(heap.census().free_pages, 2, "the run's pages go back");
        let b = heap.alloc(big).unwrap();
        assert_eq!(a, b, "the lowest free run serves the next large block");
    }

    #[test]
    fn exhaustion_reports_error_not_panic() {
        let (_, heap) = mk();
        let mut n = 0u64;
        loop {
            match heap.alloc(4096) {
                Ok(_) => n += 1,
                Err(e) => {
                    assert_eq!(e.requested, 4096);
                    break;
                }
            }
            assert!(n < 1 << 20, "heap never exhausted?");
        }
        assert!(n > 10);
        assert_eq!(heap.census().frontier_left, 0);
    }

    #[test]
    fn bytes_allocated_tracks_live_data() {
        let (_, heap) = mk();
        let before = heap.bytes_allocated();
        let a = heap.alloc(100).unwrap();
        assert!(heap.bytes_allocated() > before);
        heap.free(a);
        assert_eq!(heap.bytes_allocated(), before);
    }

    #[test]
    fn frontier_tracks_carves_and_restores_forward_only() {
        let (mem, heap) = mk();
        let start = heap.frontier();
        assert_eq!(start, mem.layout().heap_start);
        let a = heap.alloc(100).unwrap();
        let after = heap.frontier();
        assert_eq!(after, start + PAGE_BYTES, "one class page taken");
        assert!(a.0 < after, "blocks live below the frontier");
        heap.restore_frontier(start); // backward restore is a no-op
        assert_eq!(heap.frontier(), after);
        // A restore rounds up to a page: the partly covered page is pinned.
        heap.restore_frontier(after + 4096);
        assert_eq!(heap.frontier(), after + PAGE_BYTES);
        assert_eq!(heap.census().recovered_pages, 1);
        // A replayed block there was never counted: its free leaks it.
        let replayed = Addr(after + HEADER_BYTES);
        heap.mem().store_private(Addr(after), 64);
        let live = heap.bytes_allocated();
        assert_eq!(heap.free(replayed), 0);
        assert_eq!(heap.bytes_allocated(), live);
        // New pages land above the restored frontier.
        let p = nursery_page(&heap).unwrap();
        assert_eq!(p, after + PAGE_BYTES);
        assert_eq!(heap.frontier(), after + 2 * PAGE_BYTES);
    }

    #[test]
    fn a_page_serves_one_region_or_small_blocks_of_any_class() {
        let (_, heap) = mk();
        let start = heap.frontier();
        // A nursery page is one page, never a hoard of them.
        let r = nursery_page(&heap).expect("fresh heap has a page");
        assert_eq!(r, start, "pages come lowest first");
        assert_eq!(heap.frontier() - start, PAGE_BYTES);
        // A small block takes one page, and blocks of any class that fit
        // come from the same page; one that does not fit takes one more.
        let before = heap.frontier();
        heap.alloc(8).unwrap();
        assert_eq!(heap.frontier() - before, PAGE_BYTES);
        heap.alloc(4000).unwrap();
        heap.alloc(1000).unwrap();
        assert_eq!(
            heap.frontier() - before,
            PAGE_BYTES,
            "the page serves again"
        );
        heap.alloc(MAX_SMALL_BYTES).unwrap();
        assert_eq!(heap.frontier() - before, 2 * PAGE_BYTES);
    }

    #[test]
    fn a_block_freed_by_an_exited_thread_is_recycled_first() {
        let (_, heap) = mk();
        let keep = heap.alloc(56).unwrap();
        // A thread frees a block and exits; nothing of it is private.
        let a = std::thread::scope(|s| {
            s.spawn(|| {
                let a = heap.alloc(56).unwrap();
                heap.free(a);
                a
            })
            .join()
            .unwrap()
        });
        let frontier = heap.frontier();
        let b = heap.alloc(56).unwrap();
        assert_eq!(a, b, "the freed block is recycled first");
        assert_eq!(heap.frontier(), frontier, "no fresh page needed");
        assert_ne!(keep, b);
    }

    #[test]
    fn blocks_freed_by_another_thread_serve_without_a_fresh_page() {
        let (_, heap) = mk();
        // Thread 1 allocates two pages' worth of one class and frees all
        // but one block: the first page stays open, the second goes back.
        let per_page = (PAGE_BYTES / 64) as usize;
        let blocks: Vec<_> = (0..2 * per_page).map(|_| heap.alloc(56).unwrap()).collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                for &b in &blocks[1..] {
                    heap.free(b);
                }
            });
        });
        let c = heap.census();
        assert_eq!((c.block_pages, c.free_pages, c.pinned_pages), (1, 1, 1));
        // Thread 2 gets those blocks back without a fresh page.
        let frontier = heap.frontier();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 1..2 * per_page {
                    let x = heap.alloc(56).unwrap();
                    assert!(blocks.contains(&x));
                }
            });
        });
        assert_eq!(heap.frontier(), frontier);
    }

    #[test]
    fn an_exhausted_frontier_falls_back_to_freed_blocks() {
        let (_, heap) = mk();
        // Exhaust the heap, then free blocks on a page: another thread's
        // 56-byte request is served from them rather than reported as
        // exhaustion.
        let blocks: Vec<_> = (0..10).map(|_| heap.alloc(56).unwrap()).collect();
        burn(&heap);
        for &b in &blocks[1..] {
            heap.free(b);
        }
        let x = std::thread::scope(|s| s.spawn(|| heap.alloc(56)).join().unwrap())
            .expect("an exhausted frontier must fall back to free blocks");
        assert!(blocks.contains(&x));
    }

    #[test]
    fn failed_region_carve_succeeds_as_soon_as_a_region_is_recycled() {
        let (_, heap) = mk();
        // Hold every page the heap has.
        let mut held = Vec::new();
        while let Some(r) = nursery_page(&heap) {
            held.push(r);
        }
        assert_eq!(nursery_page(&heap), None);
        assert_eq!(nursery_page(&heap), None);
        // A page let go of with nothing published on it is free at once.
        let region = held.pop().unwrap();
        assert_eq!(
            heap.release_nursery_region(region, region, region + PAGE_BYTES),
            PAGE_BYTES
        );
        assert_eq!(nursery_page(&heap), Some(region));
        assert_eq!(nursery_page(&heap), None, "and it is taken");
    }

    #[test]
    fn a_freed_block_serves_another_thread_on_an_exhausted_heap() {
        let (_, heap) = mk();
        // Fill one 256-byte class page, then burn the frontier.
        let blocks: Vec<_> = (0..PAGE_BYTES / 256)
            .map(|_| heap.alloc(200).unwrap())
            .collect();
        burn(&heap);
        assert!(heap.alloc(200).is_err(), "nothing to serve it");
        // One free, and another thread can have the block at once.
        heap.free(blocks[3]);
        let b = std::thread::scope(|s| s.spawn(|| heap.alloc(200)).join().unwrap());
        assert_eq!(b, Ok(blocks[3]));
    }

    #[test]
    fn small_block_total_matches_alloc_rounding() {
        let (_, heap) = mk();
        for req in [1u64, 7, 8, 24, 100, 1000, 4000] {
            let total = small_block_total(req).unwrap();
            assert!(total - HEADER_BYTES >= req);
            let a = heap.alloc(req).unwrap();
            assert_eq!(heap.usable_size(a), total - HEADER_BYTES, "req={req}");
        }
        assert_eq!(small_block_total(MAX_SMALL_BYTES + 1), None);
    }

    #[test]
    fn nursery_blocks_are_ordinary_blocks() {
        // A bump block initialized on a nursery page satisfies usable_size
        // and free exactly like a class block.
        let (mem, heap) = mk();
        let page = nursery_page(&heap).expect("page");
        let total = small_block_total(100).unwrap();
        let a = heap.init_nursery_block(page, total);
        assert_eq!(heap.usable_size(a), total - HEADER_BYTES);
        for i in 0..(total - HEADER_BYTES) / 8 {
            assert_eq!(mem.load(a.word(i)), 0, "payload zeroed");
        }
        // Published, the block keeps its page out of the pool after the
        // worker lets go; its free sends the whole page back.
        heap.publish_nursery_block(a, total - HEADER_BYTES);
        assert_eq!(heap.census().nursery_pages, 1);
        assert_eq!(
            heap.release_nursery_region(page, page + total, page + PAGE_BYTES),
            0
        );
        assert_eq!(heap.census().block_pages, 1);
        assert_eq!(heap.free(a), PAGE_BYTES);
        assert_eq!(heap.bytes_allocated(), 0);
        assert_eq!(heap.alloc(100).unwrap().0, page + HEADER_BYTES);
    }

    #[test]
    fn freed_nursery_blocks_serve_their_class() {
        let (_, heap) = mk();
        let page = nursery_page(&heap).expect("page");
        let total = small_block_total(100).unwrap();
        let a = heap.init_nursery_block(page, total);
        let b = heap.init_nursery_block(page + total, total);
        heap.publish_nursery_block(a, total - HEADER_BYTES);
        heap.publish_nursery_block(b, total - HEADER_BYTES);
        // Let go with the bump after b: the rest of the page is free.
        assert_eq!(
            heap.release_nursery_region(page, page + 2 * total, page + PAGE_BYTES),
            0
        );
        // A dead published block is free space of its page too: a request
        // it fits reuses it before taking a page.
        assert_eq!(heap.free(a), 0);
        let frontier = heap.frontier();
        assert_eq!(heap.alloc(100), Ok(a));
        assert_eq!(heap.alloc(40).unwrap().0 - HEADER_BYTES, page + 2 * total);
        assert_eq!(heap.frontier(), frontier);
        assert_eq!(heap.census().class_live[small_class(100)], 2 * total);
    }

    #[test]
    fn freed_neighbours_merge_for_a_larger_class() {
        let (_, heap) = mk();
        // Fill one page with 64-byte blocks, then free eight neighbours.
        let blocks: Vec<_> = (0..PAGE_BYTES / 64)
            .map(|_| heap.alloc(56).unwrap())
            .collect();
        for &b in &blocks[10..18] {
            heap.free(b);
        }
        assert_eq!(heap.census().class_free[small_class(500)], 512);
        let frontier = heap.frontier();
        assert_eq!(heap.alloc(500), Ok(blocks[10]), "one merged extent");
        assert_eq!(heap.frontier(), frontier);
    }

    #[test]
    fn region_recycling_roundtrips() {
        let (_, heap) = mk();
        let before = heap.bytes_allocated();
        let page = nursery_page(&heap).expect("page");
        // Two published blocks: the page waits for both, held or not.
        let total = small_block_total(40).unwrap();
        let a = heap.init_nursery_block(page, total);
        let b = heap.init_nursery_block(page + total, total);
        heap.publish_nursery_block(a, total - HEADER_BYTES);
        heap.publish_nursery_block(b, total - HEADER_BYTES);
        assert_eq!(heap.free(a), 0, "the worker still holds the page");
        assert_eq!(
            heap.release_nursery_region(page, page + 2 * total, page + PAGE_BYTES),
            0,
            "b is live"
        );
        assert_eq!(heap.census().pinned_pages, 1);
        assert_eq!(heap.free(b), PAGE_BYTES);
        assert_eq!(heap.bytes_allocated(), before, "no byte leaks");
        // Back in the pool, the page serves as anything again.
        assert_eq!(nursery_page(&heap), Some(page));
    }

    #[test]
    fn forget_and_recycle_block_settle_accounting() {
        let (_, heap) = mk();
        let before = heap.bytes_allocated();
        let page = nursery_page(&heap).expect("page");
        let total = small_block_total(40).unwrap();
        heap.init_nursery_block(page, total);
        assert_eq!(heap.bytes_allocated(), before + total - HEADER_BYTES);
        // The block dies unpublished: forgetting its bytes is all it takes,
        // and the page comes back whole.
        heap.forget_live_bytes(total - HEADER_BYTES);
        assert_eq!(heap.bytes_allocated(), before);
        assert_eq!(
            heap.release_nursery_region(page, page + total, page + PAGE_BYTES),
            PAGE_BYTES
        );
        assert_eq!(heap.alloc(40).unwrap().0, page + HEADER_BYTES);
    }

    #[test]
    fn pages_emptied_by_another_thread_serve_a_different_class() {
        let (_, heap) = mk();
        // One thread allocates 64-byte blocks until every page it took is
        // full; a second thread frees them all.
        let per_page = (PAGE_BYTES / 64) as usize;
        let blocks: Vec<_> = (0..4 * per_page).map(|_| heap.alloc(56).unwrap()).collect();
        let frontier = heap.frontier();
        assert_eq!(heap.census().block_pages, 4);
        std::thread::scope(|s| {
            s.spawn(|| {
                for &b in &blocks {
                    heap.free(b);
                }
            });
        });
        assert_eq!(heap.census().free_pages, 4, "every page came back");
        // A different class and a nursery page come from those pages.
        let lo = heap.mem().layout().heap_start;
        for _ in 0..3 * (PAGE_BYTES / 512) {
            let x = heap.alloc(500).unwrap();
            assert!(x.0 < frontier);
        }
        let n = nursery_page(&heap).unwrap();
        assert!(n >= lo && n < frontier);
        assert_eq!(heap.frontier(), frontier, "the frontier did not move");
    }

    /// Random small and large allocations and frees, with nursery regions
    /// taken and let go of in between: after every step each page sits in
    /// the `fits` set of its longest free run's class, and no live block
    /// overlaps free space.
    #[test]
    fn page_bookkeeping_holds_under_random_churn() {
        let (_, heap) = mk();
        let check = |heap: &TxHeap, live: &[Addr]| {
            let pg = heap.lock();
            for (p, page) in pg.page.iter().enumerate() {
                let truth = page.free.runs().map(|(a, b)| b - a).max().unwrap_or(0);
                let k = largest_class(truth as u64 * GRANULE);
                assert_eq!(largest_class(page.longest), k, "page {p}");
                for (c, set) in pg.fits.iter().enumerate() {
                    assert_eq!(set.0[p / 64] >> (p % 64) & 1 == 1, k == Some(c));
                }
            }
            for &a in live {
                let block = a.0 - HEADER_BYTES;
                let p = heap.page_of(block);
                let g = ((block - heap.page_addr(p)) / GRANULE) as usize;
                if pg.page[p].kind == Kind::Blocks {
                    assert!(
                        pg.page[p].free.next(g, true) > g,
                        "live block on free space"
                    );
                }
            }
        };
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rnd = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut live = Vec::new();
        let mut region: Option<(u64, u64, u64)> = None;
        for step in 0..3000 {
            match rnd(10) {
                0..=5 => {
                    let size = if rnd(50) == 0 { 9000 } else { 1 + rnd(700) };
                    if let Ok(a) = heap.alloc(size) {
                        live.push(a);
                    }
                }
                6..=8 if !live.is_empty() => {
                    let a = live.swap_remove(rnd(live.len() as u64) as usize);
                    heap.free(a);
                }
                _ => match region.take() {
                    Some((s, b, e)) => {
                        heap.release_nursery_region(s, b, e);
                    }
                    None => {
                        if let Some((s, e)) = heap.take_nursery_region(256) {
                            // Publish one block at the start of it.
                            let a = heap.init_nursery_block(s, 256);
                            heap.publish_nursery_block(a, 256 - HEADER_BYTES);
                            live.push(a);
                            region = Some((s, s + 256, e));
                        }
                    }
                },
            }
            if step % 7 == 0 {
                check(&heap, &live);
            }
        }
        if let Some((s, b, e)) = region {
            heap.release_nursery_region(s, b, e);
        }
        for a in live.drain(..) {
            heap.free(a);
        }
        check(&heap, &live);
        let c = heap.census();
        assert_eq!(heap.bytes_allocated(), 0);
        assert_eq!(
            (c.block_pages, c.nursery_pages, c.large_pages),
            (0, 0, 0),
            "{c:?}"
        );
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
        for _ in 0..4 {
            let heap = heap.clone();
            handles.push(std::thread::spawn(move || {
                let mut addrs = Vec::new();
                for i in 0..500 {
                    addrs.push(heap.alloc(16 + (i % 5) * 24).unwrap());
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
    fn concurrent_alloc_free_churn_returns_every_page() {
        // Alloc/free churn from several threads at once, nursery pages
        // included: no address is handed out twice concurrently, and once
        // everything is freed every page is back in the pool.
        let mem = Arc::new(SharedMem::new(MemConfig {
            max_threads: 8,
            stack_words: 1 << 10,
            heap_words: 1 << 18,
        }));
        let heap = Arc::new(TxHeap::new(mem));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let heap = heap.clone();
                s.spawn(move || {
                    let mut live = Vec::new();
                    let mut page = nursery_page(&heap).unwrap();
                    let mut bump = page;
                    for i in 0..2000u64 {
                        let total = small_block_total(8 + (i % 7) * 16).unwrap();
                        if i % 4 == 0 {
                            if bump + total > page + PAGE_BYTES {
                                heap.release_nursery_region(page, bump, page + PAGE_BYTES);
                                page = nursery_page(&heap).unwrap();
                                bump = page;
                            }
                            let a = heap.init_nursery_block(bump, total);
                            heap.publish_nursery_block(a, total - HEADER_BYTES);
                            bump += total;
                            live.push(a);
                        } else {
                            live.push(heap.alloc(total - HEADER_BYTES).unwrap());
                        }
                        if i % 3 != 0 {
                            let idx = (i as usize * 7 + t as usize) % live.len();
                            let a = live.swap_remove(idx);
                            heap.mem().store(a, t + 1);
                            heap.free(a);
                        }
                    }
                    // Every still-live block is private to this thread:
                    // write a tag and verify nobody else scribbled on it.
                    for (i, &a) in live.iter().enumerate() {
                        heap.mem().store(a, t << 32 | i as u64);
                    }
                    for (i, &a) in live.iter().enumerate() {
                        assert_eq!(heap.mem().load(a), t << 32 | i as u64);
                    }
                    heap.release_nursery_region(page, bump, page + PAGE_BYTES);
                    for a in live {
                        heap.free(a);
                    }
                });
            }
        });
        let c = heap.census();
        assert_eq!(heap.bytes_allocated(), 0, "no byte leaks");
        assert_eq!(
            (c.block_pages, c.nursery_pages, c.large_pages),
            (0, 0, 0),
            "churn returns every page: {c:?}"
        );
        assert_eq!(c.class_live, [0; NCLASSES]);
    }
}
