use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use txmem::{Addr, CachePadded, MemConfig, SharedMem, TxHeap};

use crate::barrier::DispatchTable;
use crate::clock::CommitClock;
use crate::config::TxConfig;
use crate::contention::ContentionState;
use crate::durable::{DurableState, SimDisk};
use crate::orec::OrecTable;
use crate::stats::TxStats;
use crate::worker::WorkerCtx;

/// The shared state of the STM: simulated memory, heap allocator,
/// transaction-record table, global version clock, configuration, the
/// resolved barrier pipeline, and aggregated statistics.
///
/// The commit clock and the merged statistics are cache-line-padded so a
/// clock advance never invalidates a neighbour's line and a worker draining
/// its stats never stalls committers. The orec table's header needs no
/// padding: workers take its record slice and mask at spawn
/// ([`WorkerCtx`]) and never read it again.
pub struct StmRuntime {
    pub(crate) mem: Arc<SharedMem>,
    pub(crate) heap: TxHeap,
    pub(crate) orecs: OrecTable,
    /// Global version clock (GV5: commits load it, extensions advance it;
    /// see [`CommitClock`]). Even values only — bit 0 is the orec lock bit.
    pub(crate) clock: CachePadded<CommitClock>,
    pub(crate) config: TxConfig,
    /// The barrier pipeline for `config`, resolved exactly once here: every
    /// worker spawned from this runtime copies this pointer and never
    /// re-dispatches on `Mode`/`LogKind` again.
    pub(crate) table: &'static DispatchTable,
    pub(crate) global_stats: CachePadded<Mutex<TxStats>>,
    /// Contention-manager state shared by every worker: the serialization
    /// token and the per-thread active flags its drain protocol scans (see
    /// `stm::contention`).
    pub(crate) cm: ContentionState,
    /// Durable-mode state (disk, per-tid log counters); `Some` exactly
    /// when `config.durable`. Checkpoints stop the world with `cm`.
    pub(crate) durable: Option<Arc<DurableState>>,
    tids: Mutex<TidPool>,
}

struct TidPool {
    next: usize,
    free: Vec<usize>,
    max: usize,
}

impl StmRuntime {
    /// Build a runtime over fresh simulated memory: resolves the barrier
    /// dispatch table for `config` once, here. A durable configuration
    /// needs a disk — use [`StmRuntime::new_durable`]. Panics if
    /// [`TxConfig::validate`] rejects `config`.
    pub fn new(mem_cfg: MemConfig, config: TxConfig) -> StmRuntime {
        StmRuntime::build(mem_cfg, config, None)
    }

    /// Build a *durable* runtime (`config.durable` must be set) whose
    /// workers append redo records to per-worker logs on `disk`. Pair
    /// with [`crate::recover`] to rebuild from that disk after a crash.
    /// Panics if [`TxConfig::validate`] rejects `config`.
    pub fn new_durable(mem_cfg: MemConfig, config: TxConfig, disk: Arc<SimDisk>) -> StmRuntime {
        StmRuntime::build(mem_cfg, config, Some(disk))
    }

    /// The one door every runtime goes through: the configuration is
    /// validated here, so no constructor can run a combination whose
    /// fields would be silently ignored.
    fn build(mem_cfg: MemConfig, config: TxConfig, disk: Option<Arc<SimDisk>>) -> StmRuntime {
        if let Err(e) = config.validate() {
            panic!("invalid TxConfig: {e}");
        }
        assert!(
            config.durable || disk.is_none(),
            "new_durable requires a configuration with durable mode on"
        );
        assert!(
            !config.durable || disk.is_some(),
            "durable configurations need a SimDisk; use StmRuntime::new_durable"
        );
        let durable = disk.map(|d| Arc::new(DurableState::new(d, mem_cfg.max_threads)));
        let mem = Arc::new(SharedMem::new(mem_cfg));
        let heap = TxHeap::new(mem.clone());
        StmRuntime {
            orecs: OrecTable::covering(mem.size_bytes(), config.orec_log2),
            mem,
            heap,
            clock: CachePadded::new(CommitClock::new()),
            table: DispatchTable::select(&config),
            config,
            global_stats: CachePadded::new(Mutex::new(TxStats::default())),
            cm: ContentionState::new(mem_cfg.max_threads),
            durable,
            tids: Mutex::new(TidPool {
                next: 0,
                free: Vec::new(),
                max: mem_cfg.max_threads,
            }),
        }
    }

    /// The simulated shared memory.
    #[inline]
    pub fn mem(&self) -> &SharedMem {
        &self.mem
    }

    /// The shared heap allocator.
    #[inline]
    pub fn heap(&self) -> &TxHeap {
        &self.heap
    }

    /// The configuration this runtime was built with.
    #[inline]
    pub fn config(&self) -> &TxConfig {
        &self.config
    }

    /// Current value of the global version clock (diagnostics).
    pub fn clock_value(&self) -> u64 {
        self.clock.read()
    }

    /// Register a worker thread: assigns a thread id (and with it a stack
    /// region) that is returned to the pool when the worker drops. `None`
    /// when every stack region is taken; the pool is then left as it was.
    pub fn try_spawn_worker(&self) -> Option<WorkerCtx<'_>> {
        let tid = {
            let mut pool = self.tids.lock().unwrap();
            if let Some(t) = pool.free.pop() {
                t
            } else if pool.next < pool.max {
                pool.next += 1;
                pool.next - 1
            } else {
                return None;
            }
        };
        Some(WorkerCtx::new(self, tid))
    }

    /// [`StmRuntime::try_spawn_worker`] for callers that size their thread
    /// count to the memory layout.
    ///
    /// # Panics
    ///
    /// When every stack region is taken.
    pub fn spawn_worker(&self) -> WorkerCtx<'_> {
        self.try_spawn_worker().unwrap_or_else(|| {
            panic!(
                "worker limit reached ({} stack regions)",
                self.mem.layout().max_threads
            )
        })
    }

    pub(crate) fn release_tid(&self, tid: usize) {
        // Poison-tolerant: a worker may be dropped while unwinding.
        let mut pool = self.tids.lock().unwrap_or_else(|e| e.into_inner());
        pool.free.push(tid);
    }

    /// Non-transactional allocation for setup phases (shared structures
    /// built before the workers start). Never logged in any capture log.
    pub fn alloc_global(&self, size: u64) -> Addr {
        self.alloc_or_panic(size, " during setup")
    }

    /// Free a block allocated with [`StmRuntime::alloc_global`].
    pub fn free_global(&self, addr: Addr) {
        self.heap.free(addr);
    }

    /// Allocate `size` bytes from the heap, or panic on an exhausted heap
    /// with the heap's census in the message, which says where the memory
    /// went.
    pub(crate) fn alloc_or_panic(&self, size: u64, during: &str) -> Addr {
        self.heap
            .alloc(size)
            .unwrap_or_else(|e| panic!("{e}{during}; {:?}", self.heap.census()))
    }

    /// The simulated disk of a durable runtime (`None` otherwise).
    pub fn disk(&self) -> Option<&Arc<SimDisk>> {
        self.durable.as_ref().map(|d| &d.disk)
    }

    /// Run one checkpoint now: stop the world with the serialization token
    /// (a second checkpoint waits for the first), compact the redo logs
    /// into a fresh heap snapshot, and empty them. Panics on a non-durable
    /// runtime. Must be called from a thread that is *not* inside a
    /// transaction (the token's drain would wait for it forever).
    pub fn checkpoint_now(&self) {
        crate::durable::checkpoint(self);
    }

    /// Background-checkpointer loop: checkpoint whenever the combined
    /// redo-log size reaches `threshold_bytes`, until `stop` is set.
    /// Spawn it on its own (scoped) thread next to the workers.
    pub fn checkpoint_loop(&self, threshold_bytes: u64, stop: &AtomicBool) {
        let ds = self
            .durable
            .as_ref()
            .expect("checkpoint_loop requires a durable runtime");
        while !stop.load(Ordering::Acquire) {
            if ds.disk.log_bytes() >= threshold_bytes {
                self.checkpoint_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Merged statistics of all finished workers.
    pub fn collect_stats(&self) -> TxStats {
        *self.global_stats.lock().unwrap()
    }

    /// Zero the runtime-wide aggregated statistics.
    pub fn reset_stats(&self) {
        *self.global_stats.lock().unwrap() = TxStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_pool_recycles() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::default());
        let t0 = {
            let w = rt.spawn_worker();
            w.tid()
        };
        let w2 = rt.spawn_worker();
        assert_eq!(w2.tid(), t0, "dropped worker's tid should be reused");
    }

    #[test]
    fn worker_limit_enforced() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::default());
        let workers: Vec<_> = (0..8).map(|_| rt.spawn_worker()).collect();
        assert_eq!(workers.len(), 8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.spawn_worker()));
        assert!(r.is_err(), "9th worker must panic: only 8 stack regions");
    }

    #[test]
    fn try_spawn_worker_fails_soft_on_a_full_table() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::default());
        let mut workers: Vec<_> = std::iter::from_fn(|| rt.try_spawn_worker()).collect();
        assert_eq!(workers.len(), 8, "one worker per stack region");
        let pool = |rt: &StmRuntime| {
            let p = rt.tids.lock().unwrap();
            (p.next, p.free.clone())
        };
        let full = pool(&rt);
        assert!(rt.try_spawn_worker().is_none());
        assert_eq!(pool(&rt), full, "a refused try leaves the table as it was");
        let freed = workers.swap_remove(3).tid();
        let w = rt
            .try_spawn_worker()
            .expect("a dropped worker frees its slot");
        assert_eq!(w.tid(), freed);
        assert!(rt.try_spawn_worker().is_none());
    }

    #[test]
    fn global_alloc_is_usable_memory() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::default());
        let a = rt.alloc_global(64);
        rt.mem().store(a, 9);
        assert_eq!(rt.mem().load(a), 9);
        rt.free_global(a);
    }

    #[test]
    fn clock_starts_at_zero() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::default());
        assert_eq!(rt.clock_value(), 0);
    }

    #[test]
    #[should_panic(expected = "chaos plan period must be at least 1")]
    fn new_rejects_a_chaos_plan_that_never_fires() {
        let cfg = TxConfig {
            chaos: Some(crate::ChaosPlan::all(7, 0)),
            ..TxConfig::default()
        };
        StmRuntime::new(MemConfig::small(), cfg);
    }

    #[test]
    #[should_panic(expected = "karma_threshold 64 must be below serialize_threshold 8")]
    fn recover_rejects_unordered_escalation_thresholds() {
        let cfg = TxConfig {
            durable: true,
            karma_threshold: 64,
            serialize_threshold: 8,
            ..TxConfig::runtime_tree_nursery()
        };
        crate::recover(MemConfig::small(), cfg, SimDisk::new());
    }
}
