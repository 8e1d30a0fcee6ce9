use crate::{CapturePolicy, RangeTree};

/// Log of programmer-annotated private (thread-local or read-only) memory
/// (paper §3.1.3 and Fig. 7).
///
/// The paper exposes
/// `addPrivateMemoryBlock(void*, size_t)` / `removePrivateMemoryBlock(...)`
/// so the programmer can mark address ranges safe to access without STM
/// barriers. The log uses the same data structures and algorithms as the
/// allocation log; the one difference — and the reason it is a separate log —
/// is lifetime: the allocation log is emptied at every transaction end while
/// this log persists until the programmer removes the block.
///
/// As the paper warns, incorrect annotations can introduce data races (in
/// this simulated runtime they cannot corrupt Rust memory, but they can make
/// a workload's results wrong, which integration tests exercise).
pub struct PrivateLog {
    log: RangeTree,
}

impl PrivateLog {
    /// An empty annotation log, backed by the precise tree, which the
    /// paper's design favours for long-lived annotations (no capacity
    /// limit, exact removal).
    pub fn new() -> PrivateLog {
        PrivateLog {
            log: RangeTree::new(),
        }
    }

    /// Paper API: `void addPrivateMemoryBlock(void *addr, size_t size)`.
    pub fn add_private_memory_block(&mut self, addr: u64, size: u64) {
        self.log.insert(addr, size, 0);
    }

    /// Paper API: `void removePrivateMemoryBlock(void *addr, size_t size)`.
    pub fn remove_private_memory_block(&mut self, addr: u64, size: u64) {
        self.log.remove(addr, size);
    }

    /// Barrier-side check: is this address annotated private right now?
    #[inline]
    pub fn is_private(&self, addr: u64) -> bool {
        self.log.query(addr).is_some()
    }
}

impl Default for PrivateLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotate_and_unannotate() {
        let mut p = PrivateLog::new();
        p.add_private_memory_block(4096, 128);
        assert!(p.is_private(4096));
        assert!(p.is_private(4096 + 120));
        assert!(!p.is_private(4096 + 128));
        p.remove_private_memory_block(4096, 128);
        assert!(!p.is_private(4096));
    }

    #[test]
    fn persists_across_many_blocks() {
        let mut p = PrivateLog::new();
        for i in 0..100u64 {
            p.add_private_memory_block(i * 1000, 500);
        }
        assert_eq!(p.log.entries(), 100);
        assert!(p.is_private(42 * 1000 + 499));
        assert!(!p.is_private(42 * 1000 + 500));
    }

    #[test]
    fn dynamic_region_lifecycle() {
        // Paper §2.2.2: data can change from thread-local to shared and back
        // (e.g. split for parallel processing, then published).
        let mut p = PrivateLog::new();
        p.add_private_memory_block(1 << 20, 4096);
        assert!(p.is_private((1 << 20) + 8));
        p.remove_private_memory_block(1 << 20, 4096); // published
        assert!(!p.is_private((1 << 20) + 8));
        p.add_private_memory_block(1 << 20, 4096); // re-privatized
        assert!(p.is_private((1 << 20) + 8));
    }
}
