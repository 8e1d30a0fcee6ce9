//! Growable vector (STAMP `lib/vector.c`). In STAMP this is `PVECTOR_*` —
//! used for *thread-local* scratch data like bayes' query vectors (paper
//! Fig. 1(b)); the original code accesses it without instrumentation, so
//! the transactional accessors here use `Site::unneeded`: a naive compiler
//! adds barriers, automatic capture analysis cannot remove them (the vector
//! outlives its allocating transaction), only annotations can.

use stm::{Site, StmRuntime, Tx, TxResult, WorkerCtx};
use txmem::Addr;

// Handle: [capacity, size, data_ptr]
const CAP: u64 = 0;
const SIZE: u64 = 1;
const DATA: u64 = 2;

static S_META_R: Site = Site::unneeded("vector.meta.read");
static S_META_W: Site = Site::unneeded("vector.meta.write");
static S_DATA_R: Site = Site::unneeded("vector.data.read");
static S_DATA_W: Site = Site::unneeded("vector.data.write");

#[derive(Clone, Copy, Debug)]
pub struct TxVector {
    pub handle: Addr,
}

impl TxVector {
    /// Allocate from the shared pool during setup.
    pub fn create(rt: &StmRuntime, capacity: u64) -> TxVector {
        let capacity = capacity.max(2);
        let handle = rt.alloc_global(3 * 8);
        let data = rt.alloc_global(capacity * 8);
        rt.mem().store(handle.word(CAP), capacity);
        rt.mem().store(handle.word(SIZE), 0);
        rt.mem().store(handle.word(DATA), data.raw());
        TxVector { handle }
    }

    /// Allocate thread-locally (bayes' `PVECTOR_ALLOC`): the vector lives
    /// outside any transaction, so it is *not* captured — the paper's
    /// thread-local category.
    pub fn create_local(w: &mut WorkerCtx<'_>, capacity: u64) -> TxVector {
        let capacity = capacity.max(2);
        let handle = w.alloc_raw(3 * 8);
        let data = w.alloc_raw(capacity * 8);
        w.store(handle.word(CAP), capacity);
        w.store(handle.word(SIZE), 0);
        w.store(handle.word(DATA), data.raw());
        TxVector { handle }
    }

    /// Total bytes spanned by handle + backing store (for annotations).
    pub fn annotate(&self, w: &mut WorkerCtx<'_>) {
        let cap = w.load(self.handle.word(CAP));
        let data = w.load_as::<Addr>(self.handle.word(DATA));
        w.add_private_memory_block(self.handle, 3 * 8);
        w.add_private_memory_block(data, cap * 8);
    }

    pub fn push(&self, tx: &mut Tx<'_, '_>, val: u64) -> TxResult<()> {
        let cap = tx.read(&S_META_R, self.handle.word(CAP))?;
        let size = tx.read(&S_META_R, self.handle.word(SIZE))?;
        assert!(size < cap, "TxVector overflow: created with capacity {cap}");
        let data = tx.read_as::<Addr>(&S_META_R, self.handle.word(DATA))?;
        tx.write(&S_DATA_W, data.word(size), val)?;
        tx.write(&S_META_W, self.handle.word(SIZE), size + 1)
    }

    pub fn get(&self, tx: &mut Tx<'_, '_>, i: u64) -> TxResult<u64> {
        let data = tx.read_as::<Addr>(&S_META_R, self.handle.word(DATA))?;
        tx.read(&S_DATA_R, data.word(i))
    }

    pub fn set(&self, tx: &mut Tx<'_, '_>, i: u64, val: u64) -> TxResult<()> {
        let data = tx.read_as::<Addr>(&S_META_R, self.handle.word(DATA))?;
        tx.write(&S_DATA_W, data.word(i), val)
    }

    pub fn len(&self, tx: &mut Tx<'_, '_>) -> TxResult<u64> {
        tx.read(&S_META_R, self.handle.word(SIZE))
    }

    pub fn clear(&self, tx: &mut Tx<'_, '_>) -> TxResult<()> {
        tx.write(&S_META_W, self.handle.word(SIZE), 0)
    }

    pub fn seq_len(&self, w: &WorkerCtx<'_>) -> u64 {
        w.load(self.handle.word(SIZE))
    }

    pub fn seq_get(&self, w: &WorkerCtx<'_>, i: u64) -> u64 {
        let data = w.load_as::<Addr>(self.handle.word(DATA));
        w.load(data.word(i))
    }

    pub fn seq_clear(&self, w: &WorkerCtx<'_>) {
        w.store(self.handle.word(SIZE), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm::{Mode, StmRuntime, TxConfig};
    use txmem::MemConfig;

    #[test]
    fn push_get_set_clear() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::default());
        let v = TxVector::create(&rt, 16);
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            v.push(tx, 10)?;
            v.push(tx, 20)?;
            v.set(tx, 0, 11)?;
            Ok(())
        });
        assert_eq!(v.seq_len(&w), 2);
        assert_eq!(v.seq_get(&w, 0), 11);
        assert_eq!(v.seq_get(&w, 1), 20);
        w.txn(|tx| v.clear(tx));
        assert_eq!(v.seq_len(&w), 0);
    }

    #[test]
    fn thread_local_vector_is_not_captured() {
        // Allocated outside a transaction: runtime capture analysis must
        // NOT elide its barriers (that is the whole thread-local problem of
        // paper §2.2.2).
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full());
        let mut w = rt.spawn_worker();
        let v = TxVector::create_local(&mut w, 8);
        w.txn(|tx| v.push(tx, 1));
        assert_eq!(w.stats.writes.elided_heap, 0);
        assert!(
            w.stats.writes.full >= 2,
            "size + data writes take full barriers"
        );
    }

    #[test]
    fn annotated_vector_elides_barriers() {
        let mut cfg = TxConfig::with_mode(Mode::Baseline);
        cfg.annotations = true;
        let rt = StmRuntime::new(MemConfig::small(), cfg);
        let mut w = rt.spawn_worker();
        let v = TxVector::create_local(&mut w, 8);
        v.annotate(&mut w);
        w.txn(|tx| {
            v.push(tx, 5)?;
            v.get(tx, 0)?;
            Ok(())
        });
        assert!(w.stats.writes.elided_annotation >= 2);
        assert!(w.stats.reads.elided_annotation >= 1);
        assert_eq!(w.stats.writes.full, 0);
    }
}
