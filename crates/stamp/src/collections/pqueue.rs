//! Transactional binary max-heap (STAMP `lib/heap.c`, yada's work queue of
//! bad triangles).

use stm::{Site, StmRuntime, Tx, TxResult, WorkerCtx};
use txmem::Addr;

// Handle: [capacity, size, data_ptr]
const CAP: u64 = 0;
const SIZE: u64 = 1;
const DATA: u64 = 2;

static S_META_R: Site = Site::shared("pqueue.meta.read");
static S_META_W: Site = Site::shared("pqueue.meta.write");
static S_DATA_R: Site = Site::shared("pqueue.data.read");
static S_DATA_W: Site = Site::shared("pqueue.data.write");
static S_GROW_W: Site = Site::captured_local("pqueue.grow.write");

#[derive(Clone, Copy, Debug)]
pub struct TxHeapQueue {
    pub handle: Addr,
}

impl TxHeapQueue {
    pub fn create(rt: &StmRuntime, capacity: u64) -> TxHeapQueue {
        let capacity = capacity.max(4);
        let handle = rt.alloc_global(3 * 8);
        let data = rt.alloc_global(capacity * 8);
        rt.mem().store(handle.word(CAP), capacity);
        rt.mem().store(handle.word(SIZE), 0);
        rt.mem().store(handle.word(DATA), data.raw());
        TxHeapQueue { handle }
    }

    /// Insert a value (ordered by the full u64; apps pack priority in the
    /// high bits).
    pub fn push(&self, tx: &mut Tx<'_, '_>, val: u64) -> TxResult<()> {
        let cap = tx.read(&S_META_R, self.handle.word(CAP))?;
        let size = tx.read(&S_META_R, self.handle.word(SIZE))?;
        let mut data = tx.read_as::<Addr>(&S_META_R, self.handle.word(DATA))?;
        if size == cap {
            let new_cap = cap * 2;
            let new_data = tx.alloc(new_cap * 8)?;
            for i in 0..size {
                let v = tx.read(&S_DATA_R, data.word(i))?;
                tx.write(&S_GROW_W, new_data.word(i), v)?;
            }
            tx.free(data);
            tx.write(&S_META_W, self.handle.word(CAP), new_cap)?;
            tx.write_as(&S_META_W, self.handle.word(DATA), new_data)?;
            data = new_data;
        }
        // Sift up.
        let mut i = size;
        tx.write(&S_DATA_W, data.word(i), val)?;
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = tx.read(&S_DATA_R, data.word(parent))?;
            let cv = tx.read(&S_DATA_R, data.word(i))?;
            if pv >= cv {
                break;
            }
            tx.write(&S_DATA_W, data.word(parent), cv)?;
            tx.write(&S_DATA_W, data.word(i), pv)?;
            i = parent;
        }
        tx.write(&S_META_W, self.handle.word(SIZE), size + 1)
    }

    /// Remove and return the maximum.
    pub fn pop(&self, tx: &mut Tx<'_, '_>) -> TxResult<Option<u64>> {
        let size = tx.read(&S_META_R, self.handle.word(SIZE))?;
        if size == 0 {
            return Ok(None);
        }
        let data = tx.read_as::<Addr>(&S_META_R, self.handle.word(DATA))?;
        let top = tx.read(&S_DATA_R, data.word(0))?;
        let last = tx.read(&S_DATA_R, data.word(size - 1))?;
        let size = size - 1;
        tx.write(&S_META_W, self.handle.word(SIZE), size)?;
        if size > 0 {
            tx.write(&S_DATA_W, data.word(0), last)?;
            // Sift down.
            let mut i = 0u64;
            loop {
                let l = 2 * i + 1;
                let r = 2 * i + 2;
                let mut largest = i;
                let mut lv = tx.read(&S_DATA_R, data.word(i))?;
                if l < size {
                    let v = tx.read(&S_DATA_R, data.word(l))?;
                    if v > lv {
                        largest = l;
                        lv = v;
                    }
                }
                if r < size {
                    let v = tx.read(&S_DATA_R, data.word(r))?;
                    if v > lv {
                        largest = r;
                    }
                }
                if largest == i {
                    break;
                }
                let a = tx.read(&S_DATA_R, data.word(i))?;
                let b = tx.read(&S_DATA_R, data.word(largest))?;
                tx.write(&S_DATA_W, data.word(i), b)?;
                tx.write(&S_DATA_W, data.word(largest), a)?;
                i = largest;
            }
        }
        Ok(Some(top))
    }

    pub fn len(&self, tx: &mut Tx<'_, '_>) -> TxResult<u64> {
        tx.read(&S_META_R, self.handle.word(SIZE))
    }

    pub fn seq_len(&self, w: &WorkerCtx<'_>) -> u64 {
        w.load(self.handle.word(SIZE))
    }

    /// Non-transactional push for setup.
    pub fn seq_push(&self, w: &WorkerCtx<'_>, val: u64) {
        let cap = w.load(self.handle.word(CAP));
        let size = w.load(self.handle.word(SIZE));
        assert!(size < cap, "seq_push into full heap (size it for setup)");
        let data = w.load_as::<Addr>(self.handle.word(DATA));
        let mut i = size;
        w.store(data.word(i), val);
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = w.load(data.word(parent));
            let cv = w.load(data.word(i));
            if pv >= cv {
                break;
            }
            w.store(data.word(parent), cv);
            w.store(data.word(i), pv);
            i = parent;
        }
        w.store(self.handle.word(SIZE), size + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use stm::{StmRuntime, TxConfig};
    use txmem::MemConfig;

    fn rt() -> StmRuntime {
        StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full())
    }

    #[test]
    fn pops_in_descending_order() {
        let rt = rt();
        let h = TxHeapQueue::create(&rt, 4);
        let mut w = rt.spawn_worker();
        let mut rng = SplitMix64::new(5);
        let mut vals: Vec<u64> = (0..64).map(|_| rng.below(1000)).collect();
        for &v in &vals {
            w.txn(|tx| h.push(tx, v));
        }
        vals.sort_unstable_by(|a, b| b.cmp(a));
        for &expect in &vals {
            assert_eq!(w.txn(|tx| h.pop(tx)), Some(expect));
        }
        assert_eq!(w.txn(|tx| h.pop(tx)), None);
    }

    #[test]
    fn grow_preserves_contents() {
        let rt = rt();
        let h = TxHeapQueue::create(&rt, 4);
        let mut w = rt.spawn_worker();
        for v in 0..50u64 {
            w.txn(|tx| h.push(tx, v));
        }
        assert_eq!(h.seq_len(&w), 50);
        assert_eq!(w.txn(|tx| h.pop(tx)), Some(49));
    }

    #[test]
    fn seq_push_then_tx_pop() {
        let rt = rt();
        let h = TxHeapQueue::create(&rt, 64);
        let mut w = rt.spawn_worker();
        for v in [5u64, 1, 9, 3] {
            h.seq_push(&w, v);
        }
        assert_eq!(w.txn(|tx| h.pop(tx)), Some(9));
        assert_eq!(w.txn(|tx| h.pop(tx)), Some(5));
    }

    #[test]
    fn concurrent_push_pop_conserves() {
        let rt = rt();
        let h = TxHeapQueue::create(&rt, 8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rt = &rt;
                s.spawn(move || {
                    let mut w = rt.spawn_worker();
                    for i in 0..64u64 {
                        w.txn(|tx| h.push(tx, t * 100 + i));
                    }
                    for _ in 0..32 {
                        w.txn(|tx| h.pop(tx));
                    }
                });
            }
        });
        let w = rt.spawn_worker();
        assert_eq!(h.seq_len(&w), 4 * 64 - 4 * 32);
    }
}
