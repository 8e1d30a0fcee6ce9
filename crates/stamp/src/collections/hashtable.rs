//! Transactional chained hash table (STAMP `lib/hashtable.c`): fixed bucket
//! array, per-bucket singly-linked chains, unique keys.

use stm::{Site, StmRuntime, Tx, TxResult, WorkerCtx};
use txmem::Addr;

// Chain node: [next, key, val]
const NEXT: u64 = 0;
const KEY: u64 = 1;
const VAL: u64 = 2;
const NODE_WORDS: u64 = 3;

// Handle: [nbuckets, size, bucket_0, ..., bucket_{n-1}]
const NBUCKETS: u64 = 0;
const SIZE: u64 = 1;
const BUCKET0: u64 = 2;

static S_BUCKET_R: Site = Site::shared("hashtable.bucket.read");
static S_BUCKET_W: Site = Site::shared("hashtable.bucket.write");
static S_NODE_R: Site = Site::shared("hashtable.node.read");
static S_LINK_W: Site = Site::shared("hashtable.link.write");
static S_SIZE_R: Site = Site::shared("hashtable.size.read");
static S_SIZE_W: Site = Site::shared("hashtable.size.write");
static S_INIT_W: Site = Site::captured_local("hashtable.node_init.write");

#[derive(Clone, Copy, Debug)]
pub struct TxHashtable {
    pub handle: Addr,
}

#[inline]
fn mix(key: u64) -> u64 {
    let mut h = key.wrapping_mul(0x9E3779B97F4A7C15);
    h ^= h >> 29;
    h
}

impl TxHashtable {
    /// Create with `nbuckets` chains (setup phase).
    pub fn create(rt: &StmRuntime, nbuckets: u64) -> TxHashtable {
        assert!(nbuckets > 0);
        let handle = rt.alloc_global((BUCKET0 + nbuckets) * 8);
        rt.mem().store(handle.word(NBUCKETS), nbuckets);
        rt.mem().store(handle.word(SIZE), 0);
        for b in 0..nbuckets {
            rt.mem().store(handle.word(BUCKET0 + b), 0);
        }
        TxHashtable { handle }
    }

    fn bucket_slot(&self, tx: &mut Tx<'_, '_>, key: u64) -> TxResult<Addr> {
        // The bucket count is immutable after setup; original STAMP reads it
        // without instrumentation (read-only data, paper §2.2.3), so the
        // site is "unneeded" — a naive compiler still adds the barrier.
        static S_NB: Site = Site::unneeded("hashtable.nbuckets.read");
        let n = tx.read(&S_NB, self.handle.word(NBUCKETS))?;
        Ok(self.handle.word(BUCKET0 + mix(key) % n))
    }

    /// Insert `(key, val)`; `false` if the key already exists.
    pub fn insert(&self, tx: &mut Tx<'_, '_>, key: u64, val: u64) -> TxResult<bool> {
        let slot = self.bucket_slot(tx, key)?;
        let head = tx.read_as::<Addr>(&S_BUCKET_R, slot)?;
        let mut cur = head;
        while !cur.is_null() {
            if tx.read(&S_NODE_R, cur.word(KEY))? == key {
                return Ok(false);
            }
            cur = tx.read_as::<Addr>(&S_NODE_R, cur.word(NEXT))?;
        }
        let node = tx.alloc(NODE_WORDS * 8)?;
        // One ranged write initializes the whole (captured) node.
        tx.write_range(&S_INIT_W, node.word(NEXT), &[head.raw(), key, val])?;
        tx.write_as(&S_BUCKET_W, slot, node)?;
        let sz = tx.read(&S_SIZE_R, self.handle.word(SIZE))?;
        tx.write(&S_SIZE_W, self.handle.word(SIZE), sz + 1)?;
        Ok(true)
    }

    pub fn find(&self, tx: &mut Tx<'_, '_>, key: u64) -> TxResult<Option<u64>> {
        let slot = self.bucket_slot(tx, key)?;
        let mut cur = tx.read_as::<Addr>(&S_BUCKET_R, slot)?;
        while !cur.is_null() {
            if tx.read(&S_NODE_R, cur.word(KEY))? == key {
                return Ok(Some(tx.read(&S_NODE_R, cur.word(VAL))?));
            }
            cur = tx.read_as::<Addr>(&S_NODE_R, cur.word(NEXT))?;
        }
        Ok(None)
    }

    /// Overwrite an existing key's value; `false` if absent.
    pub fn update(&self, tx: &mut Tx<'_, '_>, key: u64, val: u64) -> TxResult<bool> {
        let slot = self.bucket_slot(tx, key)?;
        let mut cur = tx.read_as::<Addr>(&S_BUCKET_R, slot)?;
        while !cur.is_null() {
            if tx.read(&S_NODE_R, cur.word(KEY))? == key {
                tx.write(&S_LINK_W, cur.word(VAL), val)?;
                return Ok(true);
            }
            cur = tx.read_as::<Addr>(&S_NODE_R, cur.word(NEXT))?;
        }
        Ok(false)
    }

    pub fn remove(&self, tx: &mut Tx<'_, '_>, key: u64) -> TxResult<Option<u64>> {
        let slot = self.bucket_slot(tx, key)?;
        let mut prev_next = slot;
        let mut cur = tx.read_as::<Addr>(&S_BUCKET_R, slot)?;
        while !cur.is_null() {
            if tx.read(&S_NODE_R, cur.word(KEY))? == key {
                let val = tx.read(&S_NODE_R, cur.word(VAL))?;
                let next = tx.read_as::<Addr>(&S_NODE_R, cur.word(NEXT))?;
                tx.write_as(&S_LINK_W, prev_next, next)?;
                let sz = tx.read(&S_SIZE_R, self.handle.word(SIZE))?;
                tx.write(&S_SIZE_W, self.handle.word(SIZE), sz - 1)?;
                tx.free(cur);
                return Ok(Some(val));
            }
            prev_next = cur.word(NEXT);
            cur = tx.read_as::<Addr>(&S_NODE_R, prev_next)?;
        }
        Ok(None)
    }

    pub fn len(&self, tx: &mut Tx<'_, '_>) -> TxResult<u64> {
        tx.read(&S_SIZE_R, self.handle.word(SIZE))
    }

    pub fn seq_len(&self, w: &WorkerCtx<'_>) -> u64 {
        w.load(self.handle.word(SIZE))
    }

    /// All `(key, val)` pairs in bucket order; verification only.
    pub fn seq_collect(&self, w: &WorkerCtx<'_>) -> Vec<(u64, u64)> {
        let n = w.load(self.handle.word(NBUCKETS));
        let mut out = Vec::new();
        for b in 0..n {
            let mut cur = w.load_as::<Addr>(self.handle.word(BUCKET0 + b));
            while !cur.is_null() {
                out.push((w.load(cur.word(KEY)), w.load(cur.word(VAL))));
                cur = w.load_as::<Addr>(cur.word(NEXT));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm::{StmRuntime, TxConfig};
    use txmem::MemConfig;

    fn rt() -> StmRuntime {
        StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full())
    }

    #[test]
    fn insert_find_update_remove() {
        let rt = rt();
        let h = TxHashtable::create(&rt, 8);
        let mut w = rt.spawn_worker();
        for k in 0..50u64 {
            assert!(w.txn(|tx| h.insert(tx, k, k * 3)));
        }
        assert!(!w.txn(|tx| h.insert(tx, 25, 0)));
        assert_eq!(w.txn(|tx| h.find(tx, 25)), Some(75));
        assert_eq!(w.txn(|tx| h.find(tx, 50)), None);
        assert!(w.txn(|tx| h.update(tx, 25, 1)));
        assert_eq!(w.txn(|tx| h.find(tx, 25)), Some(1));
        assert_eq!(w.txn(|tx| h.remove(tx, 25)), Some(1));
        assert_eq!(w.txn(|tx| h.remove(tx, 25)), None);
        assert_eq!(h.seq_len(&w), 49);
        let mut all = h.seq_collect(&w);
        all.sort();
        assert_eq!(all.len(), 49);
        assert!(!all.iter().any(|&(k, _)| k == 25));
    }

    #[test]
    fn collisions_chain_correctly() {
        let rt = rt();
        let h = TxHashtable::create(&rt, 1); // everything collides
        let mut w = rt.spawn_worker();
        for k in 0..20u64 {
            assert!(w.txn(|tx| h.insert(tx, k, k)));
        }
        for k in 0..20u64 {
            assert_eq!(w.txn(|tx| h.find(tx, k)), Some(k));
        }
        assert_eq!(w.txn(|tx| h.remove(tx, 10)), Some(10));
        assert_eq!(w.txn(|tx| h.find(tx, 10)), None);
        assert_eq!(w.txn(|tx| h.find(tx, 11)), Some(11));
    }

    #[test]
    fn concurrent_dedup_counts_once() {
        // Many threads inserting from a small key pool: the table must end
        // up with exactly the distinct keys (genome's phase-1 pattern).
        let rt = rt();
        let h = TxHashtable::create(&rt, 16);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rt = &rt;
                s.spawn(move || {
                    let mut w = rt.spawn_worker();
                    let mut rng = crate::rng::SplitMix64::new(t);
                    for _ in 0..300 {
                        let k = rng.below(64);
                        w.txn(|tx| h.insert(tx, k, k));
                    }
                });
            }
        });
        let w = rt.spawn_worker();
        let mut all = h.seq_collect(&w);
        all.sort();
        all.dedup();
        assert_eq!(all.len() as u64, h.seq_len(&w));
        assert!(h.seq_len(&w) <= 64);
    }
}
