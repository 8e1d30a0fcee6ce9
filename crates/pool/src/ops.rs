//! The pool's public mutations. Each takes `&mut Tx`, so operations
//! compose inside caller transactions; the driver wraps each call in one
//! transaction, making every mutation atomic and every telemetry counter
//! roll back with its transaction.

use crate::index::{KeyKind, Node};
use crate::{HdrDelta, Item, PoolEntry, PoolHdr, TxPool, S_HDR_R, S_INIT_W, S_ITEM_R, S_LINK_W};
use stm::{Field, Tx, TxBuf, TxPtr, TxResult};

/// What [`TxPool::insert`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The item is live; `evicted` strictly-worse items made room for it.
    Inserted {
        /// Number of lower-priority items evicted by this insert.
        evicted: u64,
    },
    /// An item with this id is already live; nothing changed.
    Duplicate,
    /// The item did not fit and the strictly-lower-priority prefix could
    /// not make room (or the item alone exceeds the whole budget);
    /// nothing changed.
    Rejected,
}

impl TxPool {
    /// Insert an item. One transaction's worth of work: duplicate
    /// filtering (bloom, then the exact probe only on a bloom positive),
    /// budget planning, eviction of strictly-worse items if needed, then
    /// allocation and linking into all three indices.
    ///
    /// The payload is `payload_words` words of a deterministic
    /// id-derived pattern, so integrity is checkable at quiesce.
    pub fn insert(
        &self,
        tx: &mut Tx<'_, '_>,
        id: u64,
        sender: u64,
        nonce: u64,
        prio: u64,
        payload_words: u64,
    ) -> TxResult<InsertOutcome> {
        assert_ne!(id, 0, "item ids are non-zero");
        let e = PoolEntry {
            id,
            sender,
            nonce,
            prio,
            payload_words,
        };
        let mut d = HdrDelta::default();
        let out = self.admit(tx, &mut d, e)?;
        self.settle(tx, d)?;
        Ok(out)
    }

    /// The body of [`TxPool::insert`], accumulating its header deltas in
    /// `d` so every exit settles them with one touch per counter.
    fn admit(
        &self,
        tx: &mut Tx<'_, '_>,
        d: &mut HdrDelta,
        e: PoolEntry,
    ) -> TxResult<InsertOutcome> {
        let (id, payload_words, need) = (e.id, e.payload_words, e.bytes());
        if need > self.budget {
            d.add(PoolHdr::rejected, 1);
            return Ok(InsertOutcome::Rejected);
        }
        // Duplicate filter: a bloom negative proves the id was never
        // inserted, so the exact probe is skipped outright.
        let maybe_seen = self.bloom_might_contain(tx, id)?;
        if maybe_seen && self.table_find(tx, self.slots, KeyKind::Id, id)?.is_some() {
            d.add(PoolHdr::dup_hits, 1);
            return Ok(InsertOutcome::Duplicate);
        }
        // Budget plan: walk the strictly-worse skiplist prefix read-only
        // first — eviction must be all-or-nothing with the admission
        // decision (a rejected insert may not have evicted anybody).
        let live = tx.read_field(&S_HDR_R, self.hdr, PoolHdr::live_bytes)?;
        let key = (e.prio, id);
        let mut freed = 0u64;
        let mut victims = 0u64;
        if live + need > self.budget {
            let mut cur = self.skip_min(tx)?;
            while live - freed + need > self.budget {
                if cur.is_null() || self.cmp_key(tx, cur, Item::prio, key)?.is_le() {
                    d.add(PoolHdr::rejected, 1);
                    return Ok(InsertOutcome::Rejected);
                }
                freed += tx.read_field(&S_ITEM_R, cur, Item::bytes)?;
                victims += 1;
                cur = tx.read_field(&S_ITEM_R, cur, Item::fwd(0))?;
            }
            for _ in 0..victims {
                self.evict_min(tx, d)?;
            }
        }
        // Allocate the item at exactly its tower's size and initialize the
        // header (captured: these stores elide; fresh blocks are zeroed,
        // so `snext` and the tower start out null).
        let lvl = crate::level_of(id);
        let p = TxPtr::<Item>::from_addr(tx.alloc(8 * Item::alloc_words(lvl))?);
        tx.write_field(&S_INIT_W, p, Item::prio, e.prio)?;
        tx.write_field(&S_INIT_W, p, Item::id, id)?;
        tx.write_field(&S_INIT_W, p, Item::nonce, e.nonce)?;
        tx.write_field(&S_INIT_W, p, Item::sender, e.sender)?;
        tx.write_field(&S_INIT_W, p, Item::bytes, need)?;
        tx.write_field(&S_INIT_W, p, Item::payload_words, payload_words)?;
        tx.write_field(&S_INIT_W, p, Item::level, lvl)?;
        if payload_words > 0 {
            let buf: TxBuf<u64> = tx.alloc_buf(payload_words)?;
            for w in 0..payload_words {
                tx.write_as(&S_INIT_W, buf.elem(w), payload_word(id, w))?;
            }
            tx.write_field(&S_INIT_W, p, Item::payload, buf)?;
        }
        // Link into all three indices; a bloom negative also lets the
        // primary insert probe skip occupant compares (it only did).
        self.table_insert(tx, self.slots, id, p)?;
        self.skip_insert(tx, p, key, lvl as usize)?;
        self.sender_insert(tx, p, e.sender, (e.nonce, id))?;
        if !maybe_seen {
            // (A positive already has both bits set.)
            self.bloom_add(tx, id)?;
            d.add(PoolHdr::dup_skips, 1);
        }
        d.add(PoolHdr::count, 1);
        d.add(PoolHdr::live_bytes, need);
        d.add(PoolHdr::inserted, 1);
        Ok(InsertOutcome::Inserted { evicted: victims })
    }

    /// Remove the item with `id`; returns its entry if it was live.
    pub fn remove(&self, tx: &mut Tx<'_, '_>, id: u64) -> TxResult<Option<PoolEntry>> {
        let Some((slot, p)) = self.table_find(tx, self.slots, KeyKind::Id, id)? else {
            return Ok(None);
        };
        self.take(tx, p, Some(slot), PoolHdr::removed).map(Some)
    }

    /// Remove and return the best item — the highest `(priority, id)`.
    pub fn pop_best(&self, tx: &mut Tx<'_, '_>) -> TxResult<Option<PoolEntry>> {
        let p = self.skip_max(tx)?;
        if p.is_null() {
            return Ok(None);
        }
        self.take(tx, p, None, PoolHdr::popped).map(Some)
    }

    /// Change the priority of the item with `id` (up or down),
    /// repositioning it in the by-priority index. Returns `false` if no
    /// such item is live.
    pub fn promote(&self, tx: &mut Tx<'_, '_>, id: u64, new_prio: u64) -> TxResult<bool> {
        let Some((_, p)) = self.table_find(tx, self.slots, KeyKind::Id, id)? else {
            return Ok(false);
        };
        let n = self.load(tx, p)?;
        if n.get(Item::prio) != new_prio {
            self.skip_unlink(tx, &n)?;
            tx.write_field(&S_LINK_W, p, Item::prio, new_prio)?;
            self.skip_insert(tx, p, (new_prio, id), n.level())?;
        }
        let mut d = HdrDelta::default();
        d.add(PoolHdr::promoted, 1);
        self.settle(tx, d)?;
        Ok(true)
    }

    /// Remove every live item of `sender`; returns how many went. The
    /// chain is walked once and the sender's table entry vacated once —
    /// no per-item chain surgery.
    pub fn remove_sender(&self, tx: &mut Tx<'_, '_>, sender: u64) -> TxResult<u64> {
        let Some((slot, mut cur)) = self.table_find(tx, self.senders, KeyKind::Sender, sender)?
        else {
            return Ok(0);
        };
        let mut d = HdrDelta::default();
        let mut n = 0u64;
        while !cur.is_null() {
            let node = self.load(tx, cur)?;
            n += 1;
            self.unlink_item(tx, &mut d, cur, &node, None)?;
            cur = node.get(Item::snext);
        }
        self.table_remove_at(tx, self.senders, KeyKind::Sender, slot)?;
        d.add(PoolHdr::purged, n);
        self.settle(tx, d)?;
        Ok(n)
    }

    /// Is an item with `id` live?
    pub fn contains(&self, tx: &mut Tx<'_, '_>, id: u64) -> TxResult<bool> {
        Ok(self.table_find(tx, self.slots, KeyKind::Id, id)?.is_some())
    }

    /// Remove live item `p` (at primary slot `slot`, if the caller knows
    /// it) for `cause`, as a whole operation: load, unlink, settle.
    fn take(
        &self,
        tx: &mut Tx<'_, '_>,
        p: TxPtr<Item>,
        slot: Option<u64>,
        cause: Field<PoolHdr, u64>,
    ) -> TxResult<PoolEntry> {
        let n = self.load(tx, p)?;
        let mut d = HdrDelta::default();
        self.sender_unlink(tx, p, n.get(Item::sender), n.get(Item::snext))?;
        self.unlink_item(tx, &mut d, p, &n, slot)?;
        d.add(cause, 1);
        self.settle(tx, d)?;
        Ok(n.entry())
    }

    /// Evict the skiplist minimum (the strictly-worst live item); the
    /// caller has established the pool is non-empty.
    fn evict_min(&self, tx: &mut Tx<'_, '_>, d: &mut HdrDelta) -> TxResult<()> {
        let p = self.skip_min(tx)?;
        assert!(!p.is_null(), "eviction planned on an empty skiplist");
        let n = self.load(tx, p)?;
        self.sender_unlink(tx, p, n.get(Item::sender), n.get(Item::snext))?;
        self.unlink_item(tx, d, p, &n, None)?;
        d.add(PoolHdr::evicted, 1);
        d.add(PoolHdr::evicted_bytes, n.get(Item::bytes));
        Ok(())
    }

    /// Unlink a live, loaded item from the by-priority and primary
    /// indices, free its memory, and account it gone. The sender chain is
    /// the caller's (`remove_sender` retires a whole chain at once), and
    /// so is the telemetry.
    fn unlink_item(
        &self,
        tx: &mut Tx<'_, '_>,
        d: &mut HdrDelta,
        p: TxPtr<Item>,
        n: &Node,
        slot: Option<u64>,
    ) -> TxResult<()> {
        self.skip_unlink(tx, n)?;
        let slot = match slot {
            Some(slot) => slot,
            None => match self.table_find(tx, self.slots, KeyKind::Id, n.get(Item::id))? {
                Some((slot, q)) if q == p => slot,
                _ => panic!("live item {} is not in the primary index", p.addr()),
            },
        };
        self.table_remove_at(tx, self.slots, KeyKind::Id, slot)?;
        if n.get(Item::payload_words) > 0 {
            tx.free_buf(n.get(Item::payload));
        }
        tx.free_obj(p);
        d.sub(PoolHdr::count, 1);
        d.sub(PoolHdr::live_bytes, n.get(Item::bytes));
        Ok(())
    }
}

/// The deterministic payload pattern: word `w` of item `id`'s payload.
#[inline]
pub(crate) fn payload_word(id: u64, w: u64) -> u64 {
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolConfig;
    use stm::{StmRuntime, TxConfig, TxObject};
    use txmem::MemConfig;

    fn rt() -> StmRuntime {
        StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full())
    }

    fn budget_for(items: u64) -> u64 {
        items * Item::BYTES
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let rt = rt();
        let pool = TxPool::create(
            &rt,
            PoolConfig {
                budget_bytes: budget_for(16),
                bloom_words: 4,
            },
        );
        let mut w = rt.spawn_worker();
        assert_eq!(
            w.txn(|tx| pool.insert(tx, 7, 1, 0, 50, 3)),
            InsertOutcome::Inserted { evicted: 0 }
        );
        assert_eq!(
            w.txn(|tx| pool.insert(tx, 7, 9, 9, 99, 0)),
            InsertOutcome::Duplicate,
            "same id is a duplicate regardless of other fields"
        );
        assert!(w.txn(|tx| pool.contains(tx, 7)));
        assert!(!w.txn(|tx| pool.contains(tx, 8)));
        let e = w.txn(|tx| pool.remove(tx, 7)).expect("live");
        assert_eq!(
            (e.id, e.sender, e.nonce, e.prio, e.payload_words),
            (7, 1, 0, 50, 3)
        );
        assert_eq!(w.txn(|tx| pool.remove(tx, 7)), None);
        assert_eq!(w.txn(|tx| pool.len(tx)), 0);
        pool.seq_check(&w);
    }

    #[test]
    fn pop_best_takes_highest_priority_then_highest_id() {
        let rt = rt();
        let pool = TxPool::create(
            &rt,
            PoolConfig {
                budget_bytes: budget_for(16),
                bloom_words: 4,
            },
        );
        let mut w = rt.spawn_worker();
        for (id, prio) in [(1u64, 5u64), (2, 9), (3, 9), (4, 1)] {
            w.txn(|tx| pool.insert(tx, id, 0, 0, prio, 0));
        }
        let order: Vec<u64> =
            std::iter::from_fn(|| w.txn(|tx| pool.pop_best(tx)).map(|e| e.id)).collect();
        assert_eq!(order, vec![3, 2, 1, 4]);
        pool.seq_check(&w);
    }

    #[test]
    fn mutations_roll_back_with_their_transaction() {
        let rt = rt();
        let pool = TxPool::create(
            &rt,
            PoolConfig {
                budget_bytes: budget_for(8),
                bloom_words: 4,
            },
        );
        let mut w = rt.spawn_worker();
        w.txn(|tx| pool.insert(tx, 1, 0, 0, 5, 2));
        let r: Result<(), u64> = w.txn_result(|tx| {
            pool.insert(tx, 2, 0, 1, 6, 0)?;
            pool.remove(tx, 1)?;
            Err(stm::Abort::User(0))
        });
        assert!(r.is_err());
        assert_eq!(pool.seq_collect(&w).len(), 1, "aborted ops left no trace");
        assert_eq!(pool.seq_collect(&w)[0].id, 1);
        pool.seq_check(&w);
    }

    #[test]
    fn remove_sender_purges_whole_chains() {
        let rt = rt();
        let pool = TxPool::create(
            &rt,
            PoolConfig {
                budget_bytes: budget_for(16),
                bloom_words: 4,
            },
        );
        let mut w = rt.spawn_worker();
        for (id, sender, nonce) in [(1u64, 7u64, 2u64), (2, 7, 0), (3, 5, 0), (4, 7, 1)] {
            w.txn(|tx| pool.insert(tx, id, sender, nonce, 10, 0));
        }
        assert_eq!(w.txn(|tx| pool.remove_sender(tx, 7)), 3);
        assert_eq!(w.txn(|tx| pool.remove_sender(tx, 7)), 0);
        let left = pool.seq_collect(&w);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].sender, 5);
        pool.seq_check(&w);
    }

    #[test]
    fn promote_repositions_in_the_priority_index() {
        let rt = rt();
        let pool = TxPool::create(
            &rt,
            PoolConfig {
                budget_bytes: budget_for(16),
                bloom_words: 4,
            },
        );
        let mut w = rt.spawn_worker();
        for (id, prio) in [(1u64, 1u64), (2, 5), (3, 9)] {
            w.txn(|tx| pool.insert(tx, id, 0, 0, prio, 0));
        }
        assert!(w.txn(|tx| pool.promote(tx, 1, 99)));
        assert!(!w.txn(|tx| pool.promote(tx, 42, 1)));
        pool.seq_check(&w);
        assert_eq!(w.txn(|tx| pool.pop_best(tx)).map(|e| e.id), Some(1));
        pool.seq_check(&w);
    }
}
