//! Index internals: the two open-addressing tables (items by id, sender
//! chains by sender), the bloom duplicate filter, and the intrusive
//! skiplist. Everything here is `pub(crate)` plumbing for the public
//! operations in `ops.rs`.
//!
//! Every transactional read here sees a consistent snapshot: freeing an
//! item locks the lines of its block like a write, so the block is reused
//! only after the freeing commit stamped them, and a transaction that could
//! still follow a stale link to it fails validation before it reads a
//! recycled word (DESIGN.md §13.6). Walks therefore carry no step bounds
//! and link-derived addresses no range checks; an index invariant that
//! fails inside a transaction is corruption and panics with the item's
//! address.

use std::cmp::Ordering;

use txmem::Addr;

use crate::{
    mix, Item, PoolEntry, TxPool, MAX_LEVEL, S_BLOOM_R, S_BLOOM_W, S_INIT_W, S_ITEM_R, S_LINK_W,
    S_SKIP_R, S_SKIP_W, S_SLOT_R, S_SLOT_W,
};
use stm::{Field, Tx, TxBuf, TxPtr, TxResult, TxWord};

/// One live item's words, read once ([`TxPool::load`]) and then consulted
/// locally: the nine-word header and the `level`-pair tower.
pub(crate) struct Node([u64; Item::alloc_words(MAX_LEVEL as u64) as usize]);

impl Node {
    pub(crate) fn get<V: TxWord>(&self, f: Field<Item, V>) -> V {
        V::from_word(self.0[f.word() as usize])
    }

    /// The stored skiplist height.
    pub(crate) fn level(&self) -> usize {
        self.get(Item::level) as usize
    }

    pub(crate) fn entry(&self) -> PoolEntry {
        PoolEntry {
            id: self.get(Item::id),
            sender: self.get(Item::sender),
            nonce: self.get(Item::nonce),
            prio: self.get(Item::prio),
            payload_words: self.get(Item::payload_words),
        }
    }
}

/// Which key a table is organized by — resolves the field the
/// backward-shift relocation reads to recompute an entry's home slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KeyKind {
    /// The item table: keyed by `Item::id`.
    Id,
    /// The sender table: slots head sender chains, keyed by the head
    /// item's `Item::sender`.
    Sender,
}

impl TxPool {
    fn key_of(&self, tx: &mut Tx<'_, '_>, p: TxPtr<Item>, kind: KeyKind) -> TxResult<u64> {
        match kind {
            KeyKind::Id => tx.read_field(&S_ITEM_R, p, Item::id),
            KeyKind::Sender => tx.read_field(&S_ITEM_R, p, Item::sender),
        }
    }

    /// Probe for `key` starting at its home slot. Returns the slot index
    /// and entry, or `None` at the first empty slot (linear probing with
    /// backward-shift deletion leaves no holes inside a cluster, so an
    /// empty slot proves absence; at load factor ≤ 1/2 there always is
    /// one).
    pub(crate) fn table_find(
        &self,
        tx: &mut Tx<'_, '_>,
        table: TxBuf<TxPtr<Item>>,
        kind: KeyKind,
        key: u64,
    ) -> TxResult<Option<(u64, TxPtr<Item>)>> {
        let mut i = mix(key) & self.mask;
        loop {
            let p: TxPtr<Item> = tx.read_as(&S_SLOT_R, table.elem(i))?;
            if p.is_null() {
                return Ok(None);
            }
            if self.key_of(tx, p, kind)? == key {
                return Ok(Some((i, p)));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Insert `p` under `key`, which the caller has established is absent
    /// (so the probe never compares occupants — it only hunts the
    /// cluster's first empty slot).
    pub(crate) fn table_insert(
        &self,
        tx: &mut Tx<'_, '_>,
        table: TxBuf<TxPtr<Item>>,
        key: u64,
        p: TxPtr<Item>,
    ) -> TxResult<()> {
        let mut i = mix(key) & self.mask;
        loop {
            let q: TxPtr<Item> = tx.read_as(&S_SLOT_R, table.elem(i))?;
            if q.is_null() {
                return tx.write_as(&S_SLOT_W, table.elem(i), p);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Vacate slot `i` and backward-shift the rest of the cluster so the
    /// no-holes probe invariant survives without tombstones: any later
    /// entry whose home slot is cyclically outside `(hole, entry]` can
    /// legally move back into the hole, leaving its old slot as the new
    /// hole; the first empty slot ends the cluster.
    pub(crate) fn table_remove_at(
        &self,
        tx: &mut Tx<'_, '_>,
        table: TxBuf<TxPtr<Item>>,
        kind: KeyKind,
        mut i: u64,
    ) -> TxResult<()> {
        tx.write_as(&S_SLOT_W, table.elem(i), TxPtr::<Item>::NULL)?;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let p: TxPtr<Item> = tx.read_as(&S_SLOT_R, table.elem(j))?;
            if p.is_null() {
                return Ok(());
            }
            let home = mix(self.key_of(tx, p, kind)?) & self.mask;
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                tx.write_as(&S_SLOT_W, table.elem(i), p)?;
                tx.write_as(&S_SLOT_W, table.elem(j), TxPtr::<Item>::NULL)?;
                i = j;
            }
        }
    }

    // --- bloom duplicate filter -------------------------------------------

    /// The two (word address, bit mask) probes for `id`.
    pub(crate) fn bloom_probes(&self, id: u64) -> [(Addr, u64); 2] {
        let h = mix(id ^ 0xB10_0F11);
        let g = mix(h);
        let b1 = h & self.bloom_mask;
        let b2 = g & self.bloom_mask;
        [
            (self.bloom.elem(b1 >> 6), 1u64 << (b1 & 63)),
            (self.bloom.elem(b2 >> 6), 1u64 << (b2 & 63)),
        ]
    }

    /// Might `id` have ever been inserted? False positives possible,
    /// false negatives not.
    pub(crate) fn bloom_might_contain(&self, tx: &mut Tx<'_, '_>, id: u64) -> TxResult<bool> {
        for (addr, bit) in self.bloom_probes(id) {
            let w: u64 = tx.read_as(&S_BLOOM_R, addr)?;
            if w & bit == 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Record `id` in the filter. Writes only words that actually change,
    /// so a saturated filter stops generating write-set conflicts.
    pub(crate) fn bloom_add(&self, tx: &mut Tx<'_, '_>, id: u64) -> TxResult<()> {
        for (addr, bit) in self.bloom_probes(id) {
            let w: u64 = tx.read_as(&S_BLOOM_R, addr)?;
            if w & bit == 0 {
                tx.write_as(&S_BLOOM_W, addr, w | bit)?;
            }
        }
        Ok(())
    }

    /// Read item `p` once: the header plus the level-0 pair every item has
    /// in one ranged barrier, the rest of a taller tower in a second.
    pub(crate) fn load(&self, tx: &mut Tx<'_, '_>, p: TxPtr<Item>) -> TxResult<Node> {
        let mut n = Node([0; Item::alloc_words(MAX_LEVEL as u64) as usize]);
        let base = Item::alloc_words(1) as usize;
        tx.read_range(&S_ITEM_R, p.addr(), &mut n.0[..base])?;
        let lvl = n.get(Item::level);
        if lvl > 1 {
            let rest = &mut n.0[base..Item::alloc_words(lvl) as usize];
            tx.read_range(&S_SKIP_R, p.field(Item::fwd(1)), rest)?;
        }
        Ok(n)
    }

    // --- skiplist ----------------------------------------------------------

    /// The word holding the level-`l` forward link out of `pred` (null =
    /// the list head).
    fn fwd_link(&self, pred: TxPtr<Item>, l: usize) -> Addr {
        if pred.is_null() {
            self.heads.elem(l as u64)
        } else {
            pred.field(Item::fwd(l))
        }
    }

    /// Point the level-`l` back link into `succ` at `to`; past the end of
    /// the list that link is the tail word at level 0 and nothing above it.
    fn set_back(
        &self,
        tx: &mut Tx<'_, '_>,
        succ: TxPtr<Item>,
        l: usize,
        to: TxPtr<Item>,
    ) -> TxResult<()> {
        if !succ.is_null() {
            tx.write_field(&S_SKIP_W, succ, Item::back(l), to)
        } else if l == 0 {
            tx.write_as(&S_SKIP_W, self.heads.elem(MAX_LEVEL as u64), to)
        } else {
            Ok(())
        }
    }

    /// Order `key` against `p`'s `(major, id)` key. The id is read only to
    /// break a tie on the major word (after the priority it is the next
    /// word, under the same orec): one barrier per comparison, not two.
    pub(crate) fn cmp_key(
        &self,
        tx: &mut Tx<'_, '_>,
        p: TxPtr<Item>,
        major: Field<Item, u64>,
        key: (u64, u64),
    ) -> TxResult<Ordering> {
        let m = tx.read_field(&S_ITEM_R, p, major)?;
        Ok(match key.0.cmp(&m) {
            Ordering::Equal => key.1.cmp(&tx.read_field(&S_ITEM_R, p, Item::id)?),
            o => o,
        })
    }

    /// Search for `key` and splice `p` (height `lvl`, key fields already
    /// written) in front of the first node `>= key` at each of its levels.
    /// The descent remembers the node that stopped it one level up: met
    /// again it is known `>= key` without another comparison. For a fresh
    /// item the stores into `p`'s own tower are captured and elide; only
    /// the neighbours' words take full barriers.
    pub(crate) fn skip_insert(
        &self,
        tx: &mut Tx<'_, '_>,
        p: TxPtr<Item>,
        key: (u64, u64),
        lvl: usize,
    ) -> TxResult<()> {
        let mut pred = TxPtr::<Item>::NULL;
        let mut stop = TxPtr::<Item>::NULL;
        for l in (0..MAX_LEVEL).rev() {
            let link = loop {
                let link = self.fwd_link(pred, l);
                let nxt: TxPtr<Item> = tx.read_as(&S_SKIP_R, link)?;
                if nxt.is_null() || nxt == stop || self.cmp_key(tx, nxt, Item::prio, key)?.is_le() {
                    stop = nxt;
                    break link;
                }
                pred = nxt;
            };
            if l < lvl {
                tx.write_field(&S_SKIP_W, p, Item::fwd(l), stop)?;
                tx.write_field(&S_SKIP_W, p, Item::back(l), pred)?;
                tx.write_as(&S_SKIP_W, link, p)?;
                self.set_back(tx, stop, l, p)?;
            }
        }
        Ok(())
    }

    /// Unlink the item loaded as `n` from every level of its tower through
    /// its own back links: no search, no key comparison, no read. In the
    /// snapshot `n` comes from, the node a back link names points forward
    /// at the item, and commit validates that snapshot.
    pub(crate) fn skip_unlink(&self, tx: &mut Tx<'_, '_>, n: &Node) -> TxResult<()> {
        for l in 0..n.level() {
            let (nxt, prv) = (n.get(Item::fwd(l)), n.get(Item::back(l)));
            tx.write_as(&S_SKIP_W, self.fwd_link(prv, l), nxt)?;
            self.set_back(tx, nxt, l, prv)?;
        }
        Ok(())
    }

    /// The lowest-key live item (the eviction victim), or null.
    pub(crate) fn skip_min(&self, tx: &mut Tx<'_, '_>) -> TxResult<TxPtr<Item>> {
        tx.read_as(&S_SKIP_R, self.heads.elem(0))
    }

    /// The highest-key live item (what `pop_best` takes), or null.
    pub(crate) fn skip_max(&self, tx: &mut Tx<'_, '_>) -> TxResult<TxPtr<Item>> {
        tx.read_as(&S_SKIP_R, self.heads.elem(MAX_LEVEL as u64))
    }

    // --- sender chains ------------------------------------------------------

    /// Link a fresh item into its sender's `(nonce, id)`-ordered chain,
    /// creating the sender-table entry if this is the sender's first item.
    pub(crate) fn sender_insert(
        &self,
        tx: &mut Tx<'_, '_>,
        p: TxPtr<Item>,
        sender: u64,
        key: (u64, u64),
    ) -> TxResult<()> {
        let Some((slot, head)) = self.table_find(tx, self.senders, KeyKind::Sender, sender)? else {
            return self.table_insert(tx, self.senders, sender, p);
        };
        if self.cmp_key(tx, head, Item::nonce, key)?.is_lt() {
            tx.write_field(&S_INIT_W, p, Item::snext, head)?;
            return tx.write_as(&S_SLOT_W, self.senders.elem(slot), p);
        }
        let mut prev = head;
        loop {
            let link = prev.field(Item::snext);
            let nx: TxPtr<Item> = tx.read_as(&S_ITEM_R, link)?;
            if nx.is_null() || self.cmp_key(tx, nx, Item::nonce, key)?.is_lt() {
                tx.write_field(&S_INIT_W, p, Item::snext, nx)?;
                return tx.write_as(&S_LINK_W, link, p);
            }
            prev = nx;
        }
    }

    /// Unlink live item `p` — whose chain successor `snext` the caller
    /// already holds — from `sender`'s chain, dropping the sender's table
    /// entry when the chain empties.
    pub(crate) fn sender_unlink(
        &self,
        tx: &mut Tx<'_, '_>,
        p: TxPtr<Item>,
        sender: u64,
        snext: TxPtr<Item>,
    ) -> TxResult<()> {
        let (slot, head) = self
            .table_find(tx, self.senders, KeyKind::Sender, sender)?
            .unwrap_or_else(|| panic!("live item {} has no chain for sender {sender}", p.addr()));
        if head == p {
            if snext.is_null() {
                return self.table_remove_at(tx, self.senders, KeyKind::Sender, slot);
            }
            return tx.write_as(&S_SLOT_W, self.senders.elem(slot), snext);
        }
        let mut prev = head;
        loop {
            let link = prev.field(Item::snext);
            let nx: TxPtr<Item> = tx.read_as(&S_ITEM_R, link)?;
            if nx == p {
                return tx.write_as(&S_LINK_W, link, snext);
            }
            assert!(
                !nx.is_null(),
                "live item {} missing from sender {sender}'s chain",
                p.addr()
            );
            prev = nx;
        }
    }
}
