//! Sequential (non-transactional) inspection and the structural invariant
//! checker. Everything here reads the transactional address space through
//! [`stm::WorkerCtx::load_as`], so it is only valid at quiesce points —
//! after workers have joined or between transactions on a single thread.

use crate::index::KeyKind;
use crate::{mix, Item, PoolEntry, PoolHdr, TxPool, MAX_LEVEL};
use stm::{TxBuf, TxObject, TxPtr, WorkerCtx};
use txmem::{small_block_total, HEADER_BYTES};

/// A snapshot of the pool header's telemetry words, for comparison with
/// the sequential model's bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Live item count.
    pub count: u64,
    /// Sum of live items' accounted bytes.
    pub live_bytes: u64,
    /// Successful inserts.
    pub inserted: u64,
    /// Items evicted to make room.
    pub evicted: u64,
    /// Accounted bytes of evicted items.
    pub evicted_bytes: u64,
    /// Inserts refused as exact duplicates.
    pub dup_hits: u64,
    /// Inserts whose bloom negative skipped the exact duplicate probe.
    pub dup_skips: u64,
    /// Rejected inserts.
    pub rejected: u64,
    /// Items taken by `pop_best`.
    pub popped: u64,
    /// Items removed by id.
    pub removed: u64,
    /// Successful priority changes.
    pub promoted: u64,
    /// Items removed via `remove_sender`.
    pub purged: u64,
}

impl TxPool {
    /// Snapshot every live item, sorted by id.
    pub fn seq_collect(&self, w: &WorkerCtx<'_>) -> Vec<PoolEntry> {
        let mut out = Vec::new();
        let mut cur: TxPtr<Item> = w.load_as(self.heads.elem(0));
        while !cur.is_null() {
            out.push(PoolEntry {
                id: w.load_as(cur.field(Item::id)),
                sender: w.load_as(cur.field(Item::sender)),
                nonce: w.load_as(cur.field(Item::nonce)),
                prio: w.load_as(cur.field(Item::prio)),
                payload_words: w.load_as(cur.field(Item::payload_words)),
            });
            cur = w.load_as(cur.field(Item::fwd(0)));
        }
        out.sort();
        out
    }

    /// Snapshot the header telemetry.
    pub fn seq_counters(&self, w: &WorkerCtx<'_>) -> PoolCounters {
        let hdr = |f| w.load_as(self.hdr.field(f));
        PoolCounters {
            count: hdr(PoolHdr::count),
            live_bytes: hdr(PoolHdr::live_bytes),
            inserted: hdr(PoolHdr::inserted),
            evicted: hdr(PoolHdr::evicted),
            evicted_bytes: hdr(PoolHdr::evicted_bytes),
            dup_hits: hdr(PoolHdr::dup_hits),
            dup_skips: hdr(PoolHdr::dup_skips),
            rejected: hdr(PoolHdr::rejected),
            popped: hdr(PoolHdr::popped),
            removed: hdr(PoolHdr::removed),
            promoted: hdr(PoolHdr::promoted),
            purged: hdr(PoolHdr::purged),
        }
    }

    /// Assert every structural invariant the pool promises post-commit:
    ///
    /// * both hash tables are valid open-addressing states (every entry is
    ///   reachable from its home slot with no empty slot in between) and
    ///   the primary table holds exactly the live items;
    /// * the skiplist's level-0 chain is strictly `(prio, id)`-sorted,
    ///   each upper level is exactly the sub-chain of taller items, every
    ///   back link mirrors its forward link, the tail word is the level-0
    ///   maximum, and each item's block is exactly its tower's size;
    /// * each sender chain is strictly `(nonce, id)`-sorted, homogeneous
    ///   in sender, and the chains partition the live items;
    /// * `live_bytes` is the exact sum of per-item accounted bytes, each
    ///   item's `bytes` matches its payload length, and the budget holds;
    /// * the bloom filter answers positive for every live id;
    /// * every payload word still carries the id-derived pattern.
    ///
    /// # Panics
    /// On any violation.
    pub fn seq_check(&self, w: &WorkerCtx<'_>) {
        let cap = self.capacity();
        // --- skiplist: level 0 is the ground truth for "live" ------------
        let mut live: Vec<(u64, TxPtr<Item>)> = Vec::new();
        let mut prev_key: Option<(u64, u64)> = None;
        let mut cur: TxPtr<Item> = w.load_as(self.heads.elem(0));
        let mut bytes_sum = 0u64;
        while !cur.is_null() {
            let id: u64 = w.load_as(cur.field(Item::id));
            let prio: u64 = w.load_as(cur.field(Item::prio));
            let bytes: u64 = w.load_as(cur.field(Item::bytes));
            let payload_words: u64 = w.load_as(cur.field(Item::payload_words));
            let level: u64 = w.load_as(cur.field(Item::level));
            assert_ne!(id, 0, "live item with zero id");
            assert_eq!(
                level,
                crate::level_of(id),
                "item {id}: stored level disagrees with level_of"
            );
            assert_eq!(
                bytes,
                Item::BYTES + 8 * payload_words,
                "item {id}: accounted bytes disagree with payload length"
            );
            assert_eq!(
                Some(w.runtime().heap().usable_size(cur.addr()) + HEADER_BYTES),
                small_block_total(8 * Item::alloc_words(level)),
                "item {id}: block is not sized to its level-{level} tower"
            );
            let payload: TxBuf<u64> = w.load_as(cur.field(Item::payload));
            if payload_words == 0 {
                assert!(payload.is_null(), "item {id}: empty payload not null");
            } else {
                for pw in 0..payload_words {
                    let got: u64 = w.load_as(payload.elem(pw));
                    assert_eq!(
                        got,
                        crate::ops::payload_word(id, pw),
                        "item {id}: payload word {pw} corrupted"
                    );
                }
            }
            let key = (prio, id);
            assert!(
                prev_key.is_none_or(|p| p < key),
                "skiplist level 0 not strictly sorted at item {id}"
            );
            prev_key = Some(key);
            bytes_sum += bytes;
            live.push((id, cur));
            cur = w.load_as(cur.field(Item::fwd(0)));
        }
        // Every level is exactly the taller-item sub-chain, in order, and
        // its back links mirror its forward links.
        for l in 0..MAX_LEVEL {
            let mut expect = live
                .iter()
                .filter(|&&(id, _)| crate::level_of(id) > l as u64)
                .map(|&(_, p)| p);
            let mut prev = TxPtr::<Item>::NULL;
            let mut cur: TxPtr<Item> = w.load_as(self.heads.elem(l as u64));
            while !cur.is_null() {
                let want = expect.next().unwrap_or_else(|| {
                    panic!("skiplist level {l} longer than the taller-item set")
                });
                assert_eq!(cur, want, "skiplist level {l} chain mismatch");
                let back: TxPtr<Item> = w.load_as(cur.field(Item::back(l)));
                assert_eq!(back, prev, "skiplist level {l}: back link is no mirror");
                prev = cur;
                cur = w.load_as(cur.field(Item::fwd(l)));
            }
            assert!(
                expect.next().is_none(),
                "skiplist level {l} shorter than the taller-item set"
            );
            if l == 0 {
                let tail: TxPtr<Item> = w.load_as(self.heads.elem(MAX_LEVEL as u64));
                assert_eq!(tail, prev, "tail word is not the level-0 maximum");
            }
        }
        // --- header accounting -------------------------------------------
        let c = self.seq_counters(w);
        assert_eq!(c.count, live.len() as u64, "header count is wrong");
        assert_eq!(c.live_bytes, bytes_sum, "live_bytes accounting is wrong");
        assert!(
            c.live_bytes <= self.budget,
            "budget exceeded post-commit: {} > {}",
            c.live_bytes,
            self.budget
        );
        assert!(c.count <= cap / 2, "load factor above 1/2");
        assert_eq!(
            c.inserted,
            c.count + c.evicted + c.popped + c.removed + c.purged,
            "item conservation: inserted == live + every removal cause"
        );
        // --- primary table ------------------------------------------------
        let ids: std::collections::BTreeMap<u64, TxPtr<Item>> = live.iter().copied().collect();
        assert_eq!(ids.len(), live.len(), "duplicate live ids");
        self.seq_check_table(w, self.slots, KeyKind::Id, cap);
        let mut slot_entries = 0u64;
        for i in 0..cap {
            let p: TxPtr<Item> = w.load_as(self.slots.elem(i));
            if p.is_null() {
                continue;
            }
            slot_entries += 1;
            let id: u64 = w.load_as(p.field(Item::id));
            let q = ids
                .get(&id)
                .unwrap_or_else(|| panic!("primary table holds id {id} which is not live"));
            assert_eq!(q.raw(), p.raw(), "primary table points at a stale item");
        }
        assert_eq!(
            slot_entries,
            live.len() as u64,
            "primary table entry count disagrees with live count"
        );
        // --- sender table and chains ---------------------------------------
        self.seq_check_table(w, self.senders, KeyKind::Sender, cap);
        let mut chained = 0u64;
        let mut seen_senders = std::collections::HashSet::new();
        for i in 0..cap {
            let head: TxPtr<Item> = w.load_as(self.senders.elem(i));
            if head.is_null() {
                continue;
            }
            let sender: u64 = w.load_as(head.field(Item::sender));
            assert!(seen_senders.insert(sender), "sender {sender} has two slots");
            let mut prev: Option<(u64, u64)> = None;
            let mut cur = head;
            while !cur.is_null() {
                let s: u64 = w.load_as(cur.field(Item::sender));
                let nonce: u64 = w.load_as(cur.field(Item::nonce));
                let id: u64 = w.load_as(cur.field(Item::id));
                assert_eq!(s, sender, "sender chain mixes senders at item {id}");
                assert!(
                    ids.contains_key(&id),
                    "sender chain holds id {id} which is not live"
                );
                let key = (nonce, id);
                assert!(
                    prev.is_none_or(|p| p < key),
                    "sender {sender} chain not strictly (nonce, id)-sorted"
                );
                prev = Some(key);
                chained += 1;
                cur = w.load_as(cur.field(Item::snext));
            }
        }
        assert_eq!(
            chained,
            live.len() as u64,
            "sender chains do not partition the live items"
        );
        // --- bloom filter ---------------------------------------------------
        for &(id, _) in &live {
            for (addr, bit) in self.bloom_probes(id) {
                let word: u64 = w.load_as(addr);
                assert!(word & bit != 0, "bloom negative for live id {id}");
            }
        }
    }

    /// Open-addressing validity for one table: every occupied slot must be
    /// reachable from its key's home by a probe that crosses no empty slot
    /// (otherwise lookups would miss it). With backward-shift deletion and
    /// no tombstones this is the whole probe-sequence contract.
    fn seq_check_table(
        &self,
        w: &WorkerCtx<'_>,
        table: TxBuf<TxPtr<Item>>,
        kind: KeyKind,
        cap: u64,
    ) {
        for i in 0..cap {
            let p: TxPtr<Item> = w.load_as(table.elem(i));
            if p.is_null() {
                continue;
            }
            let key: u64 = match kind {
                KeyKind::Id => w.load_as(p.field(Item::id)),
                KeyKind::Sender => w.load_as(p.field(Item::sender)),
            };
            let home = mix(key) & self.mask;
            let mut j = home;
            while j != i {
                let q: TxPtr<Item> = w.load_as(table.elem(j));
                assert!(
                    !q.is_null(),
                    "{kind:?} table: empty slot {j} between home {home} and entry {i}"
                );
                j = (j + 1) & self.mask;
            }
        }
    }
}
