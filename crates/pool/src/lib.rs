//! A multi-index transactional memory pool on the typed STM API — the
//! repo's first macro-scale consumer and its first reusable transactional
//! collection library.
//!
//! The shape is a mempool's (primary hash index, per-sender ordering,
//! priority ordering, duplicate filter, byte-budget eviction), but every
//! structure lives in the simulated transactional address space and every
//! mutation is one transaction:
//!
//! * **Primary index** — an open-addressing hash table keyed by item id
//!   (linear probing, backward-shift deletion, so no tombstones and no
//!   rehash; the configured byte budget bounds the load factor at 1/2).
//! * **By-priority index** — an intrusive, doubly-linked skiplist ordered
//!   by `(priority, id)` ascending. The head is the eviction victim, the
//!   tail word is what [`TxPool::pop_best`] takes, and every removal
//!   unlinks through the item's own back links — only insertion searches.
//!   Levels are a deterministic function of the id, so every run (and
//!   every oracle arm) builds the identical structure.
//! * **By-sender index** — a second open-addressing table keyed by sender,
//!   each slot heading an intrusive chain sorted by `(nonce, id)`.
//! * **Duplicate filter** — a monotone bloom filter in front of the exact
//!   primary-index probe: a negative lets insertion skip the exact
//!   duplicate lookup entirely (`dup_skips` telemetry); a positive falls
//!   back to the probe, which is exact (`dup_hits`).
//! * **Eviction** — inserting past the byte budget evicts strictly
//!   lower-priority items from the skiplist head until the newcomer fits;
//!   if the strictly-worse prefix cannot make room the *insert* is
//!   rejected untouched (a pool may never evict better items — nor the
//!   item being inserted — to admit a worse one).
//!
//! Correctness is proven differentially (`tests/pool_oracle.rs` runs
//! random op scripts against the sequential [`model::ModelPool`]) and
//! structurally ([`TxPool::seq_check`] asserts index cross-consistency,
//! exact live-byte accounting, and the budget bound at quiesce points).

#![warn(missing_docs)]

use stm::{tx_object, Field, Site, StmRuntime, Tx, TxBuf, TxObject, TxPtr, TxResult};

mod check;
mod index;
pub mod model;
mod ops;

pub use check::PoolCounters;
pub use ops::InsertOutcome;

/// Skiplist height cap. `P(level >= k) = 2^-(k-1)`, so 12 levels keep the
/// expected search logarithmic up to a few million live items — far past
/// any budget this pool is configured with.
pub const MAX_LEVEL: usize = 12;

/// One pool item: a nine-word header followed by a skiplist tower of
/// exactly `level` forward/back link pairs, allocated as one block of
/// [`Item::alloc_words`]`(level)` words. The indices are intrusive — the
/// sender chain link and the tower live in the item itself — so every
/// index mutation is a handful of word barriers, and every removal
/// unlinks from the item's own back links without searching.
///
/// The header order serves the two hot reads: `(prio, id)` — the
/// skiplist key — and `(id, nonce, snext)` — one sender-chain step — are
/// each one ranged barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Item;

impl TxObject for Item {
    /// The *accounted* footprint — header plus a nominal [`MAX_LEVEL`]
    /// link words, 168 bytes — which is the unit budgets are written in
    /// (`PoolEntry::bytes`, `PoolConfig::capacity`). It is a policy
    /// constant, not a malloc size: the block an item occupies is
    /// [`Item::alloc_words`] of its level (13 words on average).
    const WORDS: u64 = Item::HDR_WORDS + MAX_LEVEL as u64;
}

#[allow(non_upper_case_globals)]
impl Item {
    /// Priority (larger = better); with `id`, the skiplist key.
    pub const prio: Field<Item, u64> = Field::at(0);
    /// Unique item id (non-zero); the primary-index key.
    pub const id: Field<Item, u64> = Field::at(1);
    /// Per-sender sequence number; with `id`, orders the sender chain.
    pub const nonce: Field<Item, u64> = Field::at(2);
    /// Next item in this sender's `(nonce, id)`-ordered chain.
    pub const snext: Field<Item, TxPtr<Item>> = Field::at(3);
    /// Sender id; the by-sender index key.
    pub const sender: Field<Item, u64> = Field::at(4);
    /// Accounted bytes: `Item::BYTES + 8 * payload_words`.
    pub const bytes: Field<Item, u64> = Field::at(5);
    /// Payload buffer (null when `payload_words == 0`).
    pub const payload: Field<Item, TxBuf<u64>> = Field::at(6);
    /// Payload length in words.
    pub const payload_words: Field<Item, u64> = Field::at(7);
    /// This item's skiplist height (1..=[`MAX_LEVEL`]) — the tower length.
    pub const level: Field<Item, u64> = Field::at(8);
    /// First tower word; level `l` keeps its forward link at
    /// `tower.index(2 * l)` and its back link right after it.
    pub const tower: Field<Item, TxPtr<Item>> = Field::at(Item::HDR_WORDS);

    /// Words before the tower.
    pub const HDR_WORDS: u64 = 9;

    /// Block size in words of an item of skiplist height `level`.
    #[inline]
    pub const fn alloc_words(level: u64) -> u64 {
        Item::HDR_WORDS + 2 * level
    }

    /// Level-`l` forward link (towards larger keys; null = last).
    #[inline]
    pub fn fwd(l: usize) -> Field<Item, TxPtr<Item>> {
        debug_assert!(l < MAX_LEVEL, "skiplist level {l} out of range");
        Item::tower.index(2 * l as u64)
    }

    /// Level-`l` back link (towards smaller keys; null = first, i.e. the
    /// predecessor's forward word is `heads[l]`).
    #[inline]
    pub fn back(l: usize) -> Field<Item, TxPtr<Item>> {
        Item::fwd(l).index(1)
    }
}

tx_object! {
    /// The pool header: live accounting plus telemetry, all transactional
    /// so counters roll back with their transaction. This is the pool's
    /// one serialization point — every mutation reads and writes
    /// `count`/`live_bytes`, exactly like the single lock a conventional
    /// mempool takes (the contention ladder absorbs the storms).
    pub struct PoolHdr {
        /// Live item count.
        pub count: u64,
        /// Sum of live items' accounted bytes; `<= budget` post-commit.
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
        /// Inserts rejected because the strictly-worse prefix could not
        /// make room (includes items larger than the whole budget).
        pub rejected: u64,
        /// Items taken by [`TxPool::pop_best`].
        pub popped: u64,
        /// Items removed by id.
        pub removed: u64,
        /// Successful priority changes.
        pub promoted: u64,
        /// Items removed via [`TxPool::remove_sender`].
        pub purged: u64,
    }
}

// --- access sites ----------------------------------------------------------
pub(crate) static S_HDR_R: Site = Site::shared("pool.hdr.read");
pub(crate) static S_HDR_W: Site = Site::shared("pool.hdr.write");
pub(crate) static S_SLOT_R: Site = Site::shared("pool.slot.read");
pub(crate) static S_SLOT_W: Site = Site::shared("pool.slot.write");
pub(crate) static S_SKIP_R: Site = Site::shared("pool.skip.read");
pub(crate) static S_SKIP_W: Site = Site::shared("pool.skip.write");
pub(crate) static S_BLOOM_R: Site = Site::shared("pool.bloom.read");
pub(crate) static S_BLOOM_W: Site = Site::shared("pool.bloom.write");
pub(crate) static S_ITEM_R: Site = Site::shared("pool.item.read");
pub(crate) static S_LINK_W: Site = Site::shared("pool.link.write");
// Initialization of a freshly allocated item/payload: captured (the
// allocation happens in the same transaction), so these writes elide.
pub(crate) static S_INIT_W: Site = Site::captured_local("pool.item_init.write");

/// Pool sizing. The hash capacity is derived from the budget (the budget
/// bounds live items at `budget_bytes / Item::BYTES`, and the tables are
/// sized to twice that, capping the load factor at 1/2), so the only
/// tuning surface is bytes and bloom width.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Live-byte budget; inserting past it evicts or rejects.
    pub budget_bytes: u64,
    /// Bloom filter width in 64-bit words (power of two). The filter is
    /// monotone — it tracks ids *ever* inserted — so it saturates under
    /// unbounded distinct ids; that only decays the `dup_skips` fast
    /// path, never correctness.
    pub bloom_words: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            budget_bytes: 1 << 20,
            bloom_words: 1 << 10,
        }
    }
}

impl PoolConfig {
    /// Validate the configuration: the budget must hold at least one
    /// payload-less item and the bloom width must be a power of two.
    pub fn validate(&self) -> Result<(), String> {
        if self.budget_bytes < Item::BYTES {
            return Err(format!(
                "budget_bytes {} cannot hold a single item header ({} bytes)",
                self.budget_bytes,
                Item::BYTES
            ));
        }
        if self.bloom_words == 0 || !self.bloom_words.is_power_of_two() {
            return Err(format!(
                "bloom_words {} must be a non-zero power of two",
                self.bloom_words
            ));
        }
        Ok(())
    }

    /// Hash-table capacity (both tables): two slots per budget-bounded
    /// live item, so linear probing never crosses load factor 1/2.
    pub fn capacity(&self) -> u64 {
        (2 * (self.budget_bytes / Item::BYTES))
            .next_power_of_two()
            .max(16)
    }
}

/// The observable value of one live item — what the differential oracle
/// compares against the sequential model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PoolEntry {
    /// Item id.
    pub id: u64,
    /// Sender id.
    pub sender: u64,
    /// Per-sender nonce.
    pub nonce: u64,
    /// Priority.
    pub prio: u64,
    /// Payload length in words.
    pub payload_words: u64,
}

impl PoolEntry {
    /// Accounted bytes of an entry with this payload length.
    pub fn bytes(&self) -> u64 {
        Item::BYTES + 8 * self.payload_words
    }
}

/// A transactional multi-index pool. The handle is plain copyable data
/// (addresses plus immutable sizing); all mutable state lives in the
/// simulated transactional address space, so clones on any thread see the
/// same pool.
#[derive(Clone, Copy, Debug)]
pub struct TxPool {
    pub(crate) hdr: TxPtr<PoolHdr>,
    pub(crate) slots: TxBuf<TxPtr<Item>>,
    pub(crate) senders: TxBuf<TxPtr<Item>>,
    /// Skiplist anchors: `heads[0..MAX_LEVEL]`, then the level-0 tail.
    pub(crate) heads: TxBuf<TxPtr<Item>>,
    pub(crate) bloom: TxBuf<u64>,
    /// `capacity - 1` for both tables.
    pub(crate) mask: u64,
    /// `64 * bloom_words - 1`.
    pub(crate) bloom_mask: u64,
    /// Live-byte budget.
    pub(crate) budget: u64,
}

impl TxPool {
    /// Create a pool during (non-transactional) setup.
    ///
    /// # Panics
    /// If `cfg` fails [`PoolConfig::validate`].
    pub fn create(rt: &StmRuntime, cfg: PoolConfig) -> TxPool {
        cfg.validate().expect("invalid PoolConfig");
        let cap = cfg.capacity();
        let hdr = TxPtr::<PoolHdr>::from_addr(rt.alloc_global(PoolHdr::BYTES));
        let slots = TxBuf::<TxPtr<Item>>::from_addr(rt.alloc_global(cap * 8));
        let senders = TxBuf::<TxPtr<Item>>::from_addr(rt.alloc_global(cap * 8));
        let heads = TxBuf::<TxPtr<Item>>::from_addr(rt.alloc_global((MAX_LEVEL as u64 + 1) * 8));
        let bloom = TxBuf::<u64>::from_addr(rt.alloc_global(cfg.bloom_words * 8));
        for w in 0..PoolHdr::WORDS {
            rt.mem().store(hdr.addr().word(w), 0);
        }
        for i in 0..cap {
            rt.mem().store(slots.elem(i), 0);
            rt.mem().store(senders.elem(i), 0);
        }
        for l in 0..=MAX_LEVEL as u64 {
            rt.mem().store(heads.elem(l), 0);
        }
        for i in 0..cfg.bloom_words {
            rt.mem().store(bloom.elem(i), 0);
        }
        TxPool {
            hdr,
            slots,
            senders,
            heads,
            bloom,
            mask: cap - 1,
            bloom_mask: 64 * cfg.bloom_words - 1,
            budget: cfg.budget_bytes,
        }
    }

    /// The configured live-byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Hash-table capacity (per table).
    pub fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Transactional live item count.
    pub fn len(&self, tx: &mut Tx<'_, '_>) -> TxResult<u64> {
        tx.read_field(&S_HDR_R, self.hdr, PoolHdr::count)
    }

    /// Transactional emptiness check.
    pub fn is_empty(&self, tx: &mut Tx<'_, '_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Transactional live-byte total.
    pub fn live_bytes(&self, tx: &mut Tx<'_, '_>) -> TxResult<u64> {
        tx.read_field(&S_HDR_R, self.hdr, PoolHdr::live_bytes)
    }

    /// Apply one operation's header deltas: each changed counter is read
    /// once and written once, and a counter whose deltas cancelled (an
    /// evicting insert's `count`) is not touched at all.
    pub(crate) fn settle(&self, tx: &mut Tx<'_, '_>, d: HdrDelta) -> TxResult<()> {
        for (w, &delta) in d.0.iter().enumerate() {
            if delta != 0 {
                let f = Field::<PoolHdr, u64>::at(w as u64);
                let v = tx.read_field(&S_HDR_R, self.hdr, f)?;
                tx.write_field(&S_HDR_W, self.hdr, f, v.wrapping_add(delta))?;
            }
        }
        Ok(())
    }
}

/// The header deltas of one operation, accumulated locally and applied by
/// [`TxPool::settle`] when the operation ends. Each counter holds one
/// two's-complement delta, so a removal's `sub` is a wrapping add.
#[derive(Default)]
pub(crate) struct HdrDelta([u64; PoolHdr::WORDS as usize]);

impl HdrDelta {
    pub(crate) fn add(&mut self, f: Field<PoolHdr, u64>, delta: u64) {
        let w = &mut self.0[f.word() as usize];
        *w = w.wrapping_add(delta);
    }

    pub(crate) fn sub(&mut self, f: Field<PoolHdr, u64>, delta: u64) {
        self.add(f, delta.wrapping_neg());
    }
}

/// splitmix64 finalizer: the hash behind slot homes, bloom bits, and
/// skiplist levels.
#[inline]
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic skiplist height for `id`: geometric via trailing zeros,
/// capped at [`MAX_LEVEL`]. A pure function of the id so every
/// configuration (and every oracle arm) builds the identical structure.
#[inline]
pub(crate) fn level_of(id: u64) -> u64 {
    (1 + mix(id ^ 0x51D0_051D0).trailing_zeros() as u64).min(MAX_LEVEL as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(PoolConfig::default().validate().is_ok());
        let too_small = PoolConfig {
            budget_bytes: Item::BYTES - 1,
            ..PoolConfig::default()
        };
        assert!(too_small.validate().is_err());
        let bad_bloom = PoolConfig {
            bloom_words: 3,
            ..PoolConfig::default()
        };
        assert!(bad_bloom.validate().is_err());
        let zero_bloom = PoolConfig {
            bloom_words: 0,
            ..PoolConfig::default()
        };
        assert!(zero_bloom.validate().is_err());
    }

    #[test]
    fn capacity_keeps_the_load_factor_under_half() {
        let cfg = PoolConfig {
            budget_bytes: 100 * Item::BYTES,
            bloom_words: 16,
        };
        let max_items = cfg.budget_bytes / Item::BYTES;
        assert!(cfg.capacity() >= 2 * max_items);
        assert!(cfg.capacity().is_power_of_two());
        // A budget that rounds to zero items still gets a usable table.
        let tiny = PoolConfig {
            budget_bytes: Item::BYTES,
            bloom_words: 1,
        };
        assert_eq!(tiny.capacity(), 16);
    }

    #[test]
    fn levels_are_deterministic_and_capped() {
        for id in 1..512u64 {
            let l = level_of(id);
            assert!((1..=MAX_LEVEL as u64).contains(&l));
            assert_eq!(l, level_of(id), "pure function of id");
        }
        // The distribution must actually use multiple levels.
        let distinct: std::collections::HashSet<u64> = (1..512).map(level_of).collect();
        assert!(distinct.len() >= 4, "degenerate level distribution");
    }

    #[test]
    fn item_layout_keeps_the_budget_unit_and_pairs_the_tower() {
        assert_eq!(Item::BYTES, 168, "the accounting unit is frozen");
        assert_eq!(Item::alloc_words(1), 11);
        assert_eq!(Item::alloc_words(MAX_LEVEL as u64), 33);
        // The two ranged reads the hot paths rely on.
        assert_eq!(Item::id.word(), Item::prio.word() + 1);
        assert_eq!(Item::nonce.word(), Item::id.word() + 1);
        assert_eq!(Item::snext.word(), Item::nonce.word() + 1);
        for l in 0..MAX_LEVEL {
            assert_eq!(Item::fwd(l).word(), Item::HDR_WORDS + 2 * l as u64);
            assert_eq!(Item::back(l).word(), Item::fwd(l).word() + 1);
        }
    }
}
