//! Eviction edge cases (ISSUE 10 satellite): exact-budget boundaries,
//! the incoming item never evicting itself, re-insertion of an evicted
//! id (bloom-positive but live-miss), all-or-nothing rejection, and
//! eviction racing a by-sender purge — every scenario ends with
//! [`TxPool::seq_check`], and the deterministic ones are cross-checked
//! against the sequential model.

use pool::model::ModelPool;
use pool::{InsertOutcome, Item, PoolConfig, TxPool};
use stm::{StmRuntime, TxConfig, TxObject};
use txmem::MemConfig;

const B: u64 = Item::BYTES;

fn pool_rt(budget_bytes: u64) -> (StmRuntime, TxPool) {
    let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_nursery());
    let pool = TxPool::create(
        &rt,
        PoolConfig {
            budget_bytes,
            bloom_words: 4,
        },
    );
    (rt, pool)
}

/// Budget met to the byte is *within* budget: no eviction until the next
/// insert actually needs room, and then exactly one victim goes.
#[test]
fn budget_exactly_met_then_single_evict() {
    let (rt, pool) = pool_rt(3 * B);
    let mut w = rt.spawn_worker();
    for id in 1..=3u64 {
        let out = w.txn(|tx| pool.insert(tx, id, 0, id, id, 0));
        assert_eq!(out, InsertOutcome::Inserted { evicted: 0 });
    }
    let full = w.txn(|tx| pool.live_bytes(tx));
    assert_eq!(full, 3 * B, "pool should sit exactly at budget");
    pool.seq_check(&w);

    // A better item displaces exactly the worst one; live bytes return
    // to the exact budget.
    let out = w.txn(|tx| pool.insert(tx, 4, 0, 4, 9, 0));
    assert_eq!(out, InsertOutcome::Inserted { evicted: 1 });
    assert_eq!(w.txn(|tx| pool.live_bytes(tx)), 3 * B);
    let ids: Vec<u64> = pool.seq_collect(&w).iter().map(|e| e.id).collect();
    assert_eq!(ids, vec![2, 3, 4], "the prio-1 item must be the victim");
    pool.seq_check(&w);
}

/// The incoming item is never its own eviction victim: when it would be
/// the worst item in the pool, the plan finds no strictly-worse prefix
/// and rejects, leaving the pool byte-identical.
#[test]
fn incoming_worst_item_is_rejected_untouched() {
    let (rt, pool) = pool_rt(3 * B);
    let mut w = rt.spawn_worker();
    for id in 10..=12u64 {
        w.txn(|tx| pool.insert(tx, id, 0, id, 5, 0));
    }
    let before = pool.seq_collect(&w);

    // Strictly worse priority: nothing below it to evict.
    let out = w.txn(|tx| pool.insert(tx, 90, 1, 0, 2, 0));
    assert_eq!(out, InsertOutcome::Rejected);
    // Equal priority, *lower* id: the incoming key (5, 5) sorts below
    // every live (5, 10..12) key, so the strictly-worse prefix is empty —
    // the item it would most like to evict is, rank-wise, itself.
    let out = w.txn(|tx| pool.insert(tx, 5, 1, 0, 5, 0));
    assert_eq!(
        out,
        InsertOutcome::Rejected,
        "a same-priority item never evicts peers that outrank it"
    );
    assert_eq!(
        pool.seq_collect(&w),
        before,
        "rejection must not disturb the pool"
    );
    assert_eq!(pool.seq_counters(&w).rejected, 2);
    pool.seq_check(&w);
}

/// An id that was evicted reads as bloom-positive forever (the filter is
/// monotone) but must re-insert as a fresh item, not a duplicate.
#[test]
fn reinsert_after_evict_is_fresh_not_duplicate() {
    let (rt, pool) = pool_rt(3 * B);
    let mut w = rt.spawn_worker();
    let mut m = ModelPool::new(3 * B, 4);

    assert_eq!(
        w.txn(|tx| pool.insert(tx, 1, 0, 0, 1, 0)),
        m.insert(1, 0, 0, 1, 0)
    );
    for id in 2..=4u64 {
        assert_eq!(
            w.txn(|tx| pool.insert(tx, id, 0, id, 8, 0)),
            m.insert(id, 0, id, 8, 0)
        );
    }
    assert!(!w.txn(|tx| pool.contains(tx, 1)), "id 1 should be evicted");

    // Re-insert at a winning priority: bloom says maybe-seen, the exact
    // probe misses, and it comes back as a brand-new item.
    let out = w.txn(|tx| pool.insert(tx, 1, 0, 9, 9, 0));
    assert_eq!(out, m.insert(1, 0, 9, 9, 0));
    assert!(matches!(out, InsertOutcome::Inserted { .. }));
    let c = pool.seq_counters(&w);
    assert_eq!(c.dup_hits, 0, "an evicted id is not a duplicate");
    assert_eq!(c, m.counters());
    assert_eq!(pool.seq_collect(&w), m.contents());
    pool.seq_check(&w);
}

/// Victim bytes that match the incoming need exactly: one eviction, and
/// the pool lands back on the precise budget boundary.
#[test]
fn eviction_frees_exactly_the_needed_bytes() {
    let budget = 3 * B + 16;
    let (rt, pool) = pool_rt(budget);
    let mut w = rt.spawn_worker();
    // 184 + 168 + 168 = budget exactly; the prio-1 item carries the
    // 2-word payload.
    assert_eq!(
        w.txn(|tx| pool.insert(tx, 1, 0, 0, 1, 2)),
        InsertOutcome::Inserted { evicted: 0 }
    );
    for id in 2..=3u64 {
        w.txn(|tx| pool.insert(tx, id, 0, id, 5, 0));
    }
    assert_eq!(w.txn(|tx| pool.live_bytes(tx)), budget);

    // Needs 184; evicting the single 184-byte worst item is exactly enough.
    let out = w.txn(|tx| pool.insert(tx, 4, 0, 4, 9, 2));
    assert_eq!(out, InsertOutcome::Inserted { evicted: 1 });
    assert_eq!(w.txn(|tx| pool.live_bytes(tx)), budget);
    let c = pool.seq_counters(&w);
    assert_eq!((c.evicted, c.evicted_bytes), (1, B + 16));
    pool.seq_check(&w);
}

/// A by-sender purge and an eviction composed in ONE transaction are
/// atomic: a user abort after both rolls everything back.
#[test]
fn purge_plus_evicting_insert_compose_and_roll_back() {
    let (rt, pool) = pool_rt(4 * B);
    let mut w = rt.spawn_worker();
    for id in 1..=4u64 {
        w.txn(|tx| pool.insert(tx, id, id % 2, id, id, 0));
    }
    let before = pool.seq_collect(&w);
    let before_counters = pool.seq_counters(&w);

    // Aborted attempt: purge sender 1 (ids 1, 3), insert a full-budget
    // replacement that evicts, then bail. Nothing may stick.
    let r: Result<(), u64> = w.txn_result(|tx| {
        let purged = pool.remove_sender(tx, 1)?;
        assert_eq!(purged, 2);
        let out = pool.insert(tx, 50, 9, 0, 9, 0)?;
        assert!(matches!(out, InsertOutcome::Inserted { .. }));
        Err(stm::Abort::User(7))
    });
    assert_eq!(r, Err(7));
    assert_eq!(
        pool.seq_collect(&w),
        before,
        "user abort must undo purge + insert"
    );
    assert_eq!(pool.seq_counters(&w), before_counters);
    pool.seq_check(&w);

    // Committed attempt: both effects land atomically.
    let (purged, out) = w.txn(|tx| {
        let purged = pool.remove_sender(tx, 1)?;
        let out = pool.insert(tx, 50, 9, 0, 9, 0)?;
        Ok((purged, out))
    });
    assert_eq!(purged, 2);
    assert_eq!(out, InsertOutcome::Inserted { evicted: 0 });
    let ids: Vec<u64> = pool.seq_collect(&w).iter().map(|e| e.id).collect();
    assert_eq!(ids, vec![2, 4, 50]);
    pool.seq_check(&w);
}

/// Two threads, one evicting by inserting ever-better items into a tiny
/// pool, one purging that sender's chain: whatever interleaving the STM
/// serializes to, the indices stay cross-consistent and the conservation
/// law (`inserted == live + evicted + popped + removed + purged`) holds.
#[test]
fn eviction_racing_sender_purge_stays_consistent() {
    let (rt, pool) = pool_rt(6 * B);
    const ROUNDS: u64 = 300;
    // The purger starts once the chain has an item, so its first purge
    // always finds one, however the threads are scheduled.
    let first_in = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut w = rt.spawn_worker();
            for i in 0..ROUNDS {
                // Sender 7 items climb in priority so later inserts evict
                // earlier ones while the purger races the same chain.
                w.txn(|tx| pool.insert(tx, 1000 + i, 7, i, i, i % 3));
                first_in.store(true, std::sync::atomic::Ordering::Release);
            }
        });
        s.spawn(|| {
            let mut w = rt.spawn_worker();
            while !first_in.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::yield_now();
            }
            for _ in 0..ROUNDS / 4 {
                w.txn(|tx| pool.remove_sender(tx, 7));
            }
        });
    });
    let w = rt.spawn_worker();
    pool.seq_check(&w);
    let c = pool.seq_counters(&w);
    assert!(c.evicted > 0, "race never evicted: {c:?}");
    assert!(c.purged > 0, "race never purged: {c:?}");
    // Every item the purger missed was either evicted or is still live.
    assert_eq!(
        c.inserted,
        pool.seq_collect(&w).len() as u64 + c.evicted + c.purged
    );
}
