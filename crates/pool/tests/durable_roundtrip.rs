//! Durable round trip (ISSUE 13 satellite): items are level-sized blocks —
//! 11 to 33 words, five size classes — and the redo log ships each one as
//! a content range, header word included. Recovery must rebuild every
//! tower at its own size from the disk bytes alone: `seq_check` on the
//! recovered runtime re-proves the back links, the tail word and the
//! block-size-per-tower invariant, and the recovered pool must keep
//! working.

use pool::{InsertOutcome, Item, PoolConfig, TxPool};
use stm::{SimDisk, StmRuntime, TxConfig, TxObject};
use txmem::MemConfig;

#[test]
fn level_sized_items_survive_crash_recovery() {
    let mem = MemConfig::small();
    let mut cfg = TxConfig::runtime_tree_nursery();
    cfg.durable = true;
    let disk = SimDisk::new();
    let rt = StmRuntime::new_durable(mem, cfg, disk.clone());
    let pool = TxPool::create(
        &rt,
        PoolConfig {
            budget_bytes: 64 * Item::BYTES,
            bloom_words: 16,
        },
    );
    let mut w = rt.spawn_worker();
    // 600 ids: towers of every height up to ~9 occur, the budget forces
    // evictions (unlink at the head), and the op mix covers the unlink in
    // the middle (remove), at the tail (pop_best) and the re-splice
    // (promote) — all under the redo log.
    let mut evicted = 0;
    for id in 1..=600u64 {
        let prio = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
        match w.txn(|tx| pool.insert(tx, id, id % 7, id, prio, id % 5)) {
            InsertOutcome::Inserted { evicted: n } => evicted += n,
            other => assert_eq!(other, InsertOutcome::Rejected),
        }
        match id % 4 {
            0 => drop(w.txn(|tx| pool.remove(tx, id - 2))),
            1 => drop(w.txn(|tx| pool.promote(tx, id - 1, prio ^ 0x5555))),
            2 if id % 8 == 2 => drop(w.txn(|tx| pool.pop_best(tx))),
            _ => {}
        }
    }
    assert!(evicted > 0, "the script must exercise eviction");
    pool.seq_check(&w);
    let contents = pool.seq_collect(&w);
    let counters = pool.seq_counters(&w);
    assert!(
        contents.len() > 32,
        "a well-filled pool crashes: {counters:?}"
    );

    // Crash: everything the runtime held in memory is forgotten.
    drop(w);
    drop(rt);
    let (recovered, report) = stm::recover(mem, cfg, disk);
    assert_eq!(report.torn_tails, 0, "{report:?}");
    let mut w = recovered.spawn_worker();
    pool.seq_check(&w);
    assert_eq!(pool.seq_collect(&w), contents);
    assert_eq!(pool.seq_counters(&w), counters);

    // The recovered towers are live structure, not just bytes.
    let best = w.txn(|tx| pool.pop_best(tx)).expect("non-empty");
    assert_eq!(
        Some(best),
        contents.iter().max_by_key(|e| (e.prio, e.id)).copied()
    );
    w.txn(|tx| pool.remove_sender(tx, 3));
    w.txn(|tx| pool.insert(tx, 10_000, 3, 0, u64::MAX, 2));
    pool.seq_check(&w);
}
